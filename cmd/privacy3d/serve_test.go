package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/store"
)

// serveOptsFor parses args through the real serve flag set, so the tests
// exercise exactly the defaults and types cmdServe sees.
func serveOptsFor(t *testing.T, args ...string) *serveOpts {
	t.Helper()
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	o := serveFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return o
}

// TestValidateServeStorageRejectsBadFlags pins that storage
// misconfiguration is caught up front with a clean error naming the flag,
// before any CSV is read or store directory touched.
func TestValidateServeStorageRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-shards", "-1"}, "-shards"},
		{[]string{"-memcap", "-5"}, "-memcap"},
		{[]string{"-memcap", "1024"}, "-datadir"}, // memcap without a disk tier
	}
	for _, tc := range cases {
		o := serveOptsFor(t, tc.args...)
		if _, err := validateServeStorage(o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("validateServeStorage(%v) = %v, want error naming %s", tc.args, err, tc.want)
		}
	}
}

func TestValidateServeStorageUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root; no unwritable directories")
	}
	dir := filepath.Join(t.TempDir(), "ro")
	if err := os.Mkdir(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	o := serveOptsFor(t, "-datadir", filepath.Join(dir, "data"))
	if _, err := validateServeStorage(o); err == nil {
		t.Fatal("unwritable -datadir accepted")
	}
}

func TestValidateServeStorageDetectsRecovery(t *testing.T) {
	dir := t.TempDir()
	o := serveOptsFor(t, "-datadir", dir)
	recovery, err := validateServeStorage(o)
	if err != nil || recovery {
		t.Fatalf("fresh dir: recovery=%v err=%v", recovery, err)
	}
	d, err := dataset.Synth("trial", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(dir, d.Attrs(), store.Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDataset(d); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recovery, err = validateServeStorage(o)
	if err != nil || !recovery {
		t.Fatalf("existing store: recovery=%v err=%v", recovery, err)
	}
	// Recovery serves the committed rows, so a conflicting -in is refused.
	o = serveOptsFor(t, "-datadir", dir, "-in", "other.csv")
	if _, err := validateServeStorage(o); err == nil || !strings.Contains(err.Error(), "-in") {
		t.Fatalf("recovery with -in accepted: %v", err)
	}
}
