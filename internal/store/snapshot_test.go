package store

import (
	"math"
	"sync"
	"testing"
)

// TestSnapshotStableUnderIngest is the isolation proof the ISSUE requires:
// a snapshot pinned mid-ingest keeps returning byte-identical answers — row
// count, bitmap, COUNT, and SUM — no matter how many rows land after the
// pin, including across seal boundaries. Run under -race this also verifies
// the pin/ingest interplay is data-race free.
func TestSnapshotStableUnderIngest(t *testing.T) {
	s, err := New(testSchema(), Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ { // one sealed segment + a 36-row tail
		s.mustAppendRow(t, i)
	}
	snap := s.Snapshot()
	conds := []Cond{{Col: "x", Op: Lt, V: 50}, {Col: "c", Op: Eq, S: "a", Str: true}}
	refBM, err := snap.Eval(conds)
	if err != nil {
		t.Fatal(err)
	}
	refCount := refBM.Count()
	refSum := snap.Sum(refBM, snap.Index("y"))
	refRows := snap.Rows()

	// Hammer ingest while re-asking the pinned snapshot concurrently.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 100; i < 1500; i++ { // crosses many seal boundaries
			s.mustAppendRow(t, i)
		}
		close(stop)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			bm, err := snap.Eval(conds)
			if err != nil {
				t.Error(err)
				return
			}
			if snap.Rows() != refRows || bm.Count() != refCount {
				t.Errorf("pinned snapshot drifted: rows=%d count=%d, want %d/%d",
					snap.Rows(), bm.Count(), refRows, refCount)
				return
			}
			if got := snap.Sum(bm, snap.Index("y")); math.Float64bits(got) != math.Float64bits(refSum) {
				t.Errorf("pinned SUM drifted: %x, want %x", math.Float64bits(got), math.Float64bits(refSum))
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()

	if s.Rows() != 1500 {
		t.Fatalf("store rows = %d, want 1500", s.Rows())
	}
	// A fresh snapshot sees everything; the pinned one still does not.
	if got := s.Snapshot().Rows(); got != 1500 {
		t.Fatalf("fresh snapshot rows = %d", got)
	}
	if snap.Rows() != refRows {
		t.Fatalf("pinned snapshot rows changed to %d", snap.Rows())
	}
}

// mustAppendRow appends a deterministic row derived from i.
func (s *Store) mustAppendRow(t *testing.T, i int) {
	t.Helper()
	cats := []string{"a", "b", ""}
	if err := s.Append(float64(i%97), float64(i)*0.5, cats[i%3], "p"); err != nil {
		t.Fatal(err)
	}
}

// TestVersionMonotonic pins that Version is a publish counter that moves
// only forward, one step per Append — the property answer-cache and noise
// keys rely on.
func TestVersionMonotonic(t *testing.T) {
	s, err := New(testSchema(), Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	last := s.Version()
	for i := 0; i < 200; i++ {
		s.mustAppendRow(t, i)
		v := s.Version()
		if v != last+1 {
			t.Fatalf("version %d after %d", v, last)
		}
		last = v
	}
}
