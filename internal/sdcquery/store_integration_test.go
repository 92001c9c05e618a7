package sdcquery

import (
	"math"
	"strings"
	"testing"

	"privacy3d/internal/dataset"
)

// mixedDataset builds a schema with a categorical column that genuinely
// contains the empty string next to numeric zeros — the shape that made the
// seed's Cond.String() ambiguous.
func mixedDataset() *dataset.Dataset {
	d := dataset.New(
		dataset.Attribute{Name: "x", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "tag", Role: dataset.NonConfidential, Kind: dataset.Nominal},
		dataset.Attribute{Name: "v", Role: dataset.Confidential, Kind: dataset.Numeric},
	)
	vals := []struct {
		x   float64
		tag string
		v   float64
	}{
		{0, "", 10}, {0, "zero", 20}, {1, "", 30}, {2, "a", 40},
		{3, "a", 50}, {0, "b", 60}, {4, "", 70}, {5, "b", 80},
	}
	for _, r := range vals {
		d.MustAppend(r.x, r.tag, r.v)
	}
	return d
}

// TestCondStringCollisionRegression pins the satellite fix: a categorical
// condition on the empty string and a numeric condition on 0 used to render
// to the same canonical string — which is the answer-cache and camouflage
// key, so the two DISTINCT queries shared cached answers. The renderings
// must differ, and a server must answer the two queries differently.
func TestCondStringCollisionRegression(t *testing.T) {
	strCond := Cond{Col: "tag", Op: Eq, S: "", Str: true}
	numCond := Cond{Col: "tag", Op: Eq, V: 0}
	if strCond.String() == numCond.String() {
		t.Fatalf("collision: %q renders both the empty-string and the numeric-0 condition", strCond.String())
	}
	if got, want := strCond.String(), `tag = ""`; got != want {
		t.Fatalf("string cond renders %q, want %q", got, want)
	}
	if got, want := numCond.String(), "tag = 0"; got != want {
		t.Fatalf("numeric cond renders %q, want %q", got, want)
	}

	// End to end: on a server, COUNT(tag = "") and COUNT(x = 0) are
	// different queries with different answers; with the seed's ambiguous
	// rendering and an answer cache, look-alike canonical strings could
	// serve one query's cached answer for the other.
	d := mixedDataset()
	srv, err := NewServer(d, Config{Protection: NoProtection, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	qStr := Query{Agg: Count, Where: Predicate{strCond}}
	qNum := Query{Agg: Count, Where: Predicate{{Col: "x", Op: Eq, V: 0}}}
	if qStr.String() == qNum.String() {
		t.Fatalf("distinct queries share the canonical string %q", qStr.String())
	}
	aStr, err := srv.Ask(qStr)
	if err != nil {
		t.Fatal(err)
	}
	aNum, err := srv.Ask(qNum)
	if err != nil {
		t.Fatal(err)
	}
	if aStr.Value != 3 {
		t.Fatalf(`COUNT(tag = "") = %g, want 3`, aStr.Value)
	}
	if aNum.Value != 3 {
		t.Fatalf("COUNT(x = 0) = %g, want 3", aNum.Value)
	}
}

// TestCompileKindMismatch pins predicate validation: string values on
// numeric columns, numeric values on categorical columns, ordered
// operators on categorical columns, unknown columns and out-of-range
// operators are errors, and the reference evaluator, the server and the
// batch path all report the identical error.
func TestCompileKindMismatch(t *testing.T) {
	d := mixedDataset()
	srv, err := NewServer(d, Config{Protection: NoProtection, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p    Predicate
		want string
	}{
		{Predicate{{Col: "x", Op: Eq, S: "hello", Str: true}}, "sdcquery: string value"},
		{Predicate{{Col: "x", Op: Eq, Str: true}}, "sdcquery: string value"},
		{Predicate{{Col: "tag", Op: Eq, V: 7}}, "sdcquery: numeric value"},
		{Predicate{{Col: "tag", Op: Lt, S: "a", Str: true}}, "sdcquery: operator < not valid for categorical"},
		{Predicate{{Col: "missing", Op: Eq, V: 1}}, "sdcquery: unknown column"},
		{Predicate{{Col: "x", Op: Op(6), V: 1}}, "sdcquery: unknown operator Op(6)"},
		{Predicate{{Col: "tag", Op: Op(-1), S: "a"}}, "sdcquery: unknown operator Op(-1)"},
	}
	for _, c := range cases {
		q := Query{Agg: Count, Where: c.p}
		_, err := q.Evaluate(d)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("Evaluate(%v) err = %v, want prefix %q", c.p, err, c.want)
			continue
		}
		if _, err2 := srv.Ask(q); err2 == nil || err2.Error() != err.Error() {
			t.Errorf("Ask(%v) err = %v, want %v", c.p, err2, err)
		}
		if _, errs := srv.AskBatch("", []Query{q}); errs[0] == nil || errs[0].Error() != err.Error() {
			t.Errorf("AskBatch(%v) err = %v, want %v", c.p, errs[0], err)
		}
	}
}

// TestServerMatchesEvaluate pins the shared-evaluator satellite across the
// storage rewire: for every aggregate the unprotected server answer —
// computed via segment indexes and bitmap-driven sweeps — is byte-identical
// to Query.Evaluate's row-at-a-time sweep, across segment boundaries.
func TestServerMatchesEvaluate(t *testing.T) {
	d := mixedDataset()
	queries := []Query{
		{Agg: Count, Where: Predicate{{Col: "x", Op: Ge, V: 1}}},
		{Agg: Sum, Attr: "v", Where: Predicate{{Col: "tag", Op: Ne, S: "a"}}},
		{Agg: Avg, Attr: "v", Where: Predicate{{Col: "tag", Op: Eq, S: "", Str: true}}},
		{Agg: Sum, Attr: "v", Where: Predicate{}},
	}
	srv, err := NewServer(d, Config{Protection: NoProtection, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, err := q.Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		a, err := srv.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a.Value) != math.Float64bits(want) {
			t.Errorf("server %s = %x, Evaluate = %x (byte identity)",
				q, math.Float64bits(a.Value), math.Float64bits(want))
		}
	}
}

// TestServerIngest pins the growing-database semantics: ingested rows are
// visible to the next query (the versioned cache key prevents stale hits),
// Rows/Version advance, and Dataset() materializes the grown view while
// the pre-ingest handle stays untouched.
func TestServerIngest(t *testing.T) {
	d := mixedDataset()
	srv, err := NewServer(d, Config{Protection: NoProtection, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Agg: Count, Where: Predicate{{Col: "x", Op: Ge, V: 0}}}
	a, err := srv.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != 8 {
		t.Fatalf("pre-ingest COUNT = %g, want 8", a.Value)
	}
	if srv.Dataset() != d {
		t.Fatal("pre-ingest Dataset() should hand back the construction dataset")
	}
	v0 := srv.Version()
	for i := 0; i < 100; i++ {
		if err := srv.Ingest(float64(i), "new", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Rows() != 108 || srv.Version() != v0+100 {
		t.Fatalf("rows=%d version=%d after ingest, want 108/%d", srv.Rows(), srv.Version(), v0+100)
	}
	// The identical query re-asked must see the new rows — a stale cache
	// hit here is exactly what the versioned cache key rules out.
	a, err = srv.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != 108 {
		t.Fatalf("post-ingest COUNT = %g, want 108 (stale cached answer?)", a.Value)
	}
	got := srv.Dataset()
	if got == d {
		t.Fatal("post-ingest Dataset() returned the stale construction handle")
	}
	if got.Rows() != 108 || d.Rows() != 8 {
		t.Fatalf("materialized rows=%d, original rows=%d; want 108/8", got.Rows(), d.Rows())
	}
	if got.Cat(107, got.Index("tag")) != "new" {
		t.Fatal("materialized dataset missing ingested values")
	}
}

// TestNoiseIndependentAcrossVersions pins the fix for the cross-ingest
// differencing leak: every noise derivation (perturbation, camouflage, dp)
// keys on the snapshot version, so asking the same query before and after
// an Ingest draws independent noise — the difference of the two answers
// must NOT equal the exact aggregate contribution of the ingested rows.
// (With the old version-free keys it always did: v1+nz and v2+nz difference
// to v2−v1 with zero noise, even though under DP ε was charged twice.)
// Repeats within one version must still re-release identically.
func TestNoiseIndependentAcrossVersions(t *testing.T) {
	q := Query{Agg: Sum, Attr: "v", Where: Predicate{{Col: "x", Op: Ge, V: 0}}}
	configs := []Config{
		{Protection: Perturbation, Seed: 11, SegmentSize: 64},
		{Protection: Camouflage, Seed: 11, SegmentSize: 64},
		{Protection: DifferentialPrivacy, Seed: 11, SegmentSize: 64, Epsilon: 0.5, EpsilonBudget: 10},
	}
	for _, cfg := range configs {
		srv, err := NewServer(mixedDataset(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		truth1, err := q.Evaluate(srv.Dataset())
		if err != nil {
			t.Fatal(err)
		}
		a1, err := srv.AskAs("alice", q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := srv.Ingest(1.0, "new", 50.0); err != nil {
				t.Fatal(err)
			}
		}
		truth2, err := q.Evaluate(srv.Dataset())
		if err != nil {
			t.Fatal(err)
		}
		a2, err := srv.AskAs("alice", q)
		if err != nil {
			t.Fatal(err)
		}
		released := func(a Answer) float64 {
			if a.Interval {
				return (a.Lo + a.Hi) / 2 // camouflage: the midpoint carries the offset
			}
			return a.Value
		}
		if released(a2)-released(a1) == truth2-truth1 {
			t.Errorf("%v: answers across an Ingest difference to the exact ingested contribution %g — noise reused across versions",
				cfg.Protection, truth2-truth1)
		}
		// Within one version, a repeat is still the identical re-release.
		a3, err := srv.AskAs("alice", q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(released(a3)) != math.Float64bits(released(a2)) {
			t.Errorf("%v: repeat at one version released %x then %x", cfg.Protection, math.Float64bits(released(a2)), math.Float64bits(released(a3)))
		}
	}
}

// TestZeroValueCondCompat pins the compile lenience for hand-built library
// conditions: Cond{Col: catCol, Op: Eq} (all fields zero) compiles as an
// empty-string comparison — the behavior hand-built literals had before
// Str existed — on both the library evaluator and the server's index path,
// while a non-zero V stays a kind-mismatch error.
func TestZeroValueCondCompat(t *testing.T) {
	d := mixedDataset()
	zero := Predicate{{Col: "tag", Op: Eq}}
	rows, err := zero.QuerySet(d)
	if err != nil {
		t.Fatalf("zero-valued categorical cond rejected: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("QuerySet matched %d rows, want the 3 empty-tag rows", len(rows))
	}
	srv, err := NewServer(d, Config{Protection: NoProtection, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Ask(Query{Agg: Count, Where: zero})
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != 3 {
		t.Errorf("COUNT = %g, want 3", a.Value)
	}
	// Ne complement and the surviving error case.
	if rows, err = (Predicate{{Col: "tag", Op: Ne}}).QuerySet(d); err != nil || len(rows) != 5 {
		t.Errorf("Ne zero-valued cond: rows=%d err=%v, want 5 rows", len(rows), err)
	}
	if _, err := (Predicate{{Col: "tag", Op: Eq, V: 7}}).QuerySet(d); err == nil {
		t.Error("non-zero numeric value against categorical column accepted")
	}
}

// TestAuditedConsistentUnderIngest pins the snapshot semantics the auditor
// needs: audited answers stay self-consistent while the database grows
// mid-stream — the indicator system mixes vector widths across versions
// without panicking or losing the disclosure property.
func TestAuditedConsistentUnderIngest(t *testing.T) {
	d := mixedDataset()
	srv, err := NewServer(d, Config{Protection: Auditing, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// SUM over x >= 1 (5 records) answers fine at version 0.
	a, err := srv.Ask(Query{Agg: Sum, Attr: "v", Where: Predicate{{Col: "x", Op: Ge, V: 1}}})
	if err != nil || a.Denied {
		t.Fatalf("first audited sum: %+v, %v", a, err)
	}
	for i := 0; i < 50; i++ {
		if err := srv.Ingest(100+float64(i), "grown", 1000+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A query isolating one record must still be caught after growth —
	// x = 1 matches exactly one original record.
	a, err = srv.Ask(Query{Agg: Sum, Attr: "v", Where: Predicate{{Col: "x", Op: Eq, V: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Denied {
		t.Fatal("auditing answered a single-record sum after ingest")
	}
	// A broad query over the grown database still answers.
	a, err = srv.Ask(Query{Agg: Sum, Attr: "v", Where: Predicate{{Col: "x", Op: Ge, V: 0}}})
	if err != nil || a.Denied {
		t.Fatalf("broad audited sum after ingest: %+v, %v", a, err)
	}
}
