package sdcquery

import (
	"hash/fnv"
	"math"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/store"
)

// The tests in this file run the server over a durable store reopened
// under a memory cap of a quarter of its footprint, the set-up in which
// every acquire of a spilled segment decodes it from disk through the
// pager. They bound the pager leases a query costs by what one decode of
// every spilled segment costs.

const tieredSegSize = 256

// spilledServer returns a server over d stored durably and reopened under
// a quarter-footprint memory cap, plus the store for its tier counters.
func spilledServer(t *testing.T, d *dataset.Dataset, cfg Config) (*Server, *store.Store) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Create(dir, d.Attrs(), store.Options{SegmentSize: tieredSegSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDataset(d); err != nil {
		t.Fatal(err)
	}
	footprint := st.TierStats().ResidentBytes
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Open(dir, store.Options{MemCap: footprint / 4}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := NewServerFromStore(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, st
}

// pagerLeases returns the pager leases (hits plus misses) f takes.
func pagerLeases(st *store.Store, f func()) int64 {
	before := st.TierStats()
	f()
	after := st.TierStats()
	return (after.PagerHits + after.PagerMisses) - (before.PagerHits + before.PagerMisses)
}

// oneDecodeLeases settles the store's tiers and returns the leases of one
// decode of every spilled segment: a Sum over every row. The first sweep
// promotes segments until the memory cap is full; after it the same
// segments stay spilled, so each further sweep costs the same.
func oneDecodeLeases(t *testing.T, st *store.Store) int64 {
	t.Helper()
	snap := st.Snapshot()
	all, err := snap.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	col := snap.Index("blood_pressure")
	pagerLeases(st, func() { snap.Sum(all, col) })
	n := pagerLeases(st, func() { snap.Sum(all, col) })
	if spilled := st.TierStats().Spilled; spilled < 10 || n == 0 {
		t.Fatalf("store is not spilled: %d spilled segments, %d leases per sweep", spilled, n)
	}
	return n
}

// TestAskBatchSumsInOneSweep pins that a /querybatch of 16 SUM queries
// decodes each spilled segment at most twice — once for EvalBatch, once
// for the aggregate sweep — rather than once more per query, and that its
// answers stay the reference evaluator's, bit for bit.
func TestAskBatchSumsInOneSweep(t *testing.T) {
	d := dataset.SyntheticTrial(dataset.TrialConfig{N: 20*tieredSegSize + 50, Seed: 17})
	srv, st := spilledServer(t, d, Config{Protection: NoProtection, AnswerCacheCap: -1})
	oneDecode := oneDecodeLeases(t, st)
	qs := make([]Query, 16)
	for k := range qs {
		agg := Sum
		if k%2 == 1 {
			agg = Avg
		}
		qs[k] = Query{Agg: agg, Attr: "blood_pressure", Where: Predicate{{Col: "height", Op: Ge, V: float64(140 + k)}}}
	}
	var answers []Answer
	var errs []error
	leases := pagerLeases(st, func() { answers, errs = srv.AskBatch("", qs) })
	if leases > 2*oneDecode {
		t.Fatalf("AskBatch of %d SUM/AVG queries took %d pager leases; two decodes per spilled segment are %d", len(qs), leases, 2*oneDecode)
	}
	for i, q := range qs {
		want, err := q.Evaluate(d)
		if err != nil || errs[i] != nil {
			t.Fatalf("query %d: Evaluate err %v, AskBatch err %v", i, err, errs[i])
		}
		if math.Float64bits(answers[i].Value) != math.Float64bits(want) {
			t.Fatalf("query %d: AskBatch %v, Evaluate %v", i, answers[i].Value, want)
		}
	}
}

// TestSampleDecodesEachSpilledSegmentOnce pins that a RandomSample query
// costs pager leases in proportion to the spilled segments, not to the
// sampled rows — Eval plus one Sum sweep over the sample — and that its
// answer is the row-at-a-time sample's, bit for bit.
func TestSampleDecodesEachSpilledSegmentOnce(t *testing.T) {
	d := dataset.SyntheticTrial(dataset.TrialConfig{N: 20*tieredSegSize + 50, Seed: 17})
	const seed, rate = 7, 0.5
	srv, st := spilledServer(t, d, Config{Protection: RandomSample, SampleRate: rate, Seed: seed})
	oneDecode := oneDecodeLeases(t, st)
	for _, q := range []Query{
		{Agg: Sum, Attr: "blood_pressure", Where: Predicate{{Col: "height", Op: Ge, V: 140}}},
		{Agg: Avg, Attr: "weight", Where: Predicate{{Col: "aids", Op: Eq, S: "Y"}}},
	} {
		var a Answer
		var err error
		if leases := pagerLeases(st, func() { a, err = srv.Ask(q) }); leases > 2*oneDecode {
			t.Fatalf("%v took %d pager leases; two decodes per spilled segment are %d", q, leases, 2*oneDecode)
		}
		if err != nil || a.Denied {
			t.Fatalf("%v: %+v, %v", q, a, err)
		}
		if want := rowSample(t, d, q, seed, rate); math.Float64bits(a.Value) != math.Float64bits(want) {
			t.Fatalf("%v: sampled %v, row-at-a-time sample %v", q, a.Value, want)
		}
	}
}

// rowSample is the reference for the sampled SUM/AVG: it draws each
// matching row's inclusion coin and adds the included values one row at a
// time, in ascending row order.
func rowSample(t *testing.T, d *dataset.Dataset, q Query, seed uint64, rate float64) float64 {
	t.Helper()
	rows, err := q.Where.QuerySet(d)
	if err != nil {
		t.Fatal(err)
	}
	qh := fnv.New64a()
	qh.Write([]byte(q.String()))
	qkey := qh.Sum64() ^ seed
	j := d.Index(q.Attr)
	var included int
	var sum float64
	for _, i := range rows {
		h := (uint64(i) + 0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
		h ^= qkey
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
		if float64(h%1_000_003)/1_000_003 < rate {
			included++
			sum += d.Float(i, j)
		}
	}
	if q.Agg == Avg {
		return sum / float64(included)
	}
	return sum / rate
}
