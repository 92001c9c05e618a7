package store_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/sdcquery"
	"privacy3d/internal/store"
)

// SumBatch must be bit-identical to a per-query Sum and to the reference
// evaluator, so these tests compare float64 bit patterns, never values.

const (
	sumSegSize = 64
	sumSegs    = 6
	sumRows    = sumSegs*sumSegSize + 37 // six sealed segments and a tail
)

// sumDataset holds the awkward float64s — NaN, ±Inf, −0 and magnitudes
// far enough apart that reassociating the additions would change the
// result — plus a row id column for predicates that pick exact segments.
func sumDataset() *dataset.Dataset {
	rng := rand.New(rand.NewPCG(5, 13))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e16, -1e16, 0.1, 3}
	id := make([]float64, sumRows)
	x := make([]float64, sumRows)
	y := make([]float64, sumRows)
	g := make([]string, sumRows)
	for i := range id {
		id[i] = float64(i)
		x[i] = rng.NormFloat64() * 100
		if rng.IntN(20) == 0 {
			x[i] = special[rng.IntN(len(special))]
		}
		// y has no NaN or Inf, so its sums stay finite and still depend on
		// the summation order (1e16 + 0.1 loses the 0.1).
		y[i] = []float64{1e16, -1e16, 0.1, math.Copysign(0, -1), 7}[rng.IntN(5)]
		g[i] = []string{"a", "b", "c"}[rng.IntN(3)]
	}
	attrs := []dataset.Attribute{
		{Name: "id", Kind: dataset.Numeric},
		{Name: "x", Kind: dataset.Numeric},
		{Name: "y", Kind: dataset.Numeric},
		{Name: "g", Kind: dataset.Nominal},
	}
	d, err := dataset.NewFromColumns(attrs, sumRows, [][]float64{id, x, y, nil}, [][]string{nil, nil, nil, g})
	if err != nil {
		panic(err)
	}
	return d
}

// sumStores returns the dataset in a resident store and in a durable store
// reopened under a memory cap of a quarter of its footprint, so most of
// its segments are decoded from disk on every acquire.
func sumStores(t *testing.T, d *dataset.Dataset) map[string]*store.Store {
	t.Helper()
	resident, err := store.FromDatasetSharded(d, sumSegSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := store.Create(dir, d.Attrs(), store.Options{SegmentSize: sumSegSize, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDataset(d); err != nil {
		t.Fatal(err)
	}
	footprint := s.TierStats().ResidentBytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	spilled, err := store.Open(dir, store.Options{MemCap: footprint / 4, PageBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { spilled.Close() })
	return map[string]*store.Store{"resident": resident, "spilled": spilled}
}

// checkSumBatch evaluates every conjunction, sums each over every numeric
// column with SumBatch (each pair twice, so duplicates are covered) and
// requires every result to match Sum and Query.Evaluate bit for bit.
func checkSumBatch(t *testing.T, d *dataset.Dataset, snap *store.Snapshot, shapes [][]store.Cond) {
	t.Helper()
	var bms []*store.Bitmap
	var cols []int
	var queries []sdcquery.Query
	for _, conds := range shapes {
		bm, err := snap.Eval(conds)
		if err != nil {
			t.Fatal(err)
		}
		for _, attr := range []string{"id", "x", "y"} {
			bms = append(bms, bm)
			cols = append(cols, snap.Index(attr))
			queries = append(queries, sdcquery.Query{Agg: sdcquery.Sum, Attr: attr, Where: sdcquery.Predicate(conds)})
		}
	}
	bms, cols, queries = append(bms, bms...), append(cols, cols...), append(queries, queries...)
	got := snap.SumBatch(bms, cols)
	if len(got) != len(bms) {
		t.Fatalf("SumBatch returned %d sums for %d pairs", len(got), len(bms))
	}
	for k := range bms {
		one := snap.Sum(bms[k], cols[k])
		ref, err := queries[k].Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[k]) != math.Float64bits(one) || math.Float64bits(one) != math.Float64bits(ref) {
			t.Fatalf("pair %d (%v): SumBatch %v (%#x), Sum %v (%#x), Evaluate %v (%#x)", k, queries[k],
				got[k], math.Float64bits(got[k]), one, math.Float64bits(one), ref, math.Float64bits(ref))
		}
	}
}

func TestSumBatchMatchesSumAndEvaluate(t *testing.T) {
	d := sumDataset()
	shapes := map[string][][]store.Cond{
		"all":       {nil},
		"empty":     {{{Col: "g", Op: store.Eq, S: "absent", Str: true}}},
		"tail only": {{{Col: "id", Op: store.Ge, V: sumSegs * sumSegSize}}},
		"one segment": {{
			{Col: "id", Op: store.Ge, V: 2 * sumSegSize},
			{Col: "id", Op: store.Lt, V: 3 * sumSegSize},
		}},
		"specials": {
			{{Col: "x", Op: store.Ne, V: 0}},
			{{Col: "x", Op: store.Eq, V: math.Inf(1)}},
			{{Col: "x", Op: store.Gt, V: 1e15}},
			{{Col: "y", Op: store.Eq, V: 0}},
		},
		"mixed": {
			nil,
			{{Col: "g", Op: store.Eq, S: "absent", Str: true}},
			{{Col: "id", Op: store.Ge, V: sumSegs * sumSegSize}},
			{{Col: "g", Op: store.Eq, S: "b", Str: true}, {Col: "id", Op: store.Lt, V: 100}},
			{{Col: "y", Op: store.Lt, V: 1}, {Col: "g", Op: store.Ne, S: "a", Str: true}},
		},
	}
	for name, st := range sumStores(t, d) {
		for shape, conds := range shapes {
			t.Run(name+"/"+shape, func(t *testing.T) { checkSumBatch(t, d, st.Snapshot(), conds) })
		}
	}
}

// TestSumBatchProperty draws random batches of random conjunctions over
// both stores.
func TestSumBatchProperty(t *testing.T) {
	d := sumDataset()
	rng := rand.New(rand.NewPCG(20070923, 1))
	ops := []store.Op{store.Lt, store.Le, store.Gt, store.Ge, store.Eq, store.Ne}
	randCond := func() store.Cond {
		switch rng.IntN(3) {
		case 0:
			return store.Cond{Col: "id", Op: ops[rng.IntN(len(ops))], V: float64(rng.IntN(sumRows + 10))}
		case 1:
			return store.Cond{Col: "x", Op: ops[rng.IntN(len(ops))], V: rng.NormFloat64() * 100}
		default:
			op := store.Eq
			if rng.IntN(2) == 0 {
				op = store.Ne
			}
			return store.Cond{Col: "g", Op: op, S: []string{"a", "b", "c", "z"}[rng.IntN(4)], Str: true}
		}
	}
	stores := sumStores(t, d)
	for iter := 0; iter < 60; iter++ {
		shapes := make([][]store.Cond, 1+rng.IntN(8))
		for i := range shapes {
			for c := rng.IntN(4); c > 0; c-- {
				shapes[i] = append(shapes[i], randCond())
			}
		}
		for name, st := range stores {
			t.Run(fmt.Sprintf("%s/%d", name, iter), func(t *testing.T) { checkSumBatch(t, d, st.Snapshot(), shapes) })
		}
	}
}

func TestSumBatchEmptyAndPanics(t *testing.T) {
	d := sumDataset()
	st, err := store.FromDatasetSharded(d, sumSegSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if got := snap.SumBatch(nil, nil); len(got) != 0 {
		t.Fatalf("empty SumBatch = %v", got)
	}
	bm, _ := snap.Eval(nil)
	for name, call := range map[string]func(){
		"length mismatch": func() { snap.SumBatch([]*store.Bitmap{bm}, nil) },
		"categorical":     func() { snap.SumBatch([]*store.Bitmap{bm}, []int{snap.Index("g")}) },
		"categorical Sum": func() { snap.Sum(bm, snap.Index("g")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// TestSumBatchDecodesEachSpilledSegmentOnce pins the point of the batch:
// on a store whose segments are served from disk, summing 16 query sets
// costs no more pager leases than one Sum over every row — one decode per
// spilled segment — where a per-query Sum loop pays up to 16.
func TestSumBatchDecodesEachSpilledSegmentOnce(t *testing.T) {
	d := sumDataset()
	st := sumStores(t, d)["spilled"]
	snap := st.Snapshot()
	all, _ := snap.Eval(nil)
	x := snap.Index("x")
	leases := func(f func()) int64 {
		before := st.TierStats()
		f()
		after := st.TierStats()
		return (after.PagerHits + after.PagerMisses) - (before.PagerHits + before.PagerMisses)
	}
	// Warm up: the first sweep promotes segments until the memory cap is
	// full; from then on the same segments stay spilled.
	leases(func() { snap.Sum(all, x) })
	oneDecode := leases(func() { snap.Sum(all, x) })
	if spilled := st.TierStats().Spilled; spilled == 0 || oneDecode == 0 {
		t.Fatalf("store is not spilled: %d spilled segments, %d leases per sweep", spilled, oneDecode)
	}
	var bms []*store.Bitmap
	var cols []int
	for k := 0; k < 16; k++ {
		bm, err := snap.Eval([]store.Cond{{Col: "id", Op: store.Ge, V: float64(k)}})
		if err != nil {
			t.Fatal(err)
		}
		bms, cols = append(bms, bm), append(cols, x)
	}
	if got := leases(func() { snap.SumBatch(bms, cols) }); got > oneDecode {
		t.Fatalf("SumBatch of 16 took %d pager leases, one decode per spilled segment is %d", got, oneDecode)
	}
	if loop := leases(func() {
		for k := range bms {
			snap.Sum(bms[k], cols[k])
		}
	}); loop <= oneDecode {
		t.Fatalf("per-query Sum loop took %d leases, not more than one sweep's %d: the store is not spilled enough to test", loop, oneDecode)
	}
}
