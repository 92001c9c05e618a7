package store

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"privacy3d/internal/dataset"
)

// fenceFixtures returns sorted columns of length n: distinct values, runs
// of equal values longer than a fence block (so runs straddle fence
// entries), and a column opening at -Inf, closing at +Inf, with -0 and +0
// side by side in both orders.
func fenceFixtures(n int) map[string][]float64 {
	distinct := make([]float64, n)
	runs := make([]float64, n)
	special := make([]float64, n)
	for i := range distinct {
		distinct[i] = float64(i) * 1.5
		runs[i] = float64(i / 100) // 100-long runs cross every 64th entry
		special[i] = float64(i - n/2)
	}
	if n > 0 {
		special[0] = math.Inf(-1)
		special[n-1] = math.Inf(1)
	}
	if z := n / 2; z > 0 && z+2 < n {
		// -0 and +0 compare equal, so a sorted column may hold them in
		// either order.
		special[z-1], special[z], special[z+1] = math.Copysign(0, -1), 0, math.Copysign(0, -1)
	}
	return map[string][]float64{"distinct": distinct, "runs": runs, "special": special}
}

// fenceProbes returns probe values equal to, just below, just above and
// halfway between every fence entry, plus values beyond both ends and the
// signed zeros and infinities.
func fenceProbes(idx *numIndex) []float64 {
	probes := []float64{math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1), -1e300, 1e300}
	for k, f := range idx.fence {
		probes = append(probes, f, math.Nextafter(f, math.Inf(-1)), math.Nextafter(f, math.Inf(1)))
		if k+1 < len(idx.fence) {
			probes = append(probes, f+(idx.fence[k+1]-f)/2)
		}
	}
	if n := len(idx.sorted); n > 0 {
		probes = append(probes, idx.sorted[0]-1, idx.sorted[n-1]+1)
	}
	return probes
}

// TestFencedBoundsMatchSearch pins the fenced bound searches to sort.Search
// at fence-edge lengths and probe values, from every starting point the
// callers may pass (any from at or below the answer), and the generic
// bounds over categorical codes likewise.
func TestFencedBoundsMatchSearch(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 8191, 8192} {
		for name, col := range fenceFixtures(n) {
			idx := buildNumIndex(col)
			if want := (n + 63) / 64; len(idx.fence) != want {
				t.Fatalf("n=%d %s: fence has %d entries, want %d", n, name, len(idx.fence), want)
			}
			s := idx.sorted
			for _, v := range fenceProbes(&idx) {
				wantLo := sort.Search(len(s), func(i int) bool { return s[i] >= v })
				wantHi := sort.Search(len(s), func(i int) bool { return s[i] > v })
				for _, from := range fromPoints(wantLo) {
					if got := idx.lower(v, from); got != wantLo {
						t.Fatalf("n=%d %s: lower(%v, from %d) = %d, want %d", n, name, v, from, got, wantLo)
					}
				}
				for _, from := range fromPoints(wantHi) {
					if got := idx.upper(v, from); got != wantHi {
						t.Fatalf("n=%d %s: upper(%v, from %d) = %d, want %d", n, name, v, from, got, wantHi)
					}
				}
			}
		}
		// Categorical codes: runs longer than a block, one code per 100 rows.
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = uint32(i/100) * 2
		}
		for c := uint32(0); c <= uint32(n/100)*2+2; c++ {
			wantLo := sort.Search(n, func(i int) bool { return codes[i] >= c })
			wantHi := sort.Search(n, func(i int) bool { return codes[i] > c })
			if got := lowerBound(codes, c); got != wantLo {
				t.Fatalf("n=%d: lowerBound(code %d) = %d, want %d", n, c, got, wantLo)
			}
			if got := wantLo + upperBound(codes[wantLo:], c); got != wantHi {
				t.Fatalf("n=%d: upperBound(code %d) from %d = %d, want %d", n, c, wantLo, got, wantHi)
			}
		}
	}
}

// fromPoints lists starting points at or below answer: zero, the answer
// itself, the positions around the fence entry at or below it, and half.
func fromPoints(answer int) []int {
	pts := []int{0, answer, answer / 2, answer &^ 63}
	for _, p := range []int{answer - 1, answer&^63 - 1, answer&^63 + 1} {
		if p >= 0 && p <= answer {
			pts = append(pts, p)
		}
	}
	return pts
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// FuzzEvalMatchesScan decodes its input into a small store at segment size
// 64 — a few sealed segments and a tail, with per-segment NaN shares up to
// all-NaN, a chosen number of distinct values (few means long duplicate
// runs), a chosen share of the majority category and the empty string as a
// category — and into one to three conditions, then checks that the index
// path answers exactly as the compiled scan does.
func FuzzEvalMatchesScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		segs := 1 + int(in.next()%4)
		rows := segs*64 + int(in.next()%64)
		rng := rand.New(rand.NewSource(int64(in.next())<<8 | int64(in.next())))
		domain := 1 + int(in.next()%32)
		majority := int(in.next() % 101)
		nanPct := make([]int, segs+1) // per segment, the tail last
		for s := range nanPct {
			nanPct[s] = int(in.next() % 101)
		}
		cvals := []string{"", "a", "b", "c", "zz"} // "zz" is never stored
		d := dataset.New(testSchema()...)
		for i := 0; i < rows; i++ {
			x := float64(rng.Intn(domain))
			if rng.Intn(100) < nanPct[i/64] {
				x = math.NaN()
			}
			c := cvals[0]
			if rng.Intn(100) >= majority {
				c = cvals[1+rng.Intn(3)]
			}
			d.MustAppend(x, math.Round(rng.NormFloat64()*8)/2, c, "p")
		}
		s, err := FromDatasetSharded(d, 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		conds := make([]Cond, 1+int(in.next()%3))
		for k := range conds {
			col, op, v := in.next()%3, Op(in.next()%6), in.next()
			switch col {
			case 0:
				x := float64(v%70)/2 - 1 // below, inside and above the domain, halves too
				switch v {
				case 255:
					x = math.NaN()
				case 254:
					x = math.Inf(1)
				case 253:
					x = math.Inf(-1)
				}
				conds[k] = Cond{Col: "x", Op: op, V: x}
			case 1:
				conds[k] = Cond{Col: "y", Op: op, V: float64(int8(v)) / 4}
			default:
				conds[k] = Cond{Col: "c", Op: []Op{Eq, Ne}[op%2], S: cvals[v%5], Str: true}
			}
		}
		snap := s.Snapshot()
		idx, err := snap.Eval(conds)
		if err != nil {
			t.Fatalf("Eval(%v): %v", conds, err)
		}
		scan, err := snap.EvalScan(conds)
		if err != nil {
			t.Fatalf("EvalScan(%v): %v", conds, err)
		}
		sameBits(t, fmt.Sprint(conds), idx, scan)
	})
}
