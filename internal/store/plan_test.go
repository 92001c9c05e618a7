package store

import (
	"math"
	"testing"
)

// planFor compiles conds against a tiny store and plans them.
func planFor(t *testing.T, conds []Cond) *plan {
	t.Helper()
	s, err := FromDatasetSharded(synthRows(10, 7), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := s.Snapshot().compile(conds)
	if err != nil {
		t.Fatal(err)
	}
	return planConds(cc)
}

func TestPlanMergesBandIntoOneInterval(t *testing.T) {
	p := planFor(t, []Cond{
		{Col: "x", Op: Ge, V: 3},
		{Col: "x", Op: Lt, V: 5},
		{Col: "c", Op: Eq, S: "a", Str: true},
	})
	if len(p.ivs) != 1 || len(p.rest) != 1 || p.empty {
		t.Fatalf("plan = %+v, want one interval + one residual", p)
	}
	iv := p.ivs[0]
	if iv.lo != 3 || !iv.loIncl || iv.hi != 5 || iv.hiIncl {
		t.Fatalf("band merged to [%v,%v] incl=(%v,%v), want [3,5)", iv.lo, iv.hi, iv.loIncl, iv.hiIncl)
	}
}

func TestPlanTieStrictness(t *testing.T) {
	// x > 3 ∧ x >= 3 is x > 3; x <= 5 ∧ x < 5 is x < 5.
	p := planFor(t, []Cond{
		{Col: "x", Op: Gt, V: 3}, {Col: "x", Op: Ge, V: 3},
		{Col: "x", Op: Le, V: 5}, {Col: "x", Op: Lt, V: 5},
	})
	if len(p.ivs) != 1 {
		t.Fatalf("plan = %+v", p)
	}
	iv := p.ivs[0]
	if iv.loIncl || iv.hiIncl || iv.lo != 3 || iv.hi != 5 {
		t.Fatalf("merged to [%v,%v] incl=(%v,%v), want (3,5) exclusive", iv.lo, iv.hi, iv.loIncl, iv.hiIncl)
	}
}

func TestPlanVacuousAndNaNAreEmpty(t *testing.T) {
	cases := [][]Cond{
		{{Col: "x", Op: Gt, V: 5}, {Col: "x", Op: Lt, V: 3}}, // disjoint
		{{Col: "x", Op: Gt, V: 3}, {Col: "x", Op: Le, V: 3}}, // touching, open
		{{Col: "x", Op: Eq, V: 4}, {Col: "x", Op: Eq, V: 5}}, // two equalities
		{{Col: "x", Op: Lt, V: math.NaN()}},                  // ordered vs NaN
		{{Col: "x", Op: Eq, V: math.NaN()}, {Col: "y", Op: Ge, V: 0}},
	}
	for _, conds := range cases {
		if p := planFor(t, conds); !p.empty {
			t.Errorf("plan(%v) = %+v, want empty", conds, p)
		}
	}
	// != NaN matches everything: it must stay a residual, not force empty.
	p := planFor(t, []Cond{{Col: "x", Op: Ne, V: math.NaN()}})
	if p.empty || len(p.rest) != 1 || len(p.ivs) != 0 {
		t.Fatalf("plan(x != NaN) = %+v, want one residual", p)
	}
}

func TestPlanNeStaysResidual(t *testing.T) {
	// A != carves a hole out of an interval: it cannot merge into it.
	p := planFor(t, []Cond{
		{Col: "x", Op: Ge, V: 2},
		{Col: "x", Op: Ne, V: 4},
		{Col: "x", Op: Lt, V: 9},
	})
	if len(p.ivs) != 1 || len(p.rest) != 1 || p.empty {
		t.Fatalf("plan = %+v, want interval [2,9) + residual !=4", p)
	}
	if p.rest[0].op != Ne || p.rest[0].v != 4 {
		t.Fatalf("residual = %+v", p.rest[0])
	}
}

// TestPlannedBandMatchesBrute pins the planner end to end: a band that is
// tiny only as an intersection agrees with the naive evaluator on every
// aggregate bit.
func TestPlannedBandMatchesBrute(t *testing.T) {
	d := synthRows(1000, 99)
	s, err := FromDatasetSharded(d, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	conds := []Cond{
		{Col: "x", Op: Ge, V: 7},
		{Col: "x", Op: Lt, V: 9},
		{Col: "y", Op: Gt, V: -5},
		{Col: "y", Op: Le, V: 12},
	}
	want := bruteEval(d, conds)
	bm, err := snap.Eval(conds)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := snap.EvalScan(conds)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if bm.Get(i) != w || scan.Get(i) != w {
			t.Fatalf("row %d: indexed=%v scan=%v brute=%v", i, bm.Get(i), scan.Get(i), w)
		}
	}
}
