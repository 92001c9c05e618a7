package sdcquery

import (
	"math"
	"testing"

	"privacy3d/internal/dataset"
)

func TestRandomSampleApproximatesAggregates(t *testing.T) {
	d := dataset.SyntheticTrial(dataset.TrialConfig{N: 2000, Seed: 3})
	srv, err := NewServer(d, Config{Protection: RandomSample, SampleRate: 0.8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Agg: Count, Where: Predicate{{Col: "height", Op: Ge, V: 170}}}
	truth, err := q.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Ask(q)
	if err != nil || a.Denied {
		t.Fatalf("sampled query: %+v %v", a, err)
	}
	if rel := math.Abs(a.Value-truth) / truth; rel > 0.1 {
		t.Errorf("sampled COUNT %v vs truth %v (rel err %.3f)", a.Value, truth, rel)
	}
	// AVG within a few percent.
	qa := Query{Agg: Avg, Attr: "blood_pressure", Where: Predicate{{Col: "height", Op: Ge, V: 170}}}
	truthA, _ := qa.Evaluate(d)
	aa, err := srv.Ask(qa)
	if err != nil || aa.Denied {
		t.Fatalf("sampled AVG: %+v %v", aa, err)
	}
	if math.Abs(aa.Value-truthA)/truthA > 0.05 {
		t.Errorf("sampled AVG %v vs truth %v", aa.Value, truthA)
	}
}

func TestRandomSampleIsDeterministicPerQuery(t *testing.T) {
	srv, _ := NewServer(dataset.Dataset2(), Config{Protection: RandomSample, Seed: 5})
	q := Query{Agg: Sum, Attr: "blood_pressure", Where: Predicate{{Col: "height", Op: Ge, V: 170}}}
	a1, err := srv.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := srv.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Value != a2.Value {
		t.Error("repeating the query changed the sampled answer (averaging attack possible)")
	}
}

func TestRandomSampleBreaksTrackerExactness(t *testing.T) {
	// Denning's point: the tracker still runs, but its differenced answers
	// come from independent samples, so the inferred "value" is no longer
	// the target's exact blood pressure with certainty. With n=9 the
	// variance is visible; we check the inferred count is corrupted or the
	// sum is off for at least one of several server seeds.
	exact := 0
	const trials = 12
	for seed := uint64(0); seed < trials; seed++ {
		srv, err := NewServer(dataset.Dataset2(), Config{Protection: RandomSample, SampleRate: 0.7, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTracker(srv,
			Predicate{{Col: "height", Op: Lt, V: 176}},
			Cond{Col: "weight", Op: Gt, V: 105})
		res, err := tr.Infer("blood_pressure")
		if err != nil {
			continue // denial also counts as protection
		}
		if res.Count == 1 && res.Sum == 146 {
			exact++
		}
	}
	if exact > trials/2 {
		t.Errorf("tracker recovered the exact value in %d/%d runs — sampling not protective", exact, trials)
	}
}

func TestRandomSampleEmptyAvgDenied(t *testing.T) {
	srv, _ := NewServer(dataset.Dataset2(), Config{Protection: RandomSample, SampleRate: 0.5, Seed: 1})
	// A query set that samples to empty: use an empty query set outright.
	a, err := srv.Ask(Query{Agg: Avg, Attr: "blood_pressure", Where: Predicate{{Col: "height", Op: Lt, V: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Denied {
		t.Error("AVG over empty sample should be denied")
	}
	if _, err := srv.Ask(Query{Agg: Sum, Attr: "aids", Where: Predicate{}}); err == nil {
		t.Error("accepted SUM over categorical attribute")
	}
}

// TestRandomSampleGolden pins sampled answers bit for bit: the coins and
// the order in which the sampled values are added must not change, or
// every released sample would change with them.
func TestRandomSampleGolden(t *testing.T) {
	d := dataset.SyntheticTrial(dataset.TrialConfig{N: 2000, Seed: 3})
	srv, err := NewServer(d, Config{Protection: RandomSample, SampleRate: 0.5, Seed: 7, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    Query
		bits uint64
	}{
		{Query{Agg: Sum, Attr: "blood_pressure", Where: Predicate{{Col: "height", Op: Ge, V: 160}}}, 0x410a2c2333333336},
		{Query{Agg: Avg, Attr: "weight", Where: Predicate{{Col: "aids", Op: Eq, S: "Y"}}}, 0x40523ec0d4c77b05},
		{Query{Agg: Count, Where: Predicate{{Col: "height", Op: Lt, V: 175}}}, 0x4095380000000000},
	} {
		a, err := srv.Ask(tc.q)
		if err != nil || a.Denied {
			t.Fatalf("%v: %+v, %v", tc.q, a, err)
		}
		if got := math.Float64bits(a.Value); got != tc.bits {
			t.Errorf("%v = %v (%#x), want %v (%#x)", tc.q, a.Value, got, math.Float64frombits(tc.bits), tc.bits)
		}
	}
}
