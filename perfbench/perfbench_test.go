package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestStreamsDeterministic(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < 2; c++ {
			a, b, other := NewStream(w, 7, c), NewStream(w, 7, c), NewStream(w, 8, c)
			differs := false
			for i := 0; i < 300; i++ {
				ra, rb, ro := a.Next(), b.Next(), other.Next()
				if ra.Principal != rb.Principal || ra.Path() != rb.Path() || !bytes.Equal(ra.Body(), rb.Body()) {
					t.Fatalf("%s client %d request %d: same seed, different requests:\n%s\n%s", w.Name, c, i, ra.Body(), rb.Body())
				}
				differs = differs || !bytes.Equal(ra.Body(), ro.Body())
			}
			if !differs {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same 300 requests", w.Name, c)
			}
		}
	}
}

func TestCSVDeterministic(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		small := *w
		small.Rows = 2000
		var files [3][]byte
		for k, seed := range []uint64{7, 7, 8} {
			d, err := synthData(&small, seed)
			if err != nil {
				t.Fatal(err)
			}
			p := filepath.Join(dir, "data.csv")
			if err := writeCSV(p, d); err != nil {
				t.Fatal(err)
			}
			if files[k], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("%s: the same seed wrote different CSVs", w.Name)
		}
		if bytes.Equal(files[0], files[2]) {
			t.Errorf("%s: seeds 7 and 8 wrote the same CSV", w.Name)
		}
	}
}

// TestMissShapesRepeatRarely pins the premise of miss-1m: its shapes almost
// never repeat, so the answer cache is bypassed.
func TestMissShapesRepeatRarely(t *testing.T) {
	w, err := lookupWorkload("miss-1m")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2, 3} {
		seen := map[string]bool{}
		total, repeats := 0, 0
		for c := 0; c < 2; c++ {
			st := NewStream(w, seed, c)
			for i := 0; i < 10000; i++ {
				k := string(st.Next().Body())
				if seen[k] {
					repeats++
				}
				seen[k] = true
				total++
			}
		}
		if share := float64(repeats) / float64(total); share >= 0.01 {
			t.Errorf("seed %d: %d of %d requests repeat a shape (%.2f%%), want under 1%%", seed, repeats, total, 100*share)
		}
	}
}

func TestPercentileTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", v, err)
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(21), 0.5); err != nil || v != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples must be refused")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit against the benchmark
// format and against BENCHMARK.json, which must list exactly these.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range group {
			if !nameRE.MatchString(m.name) {
				t.Errorf("metric name %q does not match %s", m.name, nameRE)
			}
			if !unitRE.MatchString(m.unit) {
				t.Errorf("unit %q of %s does not match %s", m.unit, m.name, unitRE)
			}
			if seen[m.name] {
				t.Errorf("metric %q is defined twice", m.name)
			}
			seen[m.name] = true
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		if sw.Name != workloads[i].Name || sw.Why != workloads[i].Why {
			t.Errorf("BENCHMARK.json workload %d = %q, the benchmark's is %q", i, sw.Name, workloads[i].Name)
		}
	}
	check := func(group string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json %s lists %d metrics, the benchmark reports %d", group, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s[%d] = %s %s, the benchmark reports %s %s",
					group, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestSelfTimeSyntheticTree(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "b", Start: 40, End: 70}, // overlaps a
		{ID: 3, Parent: 1, Name: "leaf", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "leaf", Start: 25, End: 35}, // overlaps its sibling
		// A second request whose children were laid end to end and overrun
		// their parent: the overrun is subtracted, not clipped.
		{ID: 5, Parent: -1, Name: "root", Start: 200, End: 210},
		{ID: 6, Parent: 5, Name: "a", Start: 200, End: 208},
		{ID: 7, Parent: 5, Name: "b", Start: 208, End: 214},
	}
	want := map[string]int64{
		"root": (100 - 60) + (10 - 14), // union of a and b is [10,70]
		"a":    (40 - 15) + 8,          // union of the leaves is [20,35]
		"b":    30 + 6,
		"leaf": 10 + 10,
	}
	got := selfTimes(spans)
	for name, v := range want {
		if got[name] != v {
			t.Errorf("self time of %s = %d, want %d", name, got[name], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %v, want exactly %v", got, want)
	}
}

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader(`http_requests_total{endpoint="/query",status="200"} 12
dp_epsilon_remaining{principal="analyst-1"} 999.987
store_scratch_hit_rate 0.5
http_request_seconds_sum{endpoint="other"} 1.25e-05
`))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]float64{
		`http_requests_total{endpoint="/query",status="200"}`: 12,
		`dp_epsilon_remaining{principal="analyst-1"}`:         999.987,
		`store_scratch_hit_rate`:                              0.5,
		`http_request_seconds_sum{endpoint="other"}`:          1.25e-05,
	} {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

// windowOf builds a window of one-query requests, minSamples a second,
// each second's requests taking lat(second) to answer.
func windowOf(seconds int, lat func(k int) time.Duration) []timedReq {
	var reqs []timedReq
	for k := 0; k < seconds; k++ {
		for i := 0; i < minSamples; i++ {
			start := time.Duration(k)*time.Second + time.Duration(i)*time.Millisecond
			reqs = append(reqs, timedReq{start: start, end: start + lat(k), queries: 1})
		}
	}
	return reqs
}

// TestWindowFiguresDropStolenSlices builds a window of four slices of
// 1000 one-query requests, 1 s each. The hypervisor steals half the CPU
// during the second and fourth second, and the requests there are slow;
// the figures must come from the first and third slices alone, whether
// the host steals nothing during those or a tenth of the CPU.
func TestWindowFiguresDropStolenSlices(t *testing.T) {
	reqs := windowOf(4, func(k int) time.Duration {
		if k%2 == 1 {
			return 5 * time.Millisecond
		}
		return time.Millisecond
	})
	for i := 2*minSamples + minSamples - 20; i < 3*minSamples; i++ {
		reqs[i].end = reqs[i].start + 2*time.Millisecond // the third slice's tail
	}
	for _, quiet := range []float64{0, 20} {
		// 200 ticks a second: quiet of them stolen in the first and third
		// second, half of them in the second and fourth.
		ticks := []tickSample{
			{at: 0, busy: 0, steal: 0},
			{at: time.Second, busy: 200 - quiet, steal: quiet},
			{at: 2 * time.Second, busy: 300 - quiet, steal: 100 + quiet},
			{at: 3 * time.Second, busy: 500 - 2*quiet, steal: 100 + 2*quiet},
			{at: 4 * time.Second, busy: 600 - 2*quiet, steal: 200 + 2*quiet},
		}
		if quiet == 0 {
			if got := stealShare(ticks, time.Second, 2*time.Second); got != 0.5 {
				t.Errorf("steal share of the second second = %v, want 0.5", got)
			}
			if got := stealShare(ticks, 500*time.Millisecond, 1500*time.Millisecond); got != 50.0/200 {
				t.Errorf("interpolated steal share = %v, want 0.25", got)
			}
		}
		qps, p50, p99, per, err := windowFigures(reqs, ticks)
		if err != nil {
			t.Fatal(err)
		}
		if len(per) != 4 || !per[0].kept || per[1].kept || !per[2].kept || per[3].kept {
			t.Errorf("quiet steal %v: slices %+v: want 4, the first and third kept", quiet, per)
		}
		if p50 != 1 {
			t.Errorf("quiet steal %v: p50 = %v ms, want 1 (the stolen slices' 5 ms must not count)", quiet, p50)
		}
		// p99 per kept slice: 1 ms in the first, 2 ms in the third (its
		// 20 slowest requests); the median of the two is their mean.
		if p99 != 1.5 {
			t.Errorf("quiet steal %v: p99 = %v ms, want 1.5", quiet, p99)
		}
		if qps != 1000 {
			t.Errorf("quiet steal %v: qps = %v, want 1000", quiet, qps)
		}
	}
}

// TestWindowFiguresEqualStealKeepsWholeWindow gives every slice the same
// stolen share, once none and once a fifth of the CPU, while the program
// slows down in the second half of the window. Every slice must count
// either way, so the slowdown shows.
func TestWindowFiguresEqualStealKeepsWholeWindow(t *testing.T) {
	reqs := windowOf(4, func(k int) time.Duration {
		if k >= 2 {
			return 3 * time.Millisecond
		}
		return time.Millisecond
	})
	for _, stolen := range []float64{0, 50} {
		var ticks []tickSample
		for k := 0; k <= 4; k++ {
			ticks = append(ticks, tickSample{at: time.Duration(k) * time.Second, busy: 200 * float64(k), steal: stolen * float64(k)})
		}
		_, p50, p99, per, err := windowFigures(reqs, ticks)
		if err != nil {
			t.Fatal(err)
		}
		if len(per) != 4 || !per[0].kept || !per[1].kept || !per[2].kept || !per[3].kept {
			t.Errorf("steal %v ticks/s: slices %+v, want 4, all kept", stolen, per)
		}
		// Two slices at 1 ms and two at 3 ms: the median is their mean.
		if p50 != 2 || p99 != 2 {
			t.Errorf("steal %v ticks/s: p50 = %v ms, p99 = %v ms, want 2 and 2", stolen, p50, p99)
		}
	}
}
