package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"

	"privacy3d/internal/dataset"
	"privacy3d/internal/sdcquery"
	"privacy3d/internal/store"
)

// serveNoiseSeed is the -seed every dp server of the benchmark runs with.
// It is the serve default, fixed here so the in-process reference draws the
// same noise; the workload seed never reaches the server.
const serveNoiseSeed = 20070923

// minSetSize is the -minsize of the size-restricted workloads (the serve
// default).
const minSetSize = 3

// verdict is the oracle's finding: which samples failed and why.
type verdict struct {
	bad      []bool // per sample: transport error, non-2xx, item error or oracle mismatch
	mismatch int    // samples that were answered but wrongly
	notes    []string
}

func (v *verdict) fail(i int, mismatch bool, format string, args ...any) {
	if !v.bad[i] && mismatch {
		v.mismatch++
	}
	v.bad[i] = true
	if len(v.notes) < 8 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// transportCheck marks every sample that did not come back as a 2xx, or
// that is a batch carrying an item error.
func transportCheck(samples []sample, v *verdict) {
	for i := range samples {
		s := &samples[i]
		switch {
		case s.err != nil:
			v.fail(i, false, "request %d/%d: %v", s.client, s.seq, s.err)
		case s.status < 200 || s.status > 299:
			v.fail(i, false, "request %d/%d: status %d: %s", s.client, s.seq, s.status, bytes.TrimSpace(s.body))
		case s.req.Batch:
			var br sdcquery.BatchResponseJSON
			if err := json.Unmarshal(s.body, &br); err != nil || len(br.Answers) != len(s.req.Queries) {
				v.fail(i, true, "request %d/%d: malformed batch response: %v", s.client, s.seq, err)
				continue
			}
			for k, a := range br.Answers {
				if a.Error != "" {
					v.fail(i, false, "request %d/%d item %d: %s", s.client, s.seq, k, a.Error)
					break
				}
			}
		}
	}
}

// sizeOracle checks a size-restricted workload: every answer must be
// byte-identical to the one an uncached in-memory reference server gives
// for the same request, and a seeded sample must also match the row-scan
// Query.Evaluate with the size rule applied. The reference is asked
// through a bare NewHandler, so the comparison covers the JSON bytes and
// therefore every float bit.
func sizeOracle(samples []sample, st *store.Store, d *dataset.Dataset, seed uint64, workers int, v *verdict) error {
	ref, err := sdcquery.NewServerFromStore(st, sdcquery.Config{
		Protection: sdcquery.SizeRestriction, MinSetSize: minSetSize, AnswerCacheCap: -1,
	})
	if err != nil {
		return err
	}
	h := sdcquery.NewHandler(ref, sdcquery.HandlerConfig{})
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(samples); i += workers {
				s := &samples[i]
				if s.err != nil || s.status != http.StatusOK {
					continue
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, s.req.Path(), bytes.NewReader(s.req.Body())))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), s.body) {
					mu.Lock()
					v.fail(i, true, "request %d/%d: served %q, reference %q", s.client, s.seq, bytes.TrimSpace(s.body), bytes.TrimSpace(rec.Body.Bytes()))
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	return scanSample(samples, d, seed, v)
}

// scanSampleSize is how many answers are re-derived by the row scan.
const scanSampleSize = 16

// scanSample re-derives a seeded sample of answers with Query.Evaluate —
// the library's single-sweep evaluator, independent of the segment store —
// and the size rule, and compares the float bits.
func scanSample(samples []sample, d *dataset.Dataset, seed uint64, v *verdict) error {
	var ok []int
	for i := range samples {
		if samples[i].err == nil && samples[i].status == http.StatusOK {
			ok = append(ok, i)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x7363616e)) // "scan"
	for k := 0; k < scanSampleSize && len(ok) > 0; k++ {
		i := ok[rng.IntN(len(ok))]
		s := &samples[i]
		item := rng.IntN(len(s.req.Queries))
		var got sdcquery.AnswerJSON
		if s.req.Batch {
			var br sdcquery.BatchResponseJSON
			if err := json.Unmarshal(s.body, &br); err != nil || item >= len(br.Answers) {
				v.fail(i, true, "request %d/%d: undecodable batch", s.client, s.seq)
				continue
			}
			got = br.Answers[item].AnswerJSON
		} else if err := json.Unmarshal(s.body, &got); err != nil {
			v.fail(i, true, "request %d/%d: undecodable answer", s.client, s.seq)
			continue
		}
		q, err := s.req.Queries[item].ToQuery()
		if err != nil {
			return err
		}
		rows, err := q.Where.QuerySet(d)
		if err != nil {
			return err
		}
		n := len(rows)
		if n < minSetSize || n > d.Rows()-minSetSize {
			if !got.Denied {
				v.fail(i, true, "request %d/%d: %s has %d rows and must be denied, got %v", s.client, s.seq, q, n, got.Value)
			}
			continue
		}
		want, err := q.Evaluate(d)
		if err != nil {
			return err
		}
		if got.Denied || math.Float64bits(got.Value) != math.Float64bits(want) {
			v.fail(i, true, "request %d/%d: %s = %v by scan, served %v (denied %v)", s.client, s.seq, q, want, got.Value, got.Denied)
		}
	}
	return nil
}

// dpOracle checks the dp workload:
//   - every (principal, query) pair re-releases the identical value bits;
//   - a principal's epsilon_remaining never rises: an answer received
//     before another request was sent bounds that request's remainder;
//   - each released value equals, bit for bit, the one an in-process
//     server with the same seed, ε and data releases for the pair.
func dpOracle(samples []sample, st *store.Store, w *Workload, v *verdict) error {
	ref, err := sdcquery.NewServerFromStore(st, sdcquery.Config{
		Protection: sdcquery.DifferentialPrivacy, Seed: serveNoiseSeed,
		Epsilon: w.Epsilon, EpsilonBudget: math.MaxFloat64, AnswerCacheCap: -1,
	})
	if err != nil {
		return err
	}
	type release struct {
		start, end float64
		rem        float64
		i          int
	}
	byPrincipal := map[string][]release{}
	refValue := map[string]sdcquery.Answer{}
	for i := range samples {
		s := &samples[i]
		if v.bad[i] {
			continue
		}
		var a sdcquery.AnswerJSON
		if err := json.Unmarshal(s.body, &a); err != nil {
			v.fail(i, true, "request %d/%d: undecodable answer", s.client, s.seq)
			continue
		}
		key := s.req.Principal + "\x00" + string(s.req.Body())
		want, seen := refValue[key]
		if !seen {
			q, err := s.req.Queries[0].ToQuery()
			if err != nil {
				return err
			}
			if want, err = ref.AskAs(s.req.Principal, q); err != nil {
				return fmt.Errorf("reference %s: %w", q, err)
			}
			refValue[key] = want
		}
		switch {
		case a.Denied != want.Denied || math.Float64bits(a.Value) != math.Float64bits(want.Value):
			v.fail(i, true, "request %d/%d (%s): released %v, reference %v", s.client, s.seq, s.req.Principal, a.Value, want.Value)
			continue
		case a.Denied:
			continue
		case a.Epsilon == nil || a.EpsilonRemaining == nil || *a.Epsilon != w.Epsilon:
			v.fail(i, true, "request %d/%d: missing or wrong ε fields", s.client, s.seq)
			continue
		}
		byPrincipal[s.req.Principal] = append(byPrincipal[s.req.Principal], release{
			start: s.start.Seconds(), end: s.end.Seconds(), rem: *a.EpsilonRemaining, i: i,
		})
	}
	for p, rs := range byPrincipal {
		byEnd := append([]release(nil), rs...)
		sort.Slice(byEnd, func(a, b int) bool { return byEnd[a].end < byEnd[b].end })
		prefixMin := make([]float64, len(byEnd))
		for k, r := range byEnd {
			prefixMin[k] = r.rem
			if k > 0 && prefixMin[k-1] < r.rem {
				prefixMin[k] = prefixMin[k-1]
			}
		}
		for _, r := range rs {
			done := sort.Search(len(byEnd), func(k int) bool { return byEnd[k].end >= r.start })
			if done > 0 && r.rem > prefixMin[done-1] {
				s := &samples[r.i]
				v.fail(r.i, true, "request %d/%d: %s epsilon_remaining rose from %v to %v", s.client, s.seq, p, prefixMin[done-1], r.rem)
			}
		}
	}
	return nil
}

// dpChargeRatio is ε debited over ε × distinct released (principal, query)
// pairs for the workload's analysts. 1 means every pair was charged once;
// above 1, some identical re-release was charged again.
func dpChargeRatio(samples []sample, bad []bool, after map[string]float64, w *Workload) float64 {
	pairs := map[string]bool{}
	for i := range samples {
		s := &samples[i]
		if bad[i] || bytes.Contains(s.body, []byte(`"denied":true`)) {
			continue
		}
		pairs[s.req.Principal+"\x00"+string(s.req.Body())] = true
	}
	var debited float64
	for p := 0; p < w.Principals; p++ {
		rem, ok := after[fmt.Sprintf(`dp_epsilon_remaining{principal="analyst-%d"}`, p)]
		if ok {
			debited += w.Budget - rem
		}
	}
	if len(pairs) == 0 {
		return 0
	}
	return debited / (w.Epsilon * float64(len(pairs)))
}
