package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"privacy3d/internal/stats"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 resting on fewer than ten slower samples is one outlier's value.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule, and an error unless at least minTail samples lie
// strictly beyond its rank — so p99 needs at least 1000 samples.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, want at least %d", 100*q, n, beyond, minTail)
	}
	return sorted[rank-1], nil
}

// maxSlices bounds how many slices the timed window is cut into.
const maxSlices = 10

// timedReq is one timed request as the window figures see it.
type timedReq struct {
	start, end time.Duration
	queries    int
}

// tickSample is a reading of the machine's cumulative busy and stolen CPU
// ticks at an offset from the load's start.
type tickSample struct {
	at          time.Duration
	busy, steal float64
}

// stealShare is the share of CPU time the hypervisor stole between a and
// b, from cumulative tick samples in time order (interpolated between
// samples, clamped to the first and last).
func stealShare(ticks []tickSample, a, b time.Duration) float64 {
	at := func(t time.Duration) (busy, steal float64) {
		i := sort.Search(len(ticks), func(i int) bool { return ticks[i].at >= t })
		switch {
		case i == 0:
			return ticks[0].busy, ticks[0].steal
		case i == len(ticks):
			return ticks[i-1].busy, ticks[i-1].steal
		}
		p, q := ticks[i-1], ticks[i]
		f := float64(t-p.at) / float64(q.at-p.at)
		return p.busy + f*(q.busy-p.busy), p.steal + f*(q.steal-p.steal)
	}
	if len(ticks) == 0 {
		return 0
	}
	b0, s0 := at(a)
	b1, s1 := at(b)
	if total := (b1 - b0) + (s1 - s0); total > 0 {
		return (s1 - s0) / total
	}
	return 0
}

// stealBand is how much more of the CPU the hypervisor may steal during a
// slice than during the window's least-stolen slice for the slice to count
// in the window figures.
const stealBand = 0.02

// sliceFigures are one slice's throughput in queries/s, p50 and p99
// latency in ms, the share of CPU the hypervisor stole during it, and
// whether it counts in the window figures.
type sliceFigures struct {
	steal, qps, p50, p99 float64
	kept                 bool
}

// windowFigures cuts the timed requests, in send order, into equal slices
// of at least minSamples requests (at most maxSlices of them), drops the
// slices in which the hypervisor stole more than stealBand of the CPU
// beyond what it stole in the least-stolen slice, and returns, as the
// median over the kept slices, the slices' throughput in queries/s and
// their p50 and p99 latency in ms, with every slice's own figures.
//
// On a shared virtual machine the hypervisor now and then takes a CPU
// away for milliseconds at a time. A request caught by that waits it out,
// so stolen time — not the program — sets p99 and throughput whenever it
// exceeds about one percent, and it comes in bursts of a second or two.
// The program cannot cause it: it is the host's other tenants. The band
// is fixed, not a share of the slices, so on a quiet host — or one that
// steals evenly — every slice of the window counts, and a slowdown that
// builds up during a run shows in the figures. When the host steals
// through the whole window, the band keeps its quietest stretch.
func windowFigures(reqs []timedReq, ticks []tickSample) (qps, p50, p99 float64, per []sliceFigures, err error) {
	sort.Slice(reqs, func(a, b int) bool { return reqs[a].start < reqs[b].start })
	n := len(reqs)
	slices := max(1, min(maxSlices, n/minSamples))
	per = make([]sliceFigures, slices)
	least := math.Inf(1)
	for k := range per {
		part := reqs[k*n/slices : (k+1)*n/slices]
		var lastEnd time.Duration
		lat := make([]float64, len(part))
		queries := 0
		for i, r := range part {
			lat[i] = float64(r.end-r.start) / 1e6
			queries += r.queries
			lastEnd = max(lastEnd, r.end)
		}
		// A slice lasts until the next one starts sending; the last one
		// until its final answer.
		until := lastEnd
		if k+1 < slices {
			until = reqs[(k+1)*n/slices].start
		}
		sort.Float64s(lat)
		hi, err := percentile(lat, 0.99)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		mid, _ := percentile(lat, 0.5)
		f := &per[k]
		f.steal = stealShare(ticks, part[0].start, until)
		f.qps = float64(queries) / (until - part[0].start).Seconds()
		f.p50, f.p99 = mid, hi
		least = min(least, f.steal)
	}
	var qs, p50s, p99s []float64
	for k := range per {
		f := &per[k]
		if f.kept = f.steal <= least+stealBand; f.kept {
			qs, p50s, p99s = append(qs, f.qps), append(p50s, f.p50), append(p99s, f.p99)
		}
	}
	return stats.Median(qs), stats.Median(p50s), stats.Median(p99s), per, nil
}
