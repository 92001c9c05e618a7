// Command perfbench is the end-to-end benchmark of the statistical query
// server. It drives the real `privacy3d serve` binary over loopback HTTP
// with a closed-loop load generator, checks every answer against an
// in-process oracle, and, with --trace 1, replays the workload in process
// with one span per layer boundary to split its latency by layer.
//
//	bash perfbench/run.sh --workload miss-1m --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics — the end-to-end group with --trace 0, the
// per-layer group with --trace 1. The lines before it print the
// environment and every metric of both groups by name and unit. NOTES.md
// explains the workloads, the load model and what each metric means.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"privacy3d/internal/stats"
	"privacy3d/internal/store"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the server sees, the same on every
// workload.
var endToEnd = []metricDef{
	{"qps", "queries/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the per-layer metrics: the first group from /metrics and
// /proc during the untraced run, the second from the traced replay. A
// metric of a layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"sdcquery.cache_hit_ratio", "ratio"},
	{"dp.charge_ratio", "ratio"},
	{"store.pager_misses_per_query", "misses/query"},
	{"store.pager_evictions_per_query", "evictions/query"},
	{"store.pager_miss_ratio", "ratio"},
	{"store.segments_spilled", "count"},
	{"store.scratch_hit_ratio", "ratio"},
	{"sdcquery.server_time_share", "ratio"},
	{"server.cpu_ms_per_query", "ms"},
	{"client.cpu_ms_per_query", "ms"},
	{"obs.self_us", "us"},
	{"sdcquery.http_self_us", "us"},
	{"sdcquery.server_self_us", "us"},
	{"store.eval_us", "us"},
	{"store.sum_us", "us"},
	{"store.segments_per_eval", "count"},
	{"store.evalbatch_us", "us"},
	{"store.recover_s", "s"},
	{"dp.charge_us", "us"},
	{"dp.noise_us", "us"},
	{"trace.unexplained_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// warmup runs before the timed window so caches fill and lazy set-up ends.
const warmup = time.Second

// outDir holds everything a run writes, relative to the checkout root the
// benchmark runs from: run directories, which are removed at the end of
// each run, and the spans of traced runs.
const outDir = ".bench_build"

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	clients  int
	server   string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: miss-1m, dp-mix, tiered-batch, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated data and request streams")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced in-process replay and reports the per-layer metrics")
	flag.IntVar(&o.clients, "clients", runtime.NumCPU(), "closed-loop clients; at most the number of CPUs")
	flag.StringVar(&o.server, "server", "", "privacy3d binary built from the checkout")
	flag.Parse()
	o.trace = trace == 1
	if err := o.check(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		w, _ := lookupWorkload(name)
		if err := runWorkload(context.Background(), o, w); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func (o *options) check() error {
	if o.workload != "all" {
		if _, err := lookupWorkload(o.workload); err != nil {
			return err
		}
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if o.clients < 1 || o.clients > runtime.NumCPU() {
		return fmt.Errorf("--clients %d: want 1 to %d (the CPUs this process may use); more clients than CPUs measure the generator's scheduling, not the server", o.clients, runtime.NumCPU())
	}
	if o.server == "" {
		return errors.New("--server: path to the privacy3d binary is required")
	}
	return nil
}

// env is the environment every result records.
type env struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
	Rows       int    `json:"rows"`
	MemCap     int64  `json:"memcap_bytes,omitempty"`
	Samples    int    `json:"latency_samples"`
	Slices     int    `json:"window_slices"`
	// KeptSlices is how many slices the hypervisor stole little enough
	// CPU from to count in qps, p50_ms and p99_ms.
	KeptSlices int `json:"kept_slices"`
	// StealShare is the share of busy CPU time the hypervisor took away
	// during the timed window; a high one explains a slow run.
	StealShare float64 `json:"steal_share"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(ctx context.Context, o options, w *Workload) error {
	runDir, err := filepath.Abs(filepath.Join(outDir, "runs", fmt.Sprintf("%s-seed%d-%d", w.Name, o.seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.RemoveAll(runDir); err != nil {
		return err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	d, err := synthData(w, o.seed)
	if err != nil {
		return err
	}
	csvPath := filepath.Join(runDir, "data.csv")
	if err := writeCSV(csvPath, d); err != nil {
		return err
	}
	e := env{
		Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commitOf("."), Clients: o.clients, Rows: w.Rows,
	}
	// An in-process store of the same rows backs the oracle's reference
	// server and the traced replay. The durable workload needs it first:
	// its decoded footprint sets the server's memory cap. The others build
	// it after the load, so the generator stays small while it measures.
	var st *store.Store
	if w.Durable {
		if st, err = store.FromDatasetSharded(d, w.SegmentSize, 0); err != nil {
			return err
		}
		e.MemCap = int64(float64(st.TierStats().ResidentBytes) * w.MemCapShare)
	}

	srv, setupSecs, dataDir, err := setUp(w, o, runDir, csvPath, e.MemCap)
	if err != nil {
		return err
	}
	load, err := runLoad(ctx, srv, w, o.seed, o.clients, warmup, time.Duration(o.seconds)*time.Second)
	if err != nil {
		srv.stop(10 * time.Second)
		return err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		srv.stop(10 * time.Second)
		return err
	}
	if err := srv.stop(30 * time.Second); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}

	if st == nil {
		if st, err = store.FromDatasetSharded(d, w.SegmentSize, 0); err != nil {
			return err
		}
	}
	v := &verdict{bad: make([]bool, len(load.samples))}
	transportCheck(load.samples, v)
	if w.DP() {
		err = dpOracle(load.samples, st, w, v)
	} else {
		err = sizeOracle(load.samples, st, d, o.seed, runtime.NumCPU(), v)
	}
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	for _, n := range v.notes {
		fmt.Fprintln(os.Stderr, "perfbench: oracle:", n)
	}

	// End-to-end figures over the timed window.
	var reqs []timedReq
	var queries, attempted, failed int
	var latSum float64
	for i := range load.samples {
		s := &load.samples[i]
		if !load.timed(s) {
			continue
		}
		attempted++
		if v.bad[i] {
			// A failed request answered nothing: it counts in fail_ratio
			// only, never in throughput or latency.
			failed++
			continue
		}
		queries += len(s.req.Queries)
		latSum += (s.end - s.start).Seconds()
		reqs = append(reqs, timedReq{start: s.start, end: s.end, queries: len(s.req.Queries)})
	}
	if len(reqs) == 0 {
		return errors.New("no request was answered in the timed window")
	}
	qps, p50, p99, slices, err := windowFigures(reqs, load.ticks)
	if err != nil {
		return fmt.Errorf("p99_ms: %w", err)
	}
	e.Samples, e.Slices, e.StealShare = len(reqs), len(slices), load.stealShare
	for _, f := range slices {
		if f.kept {
			e.KeptSlices++
		}
	}
	e2e := map[string]float64{
		"qps":         qps,
		"p50_ms":      p50,
		"p99_ms":      p99,
		"setup_s":     stats.Median(setupSecs),
		"peak_rss_mb": rss,
	}
	layer := layerFromMetrics(load, queries, latSum, v, w)

	// Every workload is built so that no request fails: a failure, like
	// a wrong answer, makes the run incorrect.
	correct := v.mismatch == 0 && failed == 0
	if o.trace {
		tm, ok, err := traceLayers(w, o, runDir, dataDir, e.MemCap, st, latSum/float64(len(reqs)))
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		correct = correct && ok
		for k, val := range tm {
			layer[k] = val
		}
	}

	envJSON, _ := json.Marshal(e)
	fmt.Printf("perfbench env %s\n", envJSON)
	fmt.Printf("perfbench %s setups_s %v\n", w.Name, setupSecs)
	for k, f := range slices {
		fmt.Printf("perfbench %s slice %d steal %.4f kept %v qps %.6g p50_ms %.6g p99_ms %.6g\n", w.Name, k, f.steal, f.kept, f.qps, f.p50, f.p99)
	}
	fmt.Printf("perfbench %s fail_ratio %.6g (%d failed of %d attempted; oracle mismatches %d)\n",
		w.Name, float64(failed)/float64(attempted), failed, attempted, v.mismatch)
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		fmt.Printf("perfbench %s end_to_end %s %.6g %s\n", w.Name, m.name, e2e[m.name], m.unit)
		if !o.trace {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	}
	for _, m := range perLayer {
		val, ok := layer[m.name]
		if !ok {
			continue // traced metrics without --trace 1
		}
		fmt.Printf("perfbench %s per_layer %s %.6g %s\n", w.Name, m.name, val, m.unit)
		if o.trace {
			res.Metrics[m.name] = metricValue{val, m.unit}
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setUp starts the server w.Setups times from a fresh data directory each
// time and returns the last one running, every set-up's seconds and the
// durable data directory the last one serves from. A set-up is timed from
// process launch to the first answered query; the durable workload's
// covers creating the store from the CSV, a graceful close and a cold
// recovery open.
func setUp(w *Workload, o options, runDir, csvPath string, memCap int64) (*serverProc, []float64, string, error) {
	common := []string{"-protect", w.Protect, "-seed", fmt.Sprint(serveNoiseSeed), "-minsize", fmt.Sprint(minSetSize)}
	if w.SegmentSize > 0 {
		common = append(common, "-segment", fmt.Sprint(w.SegmentSize))
	}
	if w.DP() {
		common = append(common, "-epsilon", fmt.Sprint(w.Epsilon), "-budget", fmt.Sprint(w.Budget),
			"-ratelimit", fmt.Sprint(w.RateLimit), "-burst", fmt.Sprint(int(w.RateLimit)))
	}
	probe := ""
	if w.DP() {
		probe = probePrincipal
	}
	load := []string{"-in", csvPath, "-schema", trialSchema}
	var secs []float64
	var srv *serverProc
	var dataDir string
	for k := 0; k < w.Setups; k++ {
		if srv != nil {
			if err := srv.stop(30 * time.Second); err != nil {
				return nil, nil, "", fmt.Errorf("stop set-up %d: %w", k-1, err)
			}
			if dataDir != "" {
				os.RemoveAll(dataDir)
			}
		}
		logPath := filepath.Join(runDir, fmt.Sprintf("server-%d.log", k))
		t0 := time.Now()
		var args []string
		if w.Durable {
			dataDir = filepath.Join(runDir, fmt.Sprintf("data-%d", k))
			durable := []string{"-datadir", dataDir, "-memcap", fmt.Sprint(memCap)}
			create, err := startServer(o.server, concat(common, load, durable), logPath)
			if err != nil {
				return nil, nil, "", err
			}
			if err := create.waitReady(probe, 5*time.Minute); err != nil {
				create.stop(10 * time.Second)
				return nil, nil, "", err
			}
			if err := create.stop(30 * time.Second); err != nil {
				return nil, nil, "", fmt.Errorf("graceful close after create: %w", err)
			}
			args = concat(common, durable)
		} else {
			args = concat(common, load)
		}
		var err error
		if srv, err = startServer(o.server, args, logPath); err != nil {
			return nil, nil, "", err
		}
		if err := srv.waitReady(probe, 5*time.Minute); err != nil {
			srv.stop(10 * time.Second)
			return nil, nil, "", err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return srv, secs, dataDir, nil
}

func concat(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// layerFromMetrics derives the per-layer metrics that cost no tracing:
// /metrics deltas across the timed window, /proc and getrusage CPU, and
// the dp charge accounting.
func layerFromMetrics(l *loadResult, queries int, latSum float64, v *verdict, w *Workload) map[string]float64 {
	delta := func(name string) float64 { return l.after[name] - l.before[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits, misses := delta("sdcquery_cache_hits"), delta("sdcquery_cache_misses")
	pHits, pMisses := delta("store_pager_hits"), delta("store_pager_misses")
	serverSecs := delta(`http_request_seconds_sum{endpoint="/query"}`) + delta(`http_request_seconds_sum{endpoint="other"}`)
	q := float64(queries)
	m := map[string]float64{
		"sdcquery.cache_hit_ratio":        ratio(hits, hits+misses),
		"store.pager_misses_per_query":    pMisses / q,
		"store.pager_evictions_per_query": delta("store_pager_evictions") / q,
		"store.pager_miss_ratio":          ratio(pMisses, pHits+pMisses),
		"store.segments_spilled":          l.after["store_segments_spilled"],
		"store.scratch_hit_ratio":         l.after["store_scratch_hit_rate"],
		"sdcquery.server_time_share":      ratio(serverSecs, latSum),
		"server.cpu_ms_per_query":         l.serverCPU * 1e3 / q,
		"client.cpu_ms_per_query":         l.clientCPU * 1e3 / q,
		"dp.charge_ratio":                 0,
	}
	if w.DP() {
		m["dp.charge_ratio"] = dpChargeRatio(l.samples, v.bad, l.after, w)
	}
	return m
}

// traceLayers runs the traced replay and turns its spans into the traced
// per-layer metrics. meanLatency is the untraced run's mean client-side
// latency in seconds. ok is false when the levels disagreed on an answer.
func traceLayers(w *Workload, o options, runDir, dataDir string, memCap int64, st *store.Store, meanLatency float64) (map[string]float64, bool, error) {
	logFile, err := os.Create(filepath.Join(runDir, "trace-access.log"))
	if err != nil {
		return nil, false, err
	}
	in := &instances{w: w, shared: st, dataDir: dataDir, runDir: runDir, memCap: memCap, logFile: logFile}
	defer in.close()
	tr := &tracer{t0: time.Now()}
	budget := time.Duration(o.seconds) * time.Second / 2
	res, err := replayTrace(in, o.seed, budget, tr)
	if err != nil {
		return nil, false, err
	}
	traceDir := filepath.Join(outDir, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, false, err
	}
	if err := tr.writeSpans(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.csv", w.Name, o.seed))); err != nil {
		return nil, false, err
	}
	n := float64(res.requests)
	us := func(name string) float64 { return float64(res.self[name]) / n / 1e3 }
	m := map[string]float64{
		"obs.self_us":             us(spanObs),
		"sdcquery.http_self_us":   us(spanHTTP),
		"sdcquery.server_self_us": us(spanServer),
		"store.eval_us":           us(spanEval),
		"store.sum_us":            us(spanSum),
		"store.evalbatch_us":      us(spanEvalBatch),
		"dp.charge_us":            us(spanCharge),
		"dp.noise_us":             us(spanNoise),
		"store.segments_per_eval": 0,
		"store.recover_s":         0,
		"trace.overhead_ratio":    float64(res.traced) / float64(res.untraced),
	}
	if res.evals > 0 {
		m["store.segments_per_eval"] = float64(res.segEvals) / float64(res.evals)
	}
	if len(res.opens) > 0 {
		m["store.recover_s"] = stats.Median(res.opens)
	}
	var explained float64
	for _, ns := range res.self {
		explained += float64(ns)
	}
	m["trace.unexplained_us"] = meanLatency*1e6 - explained/n/1e3
	fmt.Printf("perfbench %s trace replayed %d requests; levels disagreed on %d\n", w.Name, res.requests, res.mismatch)
	return m, res.mismatch == 0, nil
}

// commitOf names the code under test: the git commit when the checkout is
// a repository, else a digest of its Go sources and module file.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("src-sha256:%x", h.Sum(nil)[:8])
}
