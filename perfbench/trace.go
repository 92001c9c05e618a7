package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"privacy3d/internal/dataset"
	"privacy3d/internal/dp"
	"privacy3d/internal/obs"
	"privacy3d/internal/sdcquery"
	"privacy3d/internal/store"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds from the trace's start; Parent is -1 for a request's root.
type span struct {
	ID, Parent int
	Req        int
	Name       string
	Start, End int64
}

// Span names: one per layer boundary the replay times.
const (
	spanObs       = "obs.chain"
	spanHTTP      = "sdcquery.http"
	spanServer    = "sdcquery.server"
	spanEval      = "store.eval"
	spanEvalBatch = "store.evalbatch"
	spanSum       = "store.sum"
	spanCharge    = "dp.charge"
	spanNoise     = "dp.noise"
)

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the length of the union of its children's intervals. The
// union is not clipped to the parent: in the replay, children measured on
// their own instance are laid end to end from the parent's start, and
// clipping an overrunning child would bias the parent's self time upward
// instead of letting per-request noise average out.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - unionLen(children[s.ID])
	}
	return out
}

// unionLen is the total length covered by the spans' intervals.
func unionLen(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(a, b int) bool { return iv[a].Start < iv[b].Start })
	var total int64
	lo, hi := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
			continue
		}
		if s.End > hi {
			hi = s.End
		}
	}
	return total + hi - lo
}

// tracer keeps spans in memory; they are written out once the replay ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(req, parent int, name string, start, end int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// laid records a child measured on its own instance, laid at *at within
// its parent, and advances *at past it.
func (t *tracer) laid(req, parent int, name string, dur int64, at *int64) {
	t.add(req, parent, name, *at, *at+dur)
	*at += dur
}

// writeSpans writes the spans as CSV: req,id,parent,name,start_ns,end_ns.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "req,id,parent,name,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d\n", s.Req, s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// instances builds the identically configured, independent copies of the
// server the nesting levels run on.
type instances struct {
	w      *Workload
	shared *store.Store // in-memory workloads: read-only, shared by every level
	// durable workloads: each level opens its own copy of the committed
	// data directory, because store.Open takes a flock.
	dataDir, runDir string
	memCap          int64
	copies          int
	opens           []float64 // seconds each store.Open took
	closers         []*store.Store
	logFile         *os.File
}

func (in *instances) store() (*store.Store, error) {
	if !in.w.Durable {
		return in.shared, nil
	}
	in.copies++
	dst := filepath.Join(in.runDir, fmt.Sprintf("trace-data-%d", in.copies))
	if err := copyDir(in.dataDir, dst); err != nil {
		return nil, err
	}
	t := time.Now()
	st, err := store.Open(dst, store.Options{MemCap: in.memCap})
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dst, err)
	}
	in.opens = append(in.opens, time.Since(t).Seconds())
	in.closers = append(in.closers, st)
	return st, nil
}

// serverConfig mirrors the flags the benchmark starts `privacy3d serve`
// with for the workload.
func serverConfig(w *Workload) sdcquery.Config {
	cfg := sdcquery.Config{MinSetSize: minSetSize, Seed: serveNoiseSeed, SegmentSize: w.SegmentSize}
	switch w.Protect {
	case "dp":
		cfg.Protection = sdcquery.DifferentialPrivacy
		cfg.Epsilon, cfg.EpsilonBudget = w.Epsilon, w.Budget
	default:
		cfg.Protection = sdcquery.SizeRestriction
	}
	return cfg
}

func (in *instances) server() (*sdcquery.Server, error) {
	st, err := in.store()
	if err != nil {
		return nil, err
	}
	return sdcquery.NewServerFromStore(st, serverConfig(in.w))
}

// chain wraps srv exactly as `privacy3d serve` does: NewHandler with the
// admission settings, inside Logging, Instrument, Recover and Timeout. The
// access log goes to a file, as the benchmark's server's does.
func (in *instances) chain(srv *sdcquery.Server) http.Handler {
	reg := obs.NewRegistry()
	obs.RegisterParallelism(reg)
	obs.RegisterStoreTiers(reg)
	logger := log.New(in.logFile, "", log.LstdFlags)
	return obs.Chain(sdcquery.NewHandler(srv, sdcquery.HandlerConfig{
		Registry: reg, RateLimit: in.w.RateLimit, RateBurst: int(in.w.RateLimit),
	}),
		obs.Logging(logger),
		obs.Instrument(reg, "/query", "/sql", "/protect", "/log", "/metrics"),
		obs.Recover(reg, logger),
		obs.Timeout(10*time.Second),
	)
}

func (in *instances) close() {
	for _, st := range in.closers {
		st.Close()
	}
	in.logFile.Close()
}

// traceResult is what the traced replay measured.
type traceResult struct {
	requests int
	self     map[string]int64 // summed self time per span name, ns
	evals    int              // Eval and EvalBatch calls
	segEvals int64            // segments those calls visited
	traced   time.Duration    // summed root-span time of the traced chain
	untraced time.Duration    // the same requests through an untraced twin chain
	opens    []float64        // store.Open seconds per level instance (durable only)
	mismatch int              // requests whose levels disagreed on the answer bytes
}

// replayTrace is the traced run: a single client replays client 0's
// request stream in process, each nesting level on its own identically
// configured instance fed the same sequence, so their caches and ledgers
// agree at every request:
//
//  1. the obs chain around NewHandler, as serve builds it;
//  2. a bare NewHandler (no admission: that belongs to the obs layer);
//  3. Server.AskAs / AskBatch;
//  4. read-only Snapshot.Eval / EvalBatch / Sum for the answers that
//     missed level 3's cache;
//  5. dp.Ledger.Charge and dp.Noise on a private ledger for dp misses.
//
// It stops after budget. The same requests then run through a fifth,
// untraced copy of level 1, timed only as a whole, for the overhead ratio.
func replayTrace(in *instances, seed uint64, budget time.Duration, tr *tracer) (*traceResult, error) {
	w := in.w
	srv1, err := in.server()
	if err != nil {
		return nil, err
	}
	srv2, err := in.server()
	if err != nil {
		return nil, err
	}
	srv3, err := in.server()
	if err != nil {
		return nil, err
	}
	st4, err := in.store()
	if err != nil {
		return nil, err
	}
	l1 := in.chain(srv1)
	l2 := sdcquery.NewHandler(srv2, sdcquery.HandlerConfig{Registry: obs.NewRegistry()})
	snap := st4.Snapshot()
	cfg := serverConfig(w)
	var ledger *dp.Ledger
	bounds := map[string]dp.Bounds{}
	if w.DP() {
		if ledger, err = dp.NewLedger(w.Budget); err != nil {
			return nil, err
		}
		for j, a := range snap.Attrs() {
			if a.Kind == dataset.Numeric {
				lo, hi := snap.NumRange(j)
				bounds[a.Name] = dp.Bounds{Lo: lo, Hi: hi}
			}
		}
	}
	res := &traceResult{}
	seen := map[string]bool{} // batch replay: queries already answered once
	stream := NewStream(w, seed, 0)
	var reqs []Request
	deadline := time.Now().Add(budget)
	for r := 0; time.Now().Before(deadline); r++ {
		req := stream.Next()
		reqs = append(reqs, req)
		body := req.Body()
		qs := make([]sdcquery.Query, len(req.Queries))
		for k, qj := range req.Queries {
			if qs[k], err = qj.ToQuery(); err != nil {
				return nil, err
			}
		}
		// Level 1: the serving chain.
		rec1 := httptest.NewRecorder()
		hr := httpRequest(req, body)
		t0 := tr.now()
		l1.ServeHTTP(rec1, hr)
		t1 := tr.now()
		root := tr.add(r, -1, spanObs, t0, t1)
		res.traced += time.Duration(t1 - t0)
		// Level 2: the bare handler.
		rec2 := httptest.NewRecorder()
		hr = httpRequest(req, body)
		s := time.Now()
		l2.ServeHTTP(rec2, hr)
		d2 := int64(time.Since(s))
		if rec1.Code != http.StatusOK || rec2.Code != rec1.Code || !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
			res.mismatch++
		}
		hid := tr.add(r, root, spanHTTP, t0, t0+d2)
		// Level 3: the server.
		_, misses0, _, _ := srv3.CacheStats()
		s = time.Now()
		if req.Batch {
			srv3.AskBatch(req.Principal, qs)
		} else {
			srv3.AskAs(req.Principal, qs[0])
		}
		d3 := int64(time.Since(s))
		_, misses1, _, _ := srv3.CacheStats()
		sid := tr.add(r, hid, spanServer, t0, t0+d3)
		// Levels 4 and 5: what the server ran for its cache misses.
		var missed []sdcquery.Query
		if req.Batch {
			for _, q := range qs {
				if k := q.String(); !seen[k] {
					seen[k] = true
					missed = append(missed, q)
				}
			}
		} else if misses1 > misses0 {
			missed = qs
		}
		if len(missed) == 0 {
			continue
		}
		at := t0
		segs0 := st4.SegmentEvals()
		bms := make([]*store.Bitmap, len(missed))
		if req.Batch {
			batch := make([][]store.Cond, len(missed))
			for k, q := range missed {
				batch[k] = storeConds(q)
			}
			s = time.Now()
			out, err := snap.EvalBatch(batch)
			if err != nil {
				return nil, err
			}
			tr.laid(r, sid, spanEvalBatch, int64(time.Since(s)), &at)
			copy(bms, out)
		} else {
			s = time.Now()
			bm, err := snap.Eval(storeConds(missed[0]))
			if err != nil {
				return nil, err
			}
			tr.laid(r, sid, spanEval, int64(time.Since(s)), &at)
			bms[0] = bm
		}
		res.evals++
		res.segEvals += st4.SegmentEvals() - segs0
		for k, q := range missed {
			n := bms[k].Count()
			sum := q.Agg != sdcquery.Count
			if w.DP() {
				sum = sum && !(q.Agg == sdcquery.Avg && n == 0)
			} else {
				sum = sum && n >= minSetSize && n <= snap.Rows()-minSetSize
			}
			if sum {
				col := snap.Index(q.Attr)
				s = time.Now()
				snap.Sum(bms[k], col)
				tr.laid(r, sid, spanSum, int64(time.Since(s)), &at)
			}
			if !w.DP() || (q.Agg == sdcquery.Avg && n == 0) {
				continue
			}
			sens, err := dp.Sensitivity(dpAggregate(q.Agg), bounds[q.Attr], n)
			if err != nil {
				return nil, err
			}
			s = time.Now()
			if _, err := ledger.Charge(req.Principal, "served", cfg.Epsilon); err != nil {
				return nil, err
			}
			tr.laid(r, sid, spanCharge, int64(time.Since(s)), &at)
			key := strconv.FormatUint(snap.Version(), 10) + "\x00" + req.Principal + "\x00" + q.String()
			s = time.Now()
			if _, err := dp.Noise(cfg.Seed, key, dp.NoiseParams{Mechanism: dp.Laplace, Sensitivity: sens, Epsilon: cfg.Epsilon}); err != nil {
				return nil, err
			}
			tr.laid(r, sid, spanNoise, int64(time.Since(s)), &at)
		}
	}
	res.requests = len(reqs)
	// The untraced twin of level 1, over the same requests.
	srv0, err := in.server()
	if err != nil {
		return nil, err
	}
	l0 := in.chain(srv0)
	hrs := make([]*http.Request, len(reqs))
	for i, req := range reqs {
		hrs[i] = httpRequest(req, req.Body())
	}
	s := time.Now()
	for _, hr := range hrs {
		l0.ServeHTTP(discardRecorder{}, hr)
	}
	res.untraced = time.Since(s)
	res.self = selfTimes(tr.spans)
	res.opens = in.opens
	return res, nil
}

// dpAggregate maps a query aggregate to the dp sensitivity rule the
// server applies to it.
func dpAggregate(a sdcquery.Agg) dp.Aggregate {
	switch a {
	case sdcquery.Sum:
		return dp.Sum
	case sdcquery.Avg:
		return dp.Mean
	default:
		return dp.Count
	}
}

// httpRequest builds the in-process twin of what the load generator sends.
func httpRequest(r Request, body []byte) *http.Request {
	hr := httptest.NewRequest(http.MethodPost, r.Path(), bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	if r.Principal != "" {
		hr.Header.Set("X-Privacy3D-Principal", r.Principal)
	}
	return hr
}

// discardRecorder is a ResponseWriter that keeps nothing, so the untraced
// twin pays for no recording the traced chain does not also pay for.
type discardRecorder struct{}

func (discardRecorder) Header() http.Header         { return http.Header{} }
func (discardRecorder) Write(p []byte) (int, error) { return len(p), nil }
func (discardRecorder) WriteHeader(int)             {}

// storeConds lowers a well-formed query's predicate to store conditions,
// as the server does once Predicate.Compile has accepted it.
func storeConds(q sdcquery.Query) []store.Cond {
	conds := make([]store.Cond, len(q.Where))
	for i, c := range q.Where {
		conds[i] = store.Cond{Col: c.Col, Op: store.Op(c.Op), V: c.V, S: c.S, Str: c.IsString()}
	}
	return conds
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
