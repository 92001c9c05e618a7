package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"

	"privacy3d/internal/dataset"
	"privacy3d/internal/sdcquery"
)

// trialSchema is the -schema string of dataset.Synth("trial", ...): four
// numeric quasi-identifiers, a numeric and a categorical confidential
// attribute.
const trialSchema = "height:qi:num,weight:qi:num,qi3:qi:num,qi4:qi:num,blood_pressure:conf:num,aids:conf:cat"

// Workload is one traffic mix against one server configuration. The sizes
// are fixed here, not flags, so every run of a workload measures the same
// thing; only the seed varies the data and the request stream.
type Workload struct {
	Name string
	Why  string
	Rows int
	// Setups is how many times a run sets the server up; setup_s is their
	// median and the last one serves the load.
	Setups int
	// Protect is the server's -protect mode.
	Protect string
	// SegmentSize is the server's -segment (0 keeps the default).
	SegmentSize int
	// Durable serves from a -datadir under -memcap = MemCapShare of the
	// decoded footprint; set-up then covers create, graceful close and a
	// cold recovery open.
	Durable     bool
	MemCapShare float64
	// BatchMin/BatchMax > 0 send POST /querybatch with that many fresh
	// queries; otherwise every request is one POST /query.
	BatchMin, BatchMax int
	// DP mix: requests spread over Principals; HotShare of them pick one
	// of HotShapes shapes by Zipf(ZipfS), the rest are fresh.
	Principals int
	HotShapes  int
	ZipfS      float64
	HotShare   float64
	Epsilon    float64
	Budget     float64
	RateLimit  float64
}

// DP reports whether the workload serves under differential privacy.
func (w *Workload) DP() bool { return w.Protect == "dp" }

// workloads are the benchmark's traffic mixes, in report order.
var workloads = []*Workload{
	{
		Name: "miss-1m",
		Why:  "1M in-memory rows, fresh selective queries: the store (shard fan-out, zone maps, compile, Sum) does nearly all the work",
		Rows: 1_000_000, Setups: 5, Protect: "size",
	},
	{
		Name: "dp-mix",
		Why:  "100k rows under dp and admission, 8 principals, 90% Zipf-hot repeats: HTTP, obs and cache are the hit path, ledger and noise the miss path",
		Rows: 100_000, Setups: 9, Protect: "dp",
		Principals: 8, HotShapes: 256, ZipfS: 1.1, HotShare: 0.9,
		Epsilon: 0.001, Budget: 1000, RateLimit: 1e6,
	},
	{
		Name: "tiered-batch",
		Why:  "durable store under a quarter-footprint memcap, /querybatch of 8-16 fresh queries: pager, segment decode, EvalBatch and AskBatch do the work",
		Rows: 6_144, Setups: 15, Protect: "size", SegmentSize: 256,
		Durable: true, MemCapShare: 0.25,
		BatchMin: 8, BatchMax: 16,
	},
}

func lookupWorkload(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// synthData generates the workload's rows; the same seed gives the same
// dataset, and writeCSV the same bytes.
func synthData(w *Workload, seed uint64) (*dataset.Dataset, error) {
	return dataset.Synth("trial", w.Rows, seed)
}

func writeCSV(path string, d *dataset.Dataset) error {
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// numCol describes a numeric trial column by the centre and spread of its
// generator, so drawn thresholds land where the rows are.
type numCol struct {
	name     string
	mean, sd float64
}

var numCols = []numCol{
	{"height", 170, 9},
	{"weight", 74, 12},
	{"qi3", 50, 15},
	{"qi4", 50, 15},
	{"blood_pressure", 121, 10},
}

// round2 keeps thresholds at two decimals: fine enough that fresh draws
// practically never repeat, short on the wire.
func round2(v float64) float64 { return math.Round(v*100) / 100 }

// freshQuery draws a selective conjunction of 1-3 constrained columns with
// a COUNT, SUM or AVG aggregate. A numeric column is mostly a band
// [lo, lo+width) of at most half a standard deviation and sometimes a
// one-sided comparison into a tail; the categorical
// column is an aids equality. The first column is always numeric: an aids
// equality alone has only two values, and its shapes would repeat.
func freshQuery(rng *rand.Rand) sdcquery.QueryJSON {
	k := 1 + rng.IntN(3)
	first := rng.IntN(len(numCols))
	cols := []int{first}
	for _, c := range rng.Perm(len(numCols) + 1) {
		if len(cols) < k && c != first {
			cols = append(cols, c)
		}
	}
	var q sdcquery.QueryJSON
	for _, c := range cols {
		if c == len(numCols) {
			s := "N"
			if rng.IntN(2) == 0 {
				s = "Y"
			}
			q.Where = append(q.Where, sdcquery.CondJSON{Col: "aids", Op: "=", S: s})
			continue
		}
		nc := numCols[c]
		if rng.Float64() < 0.7 {
			lo := round2(nc.mean + nc.sd*(4*rng.Float64()-2.5))
			hi := round2(lo + nc.sd*(0.05+0.45*rng.Float64()))
			q.Where = append(q.Where,
				sdcquery.CondJSON{Col: nc.name, Op: ">=", V: lo},
				sdcquery.CondJSON{Col: nc.name, Op: "<", V: hi})
			continue
		}
		// A one-sided comparison cuts into a tail, 1 to 2.5 sd out.
		off := nc.sd * (1 + 1.5*rng.Float64())
		op, v := [...]string{">", ">="}[rng.IntN(2)], nc.mean+off
		if rng.IntN(2) == 0 {
			op, v = [...]string{"<", "<="}[rng.IntN(2)], nc.mean-off
		}
		q.Where = append(q.Where, sdcquery.CondJSON{Col: nc.name, Op: op, V: round2(v)})
	}
	switch rng.IntN(3) {
	case 0:
		q.Agg = "COUNT"
	case 1:
		q.Agg, q.Attr = "SUM", numCols[rng.IntN(len(numCols))].name
	default:
		q.Agg, q.Attr = "AVG", numCols[rng.IntN(len(numCols))].name
	}
	return q
}

// Request is one HTTP request of a stream: a single /query or a
// /querybatch, asked as Principal (empty outside dp).
type Request struct {
	Principal string
	Batch     bool
	Queries   []sdcquery.QueryJSON
}

// Path is the endpoint the request is posted to.
func (r Request) Path() string {
	if r.Batch {
		return "/querybatch"
	}
	return "/query"
}

// Body is the request's JSON wire form.
func (r Request) Body() []byte {
	var v any = r.Queries[0]
	if r.Batch {
		v = sdcquery.BatchRequestJSON{Queries: r.Queries}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and floats always marshal
	}
	return b
}

// Stream is one client's deterministic request sequence: a function of the
// workload, the seed and the client index alone, so a closed-loop run that
// gets further only sends more of the same sequence.
type Stream struct {
	w    *Workload
	rng  *rand.Rand
	hot  []sdcquery.QueryJSON
	zipf *rand.Zipf
}

// hotShapes draws the dp mix's shared hot set from the seed alone, so every
// client repeats the same shapes.
func hotShapes(w *Workload, seed uint64) []sdcquery.QueryJSON {
	rng := rand.New(rand.NewPCG(seed, 0x686f74)) // "hot"
	hot := make([]sdcquery.QueryJSON, w.HotShapes)
	for i := range hot {
		hot[i] = freshQuery(rng)
	}
	return hot
}

// NewStream returns client's request stream for the workload and seed.
func NewStream(w *Workload, seed uint64, client int) *Stream {
	s := &Stream{w: w, rng: rand.New(rand.NewPCG(seed, uint64(client)+1))}
	if w.HotShapes > 0 {
		s.hot = hotShapes(w, seed)
		s.zipf = rand.NewZipf(s.rng, w.ZipfS, 1, uint64(w.HotShapes-1))
	}
	return s
}

// Next returns the stream's next request.
func (s *Stream) Next() Request {
	w := s.w
	var r Request
	if w.Principals > 0 {
		r.Principal = fmt.Sprintf("analyst-%d", s.rng.IntN(w.Principals))
	}
	if w.BatchMax > 0 {
		r.Batch = true
		n := w.BatchMin + s.rng.IntN(w.BatchMax-w.BatchMin+1)
		r.Queries = make([]sdcquery.QueryJSON, n)
		for i := range r.Queries {
			r.Queries[i] = freshQuery(s.rng)
		}
		return r
	}
	if s.hot != nil && s.rng.Float64() < w.HotShare {
		r.Queries = []sdcquery.QueryJSON{s.hot[s.zipf.Uint64()]}
		return r
	}
	r.Queries = []sdcquery.QueryJSON{freshQuery(s.rng)}
	return r
}
