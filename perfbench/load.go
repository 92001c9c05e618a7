package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request of the closed loop: what was sent, when, and what
// came back. Times are offsets from the load's start.
type sample struct {
	client, seq int
	req         Request
	start, end  time.Duration
	status      int
	body        []byte
	err         error
}

// loadResult is everything the closed loop observed.
type loadResult struct {
	samples []sample // every request, warm-up included, in no particular order
	// windowStart is the timed window's opening offset; it lasts until
	// the clients stop.
	windowStart time.Duration
	// before/after are the server's /metrics and CPU at the window's
	// edges, and clientCPU this process's CPU across the window.
	before, after        map[string]float64
	serverCPU, clientCPU float64
	// ticks samples the machine's busy and stolen CPU through the window;
	// stealShare is the stolen share over all of it.
	ticks      []tickSample
	stealShare float64
}

// tickPeriod is how often the window samples /proc/stat: a few samples per
// slice, each spanning dozens of 10 ms ticks.
const tickPeriod = 250 * time.Millisecond

// sampleTicks appends a /proc/stat reading to *out now and every
// tickPeriod until stop is closed, and once more then.
func sampleTicks(start time.Time, out *[]tickSample, stop <-chan struct{}) error {
	t := time.NewTicker(tickPeriod)
	defer t.Stop()
	for {
		busy, steal, err := cpuTicks()
		if err != nil {
			return err
		}
		*out = append(*out, tickSample{at: time.Since(start), busy: busy, steal: steal})
		select {
		case <-stop:
			busy, steal, err := cpuTicks()
			if err != nil {
				return err
			}
			*out = append(*out, tickSample{at: time.Since(start), busy: busy, steal: steal})
			return nil
		case <-t.C:
		}
	}
}

// timed reports whether s was sent inside the timed window; every timed
// request counts as attempted and its latency is a sample.
func (l *loadResult) timed(s *sample) bool { return s.start >= l.windowStart }

// minSamples is the fewest timed requests a run may end with: p99 needs
// minTail samples beyond it. A window that falls short is extended, up to
// maxStretch times its length, so a slower program still gets a p99
// instead of a failed run.
const (
	minSamples = 100 * minTail
	maxStretch = 3
)

// runLoad drives the server with a closed loop: clients goroutines, each
// on its own keep-alive connection, each sending its stream's next request
// only once the previous answer is read. The first warm of the run fills
// caches and is not timed; the window after it is. Set-up work per request —
// drawing it from the stream and encoding the body — happens before the
// request's clock starts.
func runLoad(ctx context.Context, srv *serverProc, w *Workload, seed uint64, clients int, warm, window time.Duration) (*loadResult, error) {
	res := &loadResult{windowStart: warm}
	g := &gate{start: time.Now(), warm: warm, window: window}
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = clientLoop(srv.addr, NewStream(w, seed, c), c, g)
		}(c)
	}
	// Scrape the window's opening edge while the clients keep running,
	// then sample the machine's stolen CPU until they stop.
	time.Sleep(time.Until(g.start.Add(warm)))
	cpu0 := selfCPUSeconds()
	scpu0, err0 := srv.cpuSeconds()
	before, err1 := srv.metrics(ctx)
	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() { sampled <- sampleTicks(g.start, &res.ticks, stop) }()
	wg.Wait()
	close(stop)
	errT := <-sampled
	after, err2 := srv.metrics(ctx)
	scpu1, err3 := srv.cpuSeconds()
	cpu1 := selfCPUSeconds()
	for _, err := range []error{err0, err1, err2, err3, errT} {
		if err != nil {
			return nil, err
		}
	}
	res.before, res.after = before, after
	res.serverCPU, res.clientCPU = scpu1-scpu0, cpu1-cpu0
	res.stealShare = stealShare(res.ticks, warm, res.ticks[len(res.ticks)-1].at)
	for _, s := range per {
		res.samples = append(res.samples, s...)
	}
	return res, nil
}

// gate decides when the clients stop: after the window, once minSamples
// timed requests have been sent or the window has stretched maxStretch
// times.
type gate struct {
	start        time.Time
	warm, window time.Duration
	timed        atomic.Int64
}

// open reports whether a client may send another request, counting it if
// it falls in the timed window.
func (g *gate) open() bool {
	el := time.Since(g.start)
	if el < g.warm {
		return true
	}
	if el >= g.warm+g.window && (g.timed.Load() >= minSamples || el >= g.warm+maxStretch*g.window) {
		return false
	}
	g.timed.Add(1)
	return true
}

// clientLoop is one closed-loop client on one keep-alive connection. It
// writes each request and reads its response with http.ReadResponse on the
// calling goroutine, without net/http's Transport: the Transport hands every
// request across two more goroutines, and those wake-ups cost the generator
// as much CPU as the server spends on a cached answer.
func clientLoop(addr string, st *Stream, client int, g *gate) []sample {
	var conn net.Conn
	var br *bufio.Reader
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	var out []sample
	for seq := 0; g.open(); seq++ {
		r := st.Next()
		msg := requestBytes(addr, r)
		s := sample{client: client, seq: seq, req: r, start: time.Since(g.start)}
		var err error
		if conn == nil {
			if conn, err = net.Dial("tcp", addr); err == nil {
				br = bufio.NewReader(conn)
			}
		}
		closed := true
		if err == nil {
			s.status, s.body, closed, err = roundTrip(conn, br, msg)
		}
		s.end = time.Since(g.start)
		if err != nil {
			s.err = fmt.Errorf("%s: %w", r.Path(), err)
		}
		if closed && conn != nil {
			conn.Close()
			conn = nil
		}
		out = append(out, s)
	}
	return out
}

// requestBytes renders r as one HTTP/1.1 POST to addr.
func requestBytes(addr string, r Request) []byte {
	body := r.Body()
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n", r.Path(), addr, len(body))
	if r.Principal != "" {
		fmt.Fprintf(&b, "X-Privacy3D-Principal: %s\r\n", r.Principal)
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// roundTrip sends msg and reads the whole response. closed reports that
// the connection cannot carry another request.
func roundTrip(conn net.Conn, br *bufio.Reader, msg []byte) (status int, body []byte, closed bool, err error) {
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, true, err
	}
	if _, err := conn.Write(msg); err != nil {
		return 0, nil, true, err
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return 0, nil, true, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, true, err
	}
	return resp.StatusCode, body, resp.Close, nil
}
