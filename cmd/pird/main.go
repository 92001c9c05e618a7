// Command pird runs an information-theoretic PIR replica over HTTP, or
// fetches a block privately from a set of replicas — the deployable face of
// the user-privacy dimension.
//
//	pird serve -in blocks.csv -addr :9001
//	pird fetch -servers http://a:9001,http://b:9002 -index 17
//
// The input file holds one block per line; every replica must serve the
// identical file (replication is PIR's trust model: privacy holds as long
// as the replicas do not collude).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"privacy3d/internal/obs"
	"privacy3d/internal/par"
	"privacy3d/internal/pir"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pird: ")
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: pird serve|fetch [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serve(os.Args[2:])
	case "fetch":
		err = fetch(os.Args[2:])
	default:
		fmt.Fprintln(os.Stderr, "usage: pird serve|fetch [flags]")
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// loadBlocks reads one block per line, padding to a common size.
func loadBlocks(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines [][]byte
	maxLen := 1
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		if len(line) > maxLen {
			maxLen = len(line)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("no blocks in %s", path)
	}
	for i, l := range lines {
		padded := make([]byte, maxLen)
		copy(padded, l)
		lines[i] = padded
	}
	return lines, nil
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	in := fs.String("in", "", "file with one block per line")
	addr := fs.String("addr", ":9001", "listen address")
	reqTimeout := fs.Duration("reqtimeout", 10*time.Second, "per-request timeout")
	grace := fs.Duration("grace", obs.DefaultShutdownGrace, "graceful-shutdown drain window")
	workers := fs.Int("workers", 0, "answer-kernel worker-pool size (0 = all CPUs); answers are byte-identical at any setting")
	logCap := fs.Int("querylog", pir.DefaultQueryLogCap, "query-log entries retained (newest window; drops are counted at /metrics)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be ≥ 0, got %d", *workers)
	}
	par.SetWorkers(*workers)
	blocks, err := loadBlocks(*in)
	if err != nil {
		return err
	}
	srv, err := pir.NewITServer(blocks)
	if err != nil {
		return err
	}
	srv.SetQueryLogCap(*logCap)
	logger := log.Default()
	reg := obs.NewRegistry()
	obs.RegisterParallelism(reg)
	registerPIRMetrics(reg, srv)
	answerHist := reg.Histogram("pir_answer_seconds", obs.DefaultKernelBuckets)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/", observeAnswers(pir.NewHTTPServer(srv), answerHist))
	handler := obs.Chain(mux,
		obs.Logging(logger),
		obs.Instrument(reg, "/pir", "/meta", "/metrics"),
		obs.Recover(reg, logger),
		obs.Timeout(*reqTimeout),
	)
	logger.Printf("serving %d blocks of %d bytes on %s with %d answer worker(s) (POST /pir, GET /meta, GET /metrics)",
		srv.Blocks(), srv.BlockSize(), *addr, par.Workers())
	return obs.Run(obs.NewServer(*addr, handler), logger, *grace)
}

// registerPIRMetrics exposes the answering engine's counters: work done by
// the word-parallel kernel and the bounded query log's retention state.
func registerPIRMetrics(reg *obs.Registry, srv *pir.ITServer) {
	reg.Gauge("pir_answers_total", func() float64 { return float64(srv.Answers()) })
	reg.Gauge("pir_words_xored_total", func() float64 { return float64(srv.WordsXORed()) })
	reg.Gauge("pir_query_log_depth", func() float64 {
		retained, _, _ := srv.QueryLogStats()
		return float64(retained)
	})
	reg.Gauge("pir_query_log_dropped_total", func() float64 {
		_, dropped, _ := srv.QueryLogStats()
		return float64(dropped)
	})
	reg.Gauge("pir_query_log_cap", func() float64 {
		_, _, c := srv.QueryLogStats()
		return float64(c)
	})
}

// observeAnswers records the wall-clock of each POST /pir request (the
// answer path, including transport encode/decode) into hist.
func observeAnswers(next http.Handler, hist *obs.Histogram) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/pir" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		hist.Observe(time.Since(start).Seconds())
	})
}

func fetch(args []string) error {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	servers := fs.String("servers", "", "comma-separated replica base URLs (≥ 2)")
	index := fs.Int("index", 0, "block index to retrieve")
	seed := fs.Uint64("seed", 1, "query randomness seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	urls := strings.Split(*servers, ",")
	client, err := pir.NewHTTPClient(urls, nil, *seed)
	if err != nil {
		return err
	}
	block, err := client.Retrieve(*index)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", strings.TrimRight(string(block), "\x00"))
	return nil
}
