package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTicks = 100

// probePrincipal asks the readiness probe under dp. It is not one of the
// workload's analysts, so the probe's ε never enters dp.charge_ratio.
const probePrincipal = "perfbench-probe"

// probeBody is the readiness query: set-up ends when it is answered.
var probeBody = []byte(`{"agg":"COUNT","where":[{"col":"height","op":"<","v":170}]}`)

// serverProc is one running `privacy3d serve` child.
type serverProc struct {
	cmd  *exec.Cmd
	addr string // 127.0.0.1:port
	base string // http://127.0.0.1:port
	log  *os.File
	done chan error // receives cmd.Wait's result once
}

// freePort reserves a loopback port by listening on :0 and releasing it.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer launches bin serve with args on a fresh loopback port. The
// server's access log (one line per request) goes to logPath, a file, so
// it can never fill a pipe and stall the server.
func startServer(bin string, args []string, logPath string) (*serverProc, error) {
	addr, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("reserve port: %w", err)
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"serve", "-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// Should the benchmark die without stopping it, the server dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	p := &serverProc{cmd: cmd, addr: addr, base: "http://" + addr, log: lf, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

// waitReady polls the probe query until it is answered with 200, the
// server exits, or timeout passes.
func (p *serverProc) waitReady(principal string, timeout time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-p.done:
			p.done <- err
			return fmt.Errorf("server exited during set-up: %v (log %s)", err, p.log.Name())
		default:
		}
		req, err := http.NewRequest(http.MethodPost, p.base+"/query", bytes.NewReader(probeBody))
		if err != nil {
			return err
		}
		if principal != "" {
			req.Header.Set("X-Privacy3D-Principal", principal)
		}
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			return fmt.Errorf("readiness probe answered %s", resp.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not ready within %s (log %s)", timeout, p.log.Name())
}

// stop sends SIGTERM, so a durable store commits on its graceful drain,
// and waits for the exit; after the grace it kills the process.
func (p *serverProc) stop(grace time.Duration) error {
	defer p.log.Close()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		// Already gone: collect its status.
		return <-p.done
	}
	select {
	case err := <-p.done:
		return err
	case <-time.After(grace):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("server ignored SIGTERM for %s and was killed", grace)
	}
}

// metrics scrapes GET /metrics into series → value.
func (p *serverProc) metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads the plain-text exposition: "series value" per line.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// cpuSeconds is the process's user+system CPU time from /proc/<pid>/stat.
func (p *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after ") ".
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat times: %v %v", err1, err2)
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMiB is the process's VmHWM, its peak resident set, in MiB.
func (p *serverProc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuTicks reads the machine-wide busy and stolen CPU ticks from
// /proc/stat. Stolen ticks are time the hypervisor gave this machine's
// CPUs to someone else; a window with many of them ran on less CPU than
// the machine reports.
func cpuTicks() (busy, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [8]float64
	for i := range v {
		if v[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
			return 0, 0, err
		}
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], nil
}
