package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"softsoa/internal/soa"
)

// sender performs one request of client k and returns the reply.
type sender func(ctx context.Context, k, i int, r Request) (status int, body []byte, err error)

// loopResult is what a closed-loop phase produced.
type loopResult struct {
	latMs []float64 // per measured request, send until body read
	// rank is each request's place in completion order, from 1,
	// aligned with latMs.
	rank     []int64
	failed   int
	firstErr error
	samples  []sampled
	// peakWorkers is the most client goroutines ever running at once.
	peakWorkers int64
}

// drive runs seqs as a closed loop: one goroutine per client, each
// sending its next request only after the previous reply has been
// read in full. onDone, when not nil, is called on the client's
// goroutine with the completion rank of every reply. drive returns
// once every client has finished.
func drive(ctx context.Context, send sender, seqs [][]Request, onDone func(rank int64)) loopResult {
	var (
		mu        sync.Mutex
		res       loopResult
		active    atomic.Int64
		peak      atomic.Int64
		completed atomic.Int64
		wg        sync.WaitGroup
	)
	lats := make([][]float64, len(seqs))
	ranks := make([][]int64, len(seqs))
	for k, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := active.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			defer active.Add(-1)
			lat := make([]float64, 0, len(seq))
			rank := make([]int64, 0, len(seq))
			for i, r := range seq {
				t0 := time.Now()
				status, body, err := send(ctx, k, i, r)
				lat = append(lat, millis(time.Since(t0)))
				n := completed.Add(1)
				rank = append(rank, n)
				if onDone != nil {
					onDone(n)
				}
				var sla *soa.SLA
				if err == nil {
					sla, err = classify(r.Expect, status, body)
				}
				if err != nil {
					mu.Lock()
					res.failed++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("client %d request %d (%s): %w", k, i, r.Route, err)
					}
					mu.Unlock()
					continue
				}
				if r.Sample {
					mu.Lock()
					res.samples = append(res.samples, sampled{req: r, sla: sla})
					mu.Unlock()
				}
			}
			lats[k] = lat
			ranks[k] = rank
		}()
	}
	wg.Wait()
	res.peakWorkers = peak.Load()
	for k := range lats {
		res.latMs = append(res.latMs, lats[k]...)
		res.rank = append(res.rank, ranks[k]...)
	}
	return res
}

// connCounter counts the TCP connections a client opens, tracking the
// most ever open at once.
type connCounter struct {
	open, peak atomic.Int64
}

func (c *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	n := c.open.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	return &countedConn{Conn: conn, c: c}, nil
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.c.open.Add(-1) })
	return cc.Conn.Close()
}

// newHTTPClient returns a keep-alive client that never holds more than
// clients connections to the broker.
func newHTTPClient(clients int, cc *connCounter) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext:         cc.dial,
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			MaxIdleConns:        clients,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: time.Minute,
	}
}

// httpSender posts each request to the broker at base.
func httpSender(client *http.Client, base string) sender {
	return func(ctx context.Context, _, _ int, r Request) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.Path, bytes.NewReader(r.Body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/xml")
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		return resp.StatusCode, body, err
	}
}

// brokerProc is a running brokerd child process.
type brokerProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed when the process has been reaped
	log  *logSink
}

// logSink receives brokerd's stdout and stderr through a pipe: the
// broker pays for formatting and writing every log line, and nothing
// reaches a disk.
// It keeps the first lines for diagnosing a failed start.
type logSink struct {
	mu    sync.Mutex
	head  []byte // guarded by mu
	bytes int64  // guarded by mu
}

func (l *logSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.head) < 4096 {
		l.head = append(l.head, p[:min(len(p), 4096-len(l.head))]...)
	}
	l.bytes += int64(len(p))
	return len(p), nil
}

func (l *logSink) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.head)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startBrokerd launches brokerd with its default flags, its stdout and
// stderr (the info-level request log) going to a logSink, and waits
// until it answers GET /v1/health.
func startBrokerd(ctx context.Context, bin string) (*brokerProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	logs := &logSink{}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logs, logs
	// The broker dies with the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start brokerd: %w", err)
	}
	b := &brokerProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: logs}
	go func() {
		//lint:ignore errcheck the exit status of a stopped broker carries no information
		_ = cmd.Wait()
		close(b.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := probe.Get(b.base + "/v1/health")
		if err == nil {
			//lint:ignore errcheck draining a probe reply
			_, _ = io.Copy(io.Discard, resp.Body)
			//lint:ignore errcheck closing a drained probe reply
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return b, nil
			}
		}
		select {
		case <-b.done:
			b.stop()
			return nil, fmt.Errorf("brokerd exited during start-up:\n%s", logs)
		case <-ctx.Done():
			b.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			b.stop()
			return nil, errors.New("brokerd did not become ready within 20s")
		}
	}
}

// stop terminates brokerd (SIGTERM, then SIGKILL after a grace
// period) and waits until the process has been reaped.
func (b *brokerProc) stop() {
	//lint:ignore errcheck signalling a process that already exited fails harmlessly
	_ = b.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-b.done:
	case <-time.After(15 * time.Second):
		//lint:ignore errcheck see above
		_ = b.cmd.Process.Kill()
		<-b.done
	}
}

// warmUp runs the warm phase through the closed-loop clients: publish
// the documents, negotiate the pool in order on one client, then the
// per-client warm sequences.
func warmUp(ctx context.Context, send sender, p *Plan) error {
	phases := [][][]Request{p.publishRequests(), {p.Pool}, p.Warm}
	for _, seqs := range phases {
		if res := drive(ctx, send, seqs, nil); res.failed > 0 {
			return fmt.Errorf("warm phase: %d failed, first: %w", res.failed, res.firstErr)
		}
	}
	return nil
}

// e2e is one end-to-end run's measurements.
type e2e struct {
	setupS     []float64
	attempted  int
	failed     int
	firstErr   error
	latMs      []float64
	rank       []int64
	marks      []mark
	hwm        int64
	peakConns  int64 // most connections open at once
	peakWorker int64 // most client goroutines running at once
	samples    []sampled
	resolveErr error
}

// setupRepeats is how many times a run launches and warms a broker;
// setup_s is the median, the last broker serves the measured phase.
const setupRepeats = 9

// chunks is how many equal request-count chunks the measured phase is
// split into. Per-chunk throughput, CPU per request and latency
// quantiles are reported as interquartile means over the chunks, so a
// burst of outside load on a shared machine moves a chunk, not the
// run, and chunk j covers about the same requests (and broker state)
// on every run.
const chunks = 20

// mark is the time and brokerd's CPU time when the rank-th reply of
// the measured phase was read.
type mark struct {
	rank int64
	at   time.Time
	cpu  time.Duration
}

// runE2E launches brokerd setupRepeats times, measures the plan's
// sequence on the last instance, and re-solves the sample.
func runE2E(ctx context.Context, bin string, p *Plan) (*e2e, error) {
	out := &e2e{attempted: p.Attempted()}
	for rep := 0; rep < setupRepeats; rep++ {
		var cc connCounter
		client := newHTTPClient(p.Clients, &cc)
		t0 := time.Now()
		b, err := startBrokerd(ctx, bin)
		if err != nil {
			return nil, err
		}
		send := httpSender(client, b.base)
		if err := warmUp(ctx, send, p); err != nil {
			b.stop()
			return nil, err
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		if rep < setupRepeats-1 {
			b.stop()
			client.CloseIdleConnections()
			continue
		}
		res, marks, err := measure(ctx, send, p, b.cmd.Process.Pid)
		if err == nil {
			out.hwm, err = procHWM(b.cmd.Process.Pid)
		}
		b.stop()
		client.CloseIdleConnections()
		if err != nil {
			return nil, err
		}
		out.marks = marks
		out.latMs = res.latMs
		out.rank = res.rank
		out.failed = res.failed
		out.firstErr = res.firstErr
		out.samples = res.samples
		out.peakConns = cc.peak.Load()
		out.peakWorker = res.peakWorkers
	}
	out.resolveErr = resolveSample(p.Docs, out.samples)
	return out, nil
}

// measure drives the measured phase, reading brokerd's CPU time at
// the start and whenever a chunk's last reply has been read.
func measure(ctx context.Context, send sender, p *Plan, pid int) (loopResult, []mark, error) {
	n := int64(p.Attempted())
	var (
		mu     sync.Mutex
		marks  []mark
		cpuErr error
	)
	record := func(rank int64) {
		at := time.Now()
		cpu, err := procCPU(pid)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			cpuErr = err
			return
		}
		marks = append(marks, mark{rank, at, cpu})
	}
	record(0)
	res := drive(ctx, send, p.Measured, func(rank int64) {
		// rank·chunks/n steps up exactly at a chunk's last reply.
		if rank*chunks/n != (rank-1)*chunks/n {
			record(rank)
		}
	})
	slices.SortFunc(marks, func(a, b mark) int { return int(a.rank - b.rank) })
	return res, marks, cpuErr
}

// chunkStats returns each chunk's throughput, CPU per request and
// latency quantiles.
func (r *e2e) chunkStats() (tput, cpu, p50, p99 []float64) {
	lats := make([][]float64, len(r.marks))
	for i, rank := range r.rank {
		// The chunk of a reply is the first mark at or after its rank.
		j, _ := slices.BinarySearchFunc(r.marks, rank, func(m mark, x int64) int { return int(m.rank - x) })
		if j > 0 && j < len(r.marks) {
			lats[j] = append(lats[j], r.latMs[i])
		}
	}
	for j := 1; j < len(r.marks); j++ {
		a, b := r.marks[j-1], r.marks[j]
		lat := lats[j]
		if len(lat) == 0 {
			continue
		}
		slices.Sort(lat)
		tput = append(tput, float64(b.rank-a.rank)/b.at.Sub(a.at).Seconds())
		cpu = append(cpu, millis(b.cpu-a.cpu)/float64(b.rank-a.rank))
		p50 = append(p50, quantile(lat, 0.5))
		p99 = append(p99, quantile(lat, 0.99))
	}
	return tput, cpu, p50, p99
}

// metrics turns a run into the end-to-end metric values.
func (r *e2e) metrics() map[string]float64 {
	tput, cpu, p50, p99 := r.chunkStats()
	fmt.Fprintf(os.Stderr, "%d chunks: throughput %.0f to %.0f 1/s; setups %.3f s\n",
		len(tput), slices.Min(tput), slices.Max(tput), r.setupS)
	return map[string]float64{
		"setup_s":        median(r.setupS),
		"throughput_rps": interquartileMean(tput),
		"p50_ms":         interquartileMean(p50),
		"p99_ms":         interquartileMean(p99),
		"cpu_ms_per_req": interquartileMean(cpu),
		"rss_mb":         float64(r.hwm) / (1 << 20),
		"error_ratio":    float64(r.failed) / float64(r.attempted),
	}
}
