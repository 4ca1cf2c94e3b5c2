package main

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softsoa/internal/broker"
	"softsoa/internal/broker/store"
	"softsoa/internal/cache"
	"softsoa/internal/obs"
	"softsoa/internal/soa"
)

// The traced run drives an in-process broker.Server, configured as
// brokerd configures itself, with the same sequence, and records spans
// from the benchmark's side of each layer boundary: around
// Server.Handler().ServeHTTP (the request), around every store.Store
// call (a decorator passed via WithStateStore), and around every log
// record (an slog handler passed via WithLogger). The pipeline spans
// the server already records (parse, precheck:P, nmsccp:P, sla-commit,
// solve) are read back from Server.Traces(). Spans are kept in memory
// and folded into per-layer metrics when the run ends.

// span is one recorded interval; times are absolute (monotonic).
type span struct {
	name       string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// storeOp is one call into the store: an Append (typ set) or a
// WriteSnapshot (typ empty).
type storeOp struct {
	span
	typ  string
	data []byte // the appended record, for attribution and the disk replay
	size int
}

// timedStore is a store.Store decorator timing every call.
type timedStore struct {
	store.Store
	mu  sync.Mutex
	ops []storeOp // guarded by mu
}

func (t *timedStore) Append(typ string, data []byte) (uint64, error) {
	start := time.Now()
	seq, err := t.Store.Append(typ, data)
	end := time.Now()
	t.mu.Lock()
	t.ops = append(t.ops, storeOp{span: span{"store.append", start, end}, typ: typ,
		data: slices.Clone(data), size: len(data)})
	t.mu.Unlock()
	return seq, err
}

func (t *timedStore) WriteSnapshot(state []byte, upToSeq uint64) error {
	start := time.Now()
	err := t.Store.WriteSnapshot(state, upToSeq)
	end := time.Now()
	t.mu.Lock()
	t.ops = append(t.ops, storeOp{span: span{"store.snapshot", start, end}, size: len(state)})
	t.mu.Unlock()
	return err
}

func (t *timedStore) take() []storeOp {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := t.ops
	t.ops = nil
	return ops
}

// logSpan is one log record's handling time, with the trace id its
// context carried.
type logSpan struct {
	span
	trace string
}

// logRecorder collects the spans of timedHandler.
type logRecorder struct {
	mu    sync.Mutex
	spans []logSpan // guarded by mu
}

func (l *logRecorder) take() []logSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans
	l.spans = nil
	return s
}

// timedHandler times each record through the wrapped handler
// (formatting and the write).
type timedHandler struct {
	inner slog.Handler
	rec   *logRecorder
}

func (h timedHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return h.inner.Enabled(ctx, l)
}

func (h timedHandler) Handle(ctx context.Context, r slog.Record) error {
	start := time.Now()
	err := h.inner.Handle(ctx, r)
	end := time.Now()
	h.rec.mu.Lock()
	h.rec.spans = append(h.rec.spans, logSpan{span{"log", start, end}, obs.TraceFrom(ctx).ID()})
	h.rec.mu.Unlock()
	return err
}

func (h timedHandler) WithAttrs(a []slog.Attr) slog.Handler {
	return timedHandler{h.inner.WithAttrs(a), h.rec}
}

func (h timedHandler) WithGroup(name string) slog.Handler {
	return timedHandler{h.inner.WithGroup(name), h.rec}
}

// countingWriter counts the bytes the logger writes.
type countingWriter struct {
	w io.Writer
	n atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// rootSpan is one measured request as the benchmark saw it.
type rootSpan struct {
	span
	route  string
	trace  string
	target string // SLA or journal id the request acted on
	req    []byte // request body
	body   []byte // reply body
}

// tracedRun runs the plan against an in-process server configured as
// brokerd runs for the workload, and returns the per-layer metrics.
// brokerd runs in memory, so on serve-mem the store.* metrics come from
// a second pass of the same sequence against a server that persists
// its state in a file store.
func tracedRun(ctx context.Context, workDir string, p *Plan) (map[string]float64, error) {
	m, err := tracedPass(ctx, filepath.Join(workDir, "mem"), p, false)
	if err != nil || p.Workload != "serve-mem" {
		return m, err
	}
	sm, err := tracedPass(ctx, filepath.Join(workDir, "store"), p, true)
	if err != nil {
		return nil, err
	}
	for k, v := range sm {
		if strings.HasPrefix(k, "store.") {
			m[k] = v
		}
	}
	return m, nil
}

// tracedPass drives the plan once through an in-process server, with
// a timed file store under workDir if withStore is set.
func tracedPass(ctx context.Context, workDir string, p *Plan, withStore bool) (map[string]float64, error) {
	pass := "mem"
	if withStore {
		pass = "store"
	}
	// brokerd's log goes to a pipe the e2e run drains; here records
	// are formatted and counted, then dropped.
	lw := &countingWriter{w: io.Discard}
	logs := &logRecorder{}
	logger := slog.New(timedHandler{obs.NewLogger(lw, false, slog.LevelInfo).Handler(), logs})

	reg := obs.NewRegistry()
	solveCache := cache.New(4096)
	total := p.Attempted()
	for _, s := range p.Warm {
		total += len(s)
	}
	opts := []broker.ServerOption{
		broker.WithMetricsRegistry(reg),
		broker.WithRequestTimeout(30 * time.Second),
		broker.WithBreaker(broker.BreakerConfig{FailureThreshold: 3, OpenTimeout: 30 * time.Second}),
		broker.WithSolverWorkers(0),
		broker.WithSolveCache(solveCache),
		broker.WithLogger(logger),
		broker.WithJournalRetention(256),
		broker.WithTraceCapacity(total + len(p.Pool) + len(p.Docs)),
		broker.WithSLO(broker.SLOConfig{
			SweepEvery: 10 * time.Second, FastWindow: time.Minute,
			SlowWindow: time.Hour, BurnThreshold: 0.5,
		}),
	}
	var ts *timedStore
	if withStore {
		st, err := store.Open(filepath.Join(workDir, "traced-state"))
		if err != nil {
			return nil, err
		}
		//lint:ignore errcheck the traced run's state is scratch, removed with the run directory
		defer st.Close()
		ts = &timedStore{Store: st}
		opts = append(opts, broker.WithStateStore(ts), broker.WithSnapshotEvery(256))
	}
	srv := broker.NewServer(broker.DefaultLinkPenalty, opts...)
	if ts != nil {
		if _, err := srv.Recover(ctx); err != nil {
			return nil, err
		}
	}
	sloCtx, stopSLO := context.WithCancel(ctx)
	var sloDone sync.WaitGroup
	sloDone.Add(1)
	go func() {
		defer sloDone.Done()
		srv.SLO().Run(sloCtx)
	}()
	defer func() {
		stopSLO()
		sloDone.Wait()
	}()

	h := srv.Handler()
	// Measured requests carry their own trace id and are recorded per
	// client; recording is switched on between the phases, while no
	// client runs.
	recording := false
	roots := make([][]rootSpan, p.Clients)
	send := func(ctx context.Context, k, i int, r Request) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.Path, bytes.NewReader(r.Body))
		if err != nil {
			return 0, nil, err
		}
		id := fmt.Sprintf("q%d-%d", k, i)
		if recording {
			req.Header.Set(obs.TraceHeader, id)
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		end := time.Now()
		if recording {
			roots[k] = append(roots[k], rootSpan{span: span{"server", start, end},
				route: r.Route, trace: id, target: rec.Header().Get(broker.JournalHeader),
				req: r.Body, body: rec.Body.Bytes()})
		}
		return rec.Code, rec.Body.Bytes(), nil
	}
	if err := warmUp(ctx, send, p); err != nil {
		return nil, err
	}

	recording = true
	if ts != nil {
		ts.take()
	}
	logs.take()
	lw.n.Store(0)
	cache0 := solveCache.Snapshot()
	prom0, err := scrape(reg)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	res := drive(ctx, send, p.Measured, nil)
	rt1 := readRuntime()
	prom1, err := scrape(reg)
	if err != nil {
		return nil, err
	}
	cache1 := solveCache.Snapshot()
	if res.failed > 0 {
		return nil, fmt.Errorf("traced run: %d of %d requests failed, first: %w",
			res.failed, p.Attempted(), res.firstErr)
	}

	var ops []storeOp
	if ts != nil {
		ops = ts.take()
	}
	a := &analysis{
		pass:    pass,
		n:       float64(p.Attempted()),
		roots:   slices.Concat(roots...),
		logs:    logs.take(),
		ops:     ops,
		traces:  srv.Traces().Snapshot(),
		logSize: lw.n.Load(),
		doomed:  prom1["broker_negotiation_prechecks_doomed_total"] - prom0["broker_negotiation_prechecks_doomed_total"],
	}
	m := a.layers()
	for k, v := range codecMetrics(a.roots) {
		m[k] = v
	}
	for k, v := range counterMetrics(prom0, prom1, cache0, cache1, a.n) {
		m[k] = v
	}
	for k, v := range rt1.delta(rt0, a.n) {
		m[k] = v
	}
	m["store.disk_append_us"] = 0
	if ts != nil {
		us, err := diskReplay(filepath.Join(workDir, "replay-state"), ops)
		if err != nil {
			return nil, err
		}
		m["store.disk_append_us"] = us
	}
	return m, nil
}

// analysis folds the recorded spans into per-layer metrics.
type analysis struct {
	pass    string // "mem" or "store"
	n       float64
	roots   []rootSpan
	logs    []logSpan
	ops     []storeOp
	traces  []obs.TraceRecord
	logSize int64
	doomed  float64 // provider attempts the c∅ precheck skipped
}

// Routes the per-layer metrics break down by.
var hotRoutes = []string{"negotiate", "observe", "renegotiate", "compose"}

// storeRoute maps a WAL record type to the route that appends it.
var storeRoute = map[string]string{
	"negotiate": "negotiate", "negfail": "negotiate", "renegotiate": "renegotiate",
	"observe": "observe", "compose": "compose",
}

// nestSlack absorbs the microsecond truncation of the server's own
// span records when deciding which span contains which.
const nestSlack = 3 * time.Microsecond

// layerOf names the layer a span's self time belongs to.
func layerOf(name string) string {
	switch {
	case name == "server":
		return "server.unattributed"
	case name == "parse":
		return "codec.parse"
	case strings.HasPrefix(name, "precheck:"):
		return "negotiate.precheck"
	case strings.HasPrefix(name, "nmsccp:"):
		return "negotiate.nmsccp"
	case name == "sla-commit":
		return "negotiate.commit"
	case name == "solve":
		return "compose.solve"
	}
	return name // store.append, store.snapshot, log, or an unknown server span
}

// selfTimes nests a request's spans by containment under root and
// returns each layer's self time: its spans' durations minus the
// parts covered by their children. The self times sum to the root's
// duration.
func selfTimes(root span, children []span) map[string]time.Duration {
	slices.SortFunc(children, func(a, b span) int {
		if c := a.start.Compare(b.start); c != 0 {
			return c
		}
		return b.end.Compare(a.end)
	})
	type node struct {
		span
		childDur time.Duration
	}
	all := make([]*node, 0, len(children)+1)
	stack := []*node{{span: root}}
	all = append(all, stack[0])
	for _, c := range children {
		for len(stack) > 1 {
			top := stack[len(stack)-1]
			if !c.start.Before(top.start.Add(-nestSlack)) && !c.end.After(top.end.Add(nestSlack)) {
				break
			}
			stack = stack[:len(stack)-1]
		}
		n := &node{span: c}
		stack[len(stack)-1].childDur += c.dur()
		stack = append(stack, n)
		all = append(all, n)
	}
	self := map[string]time.Duration{}
	var attributed time.Duration
	for _, n := range all[1:] {
		d := max(n.dur()-n.childDur, 0)
		self[layerOf(n.name)] += d
		attributed += d
	}
	// The root keeps what no child covers, so the layers account for
	// the whole request.
	self[layerOf(root.name)] += root.dur() - attributed
	return self
}

// routeAgg accumulates one route's requests.
type routeAgg struct {
	n     int
	durs  []float64 // ms
	self  map[string]time.Duration
	total time.Duration
	// compose.encode: request span minus its parse and solve spans.
	encode time.Duration
}

// layers attributes every recorded span to its request and computes
// the span-derived metrics.
func (a *analysis) layers() map[string]float64 {
	byTrace := make(map[string]int, len(a.roots))
	for i, r := range a.roots {
		byTrace[r.trace] = i
	}
	children := make([][]span, len(a.roots))

	// Server spans, converted from microsecond offsets.
	prechecks := 0
	for _, tr := range a.traces {
		i, ok := byTrace[tr.ID]
		if !ok {
			continue
		}
		for _, s := range tr.Spans {
			start := tr.Start.Add(time.Duration(s.StartMicros) * time.Microsecond)
			children[i] = append(children[i], span{s.Name, start,
				start.Add(time.Duration(s.DurationMicros) * time.Microsecond)})
			if strings.HasPrefix(s.Name, "precheck:") {
				prechecks++
			}
		}
	}
	for _, l := range a.logs {
		if i, ok := byTrace[l.trace]; ok {
			children[i] = append(children[i], l.span)
		}
	}
	a.attributeStore(children)

	aggs := map[string]*routeAgg{}
	for _, r := range hotRoutes {
		aggs[r] = &routeAgg{self: map[string]time.Duration{}}
	}
	for i, r := range a.roots {
		g := aggs[r.route]
		self := selfTimes(r.span, children[i])
		for k, v := range self {
			g.self[k] += v
		}
		g.n++
		g.total += r.dur()
		g.durs = append(g.durs, millis(r.dur()))
		if r.route == "compose" {
			enc := r.dur()
			for _, c := range children[i] {
				if c.name == "parse" || c.name == "solve" {
					enc -= c.dur()
				}
			}
			g.encode += enc
		}
	}

	m := map[string]float64{}
	perReq := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return millis(d) / float64(n)
	}
	for _, route := range hotRoutes {
		g := aggs[route]
		slices.Sort(g.durs)
		m["server.handle_ms."+route] = perReq(g.total, g.n)
		m["server.handle_p99_ms."+route] = quantile(g.durs, 0.99)
		m["server.unattributed_ratio."+route] = 0
		if g.total > 0 {
			m["server.unattributed_ratio."+route] = float64(g.self["server.unattributed"]) / float64(g.total)
		}
		printAccount(a.pass, route, g)
	}
	neg, comp := aggs["negotiate"], aggs["compose"]
	m["negotiate.precheck_ms"] = perReq(neg.self["negotiate.precheck"], neg.n)
	m["negotiate.nmsccp_ms"] = perReq(neg.self["negotiate.nmsccp"], neg.n)
	m["negotiate.commit_ms"] = perReq(neg.self["negotiate.commit"], neg.n)
	m["negotiate.prechecked_ratio"] = 0
	if prechecks > 0 {
		m["negotiate.prechecked_ratio"] = a.doomed / float64(prechecks)
	}
	m["compose.solve_ms"] = perReq(comp.self["compose.solve"], comp.n)
	m["compose.encode_ms"] = perReq(comp.encode, comp.n)

	var logTime time.Duration
	for _, l := range a.logs {
		logTime += l.dur()
	}
	m["log.bytes_per_req"] = float64(a.logSize) / a.n
	m["log.write_us_per_req"] = float64(logTime.Microseconds()) / a.n

	var appends, snaps []float64
	var appendBytes, snapBytes int
	for _, op := range a.ops {
		us := float64(op.dur()) / float64(time.Microsecond)
		if op.typ == "" {
			snaps = append(snaps, us/1000)
			snapBytes += op.size
		} else {
			appends = append(appends, us)
			appendBytes += op.size
		}
	}
	slices.Sort(appends)
	m["store.append_us"] = mean(appends)
	m["store.append_p99_us"] = quantile(appends, 0.99)
	m["store.appends_per_req"] = float64(len(appends)) / a.n
	m["store.bytes_per_req"] = float64(appendBytes) / a.n
	m["store.snapshot_ms"] = mean(snaps)
	m["store.snapshots"] = float64(len(snaps))
	m["store.snapshot_bytes"] = 0
	if len(snaps) > 0 {
		m["store.snapshot_bytes"] = float64(snapBytes) / float64(len(snaps))
	}
	return m
}

// attributeStore assigns each store call to the request that made it.
// An append carries the id of the SLA, negotiation or composition it
// records; the request with that id and route whose span contains the
// append made it. A snapshot runs on the request that crossed the
// snapshot threshold: among the requests whose span contains it, the
// one whose last append ended latest before it started.
func (a *analysis) attributeStore(children [][]span) {
	type key struct{ route, id string }
	byTarget := map[key][]int{}
	for i, r := range a.roots {
		id := r.target
		if r.route == "observe" {
			var o broker.ObserveRequest
			if xml.Unmarshal(r.req, &o) == nil {
				id = o.ID
			}
		}
		byTarget[key{r.route, id}] = append(byTarget[key{r.route, id}], i)
	}
	lastAppend := make([]time.Time, len(a.roots))
	contains := func(i int, s span) bool {
		r := a.roots[i]
		return !s.start.Before(r.start) && !s.end.After(r.end)
	}
	for _, op := range a.ops {
		if op.typ == "" {
			continue
		}
		var rec struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(op.data, &rec) != nil {
			continue
		}
		cands := byTarget[key{storeRoute[op.typ], rec.ID}]
		for _, i := range cands {
			if contains(i, op.span) {
				children[i] = append(children[i], op.span)
				if op.end.After(lastAppend[i]) {
					lastAppend[i] = op.end
				}
				break
			}
		}
	}
	for _, op := range a.ops {
		if op.typ != "" {
			continue
		}
		best := -1
		for i := range a.roots {
			if !contains(i, op.span) || lastAppend[i].After(op.start) {
				continue
			}
			if best < 0 || lastAppend[i].After(lastAppend[best]) {
				best = i
			}
		}
		if best >= 0 {
			children[best] = append(children[best], op.span)
		}
	}
}

// printAccount writes a route's layer account to stderr: the mean
// self time per request of every layer, which sum to handle_ms.
func printAccount(pass, route string, g *routeAgg) {
	if g.n == 0 {
		return
	}
	names := make([]string, 0, len(g.self))
	for k := range g.self {
		names = append(names, k)
	}
	sort.Strings(names)
	var sum time.Duration
	var b strings.Builder
	for _, k := range names {
		sum += g.self[k]
		fmt.Fprintf(&b, " %s=%.4f", k, millis(g.self[k])/float64(g.n))
	}
	fmt.Fprintf(os.Stderr, "account %s %s (%d requests, ms/request): handle=%.4f layers:%s sum=%.4f\n",
		pass, route, g.n, millis(g.total)/float64(g.n), b.String(), millis(sum)/float64(g.n))
}

// codecMetrics replays encoding/xml over the exact bodies the run sent
// and received: decode of each request body into the route's request
// type, encode (MarshalIndent, as the broker writes) of each decoded
// reply.
func codecMetrics(roots []rootSpan) map[string]float64 {
	m := map[string]float64{}
	for _, route := range hotRoutes {
		var reqs, replies [][]byte
		for _, r := range roots {
			if r.route == route {
				reqs = append(reqs, r.req)
				replies = append(replies, r.body)
			}
		}
		m["codec.decode_us."+route] = 0
		m["codec.encode_us."+route] = 0
		if len(reqs) == 0 {
			continue
		}
		newReq := map[string]func() any{
			"negotiate":   func() any { return new(broker.NegotiateRequest) },
			"observe":     func() any { return new(broker.ObserveRequest) },
			"renegotiate": func() any { return new(broker.RenegotiateRequest) },
			"compose":     func() any { return new(broker.ComposeRequest) },
		}[route]
		start := time.Now()
		for _, b := range reqs {
			//lint:ignore errcheck the bodies were generated by xml.Marshal; only the time matters
			_ = xml.Unmarshal(b, newReq())
		}
		m["codec.decode_us."+route] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(reqs))

		values := make([]any, 0, len(replies))
		for _, b := range replies {
			var v any = new(soa.SLA)
			switch {
			case route == "observe":
				v = new(broker.ObserveResponse)
			case bytes.HasPrefix(b, []byte("<failure")):
				v = new(broker.FailureResponse)
			}
			if xml.Unmarshal(b, v) == nil {
				values = append(values, v)
			}
		}
		start = time.Now()
		for _, v := range values {
			//lint:ignore errcheck decoded wire values re-encode; only the time matters
			_, _ = xml.MarshalIndent(v, "", "  ")
		}
		if len(values) > 0 {
			m["codec.encode_us."+route] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(values))
		}
	}
	return m
}

// scrape reads the registry's Prometheus exposition into series → value.
func scrape(reg *obs.Registry) (map[string]float64, error) {
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// counterMetrics reads solver and cache counters as deltas
// over the measured phase.
func counterMetrics(p0, p1 map[string]float64, c0, c1 cache.Stats, n float64) map[string]float64 {
	d := func(series string) float64 { return p1[series] - p0[series] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	solves := d(`broker_solver_solves_total{mode="optimal"}`)
	hit := func(a, b cache.TierStats) float64 {
		h := float64(b.Hits - a.Hits)
		return ratio(h, h+float64(b.Misses-a.Misses))
	}
	applied := float64(c1.WarmApplied - c0.WarmApplied)
	evictions := (c1.Tables.Evictions - c0.Tables.Evictions) +
		(c1.Fixpoint.Evictions - c0.Fixpoint.Evictions) + (c1.Search.Evictions - c0.Search.Evictions)
	return map[string]float64{
		"solver.nodes_per_solve":   ratio(d("broker_solver_nodes_total"), solves),
		"solver.prunes_per_solve":  ratio(d("broker_solver_prunes_total"), solves),
		"solver.steals_per_solve":  ratio(d("broker_solver_steals_total"), solves),
		"cache.tables_hit_ratio":   hit(c0.Tables, c1.Tables),
		"cache.fixpoint_hit_ratio": hit(c0.Fixpoint, c1.Fixpoint),
		"cache.search_hit_ratio":   hit(c0.Search, c1.Search),
		"cache.warm_start_ratio":   ratio(applied, applied+float64(c1.WarmFallback-c0.WarmFallback)),
		"cache.evictions_per_req":  float64(evictions) / n,
	}
}

// runtimeSample is a reading of the Go allocator and GC counters.
type runtimeSample struct{ allocBytes, allocs, gcs uint64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (r runtimeSample) delta(r0 runtimeSample, n float64) map[string]float64 {
	return map[string]float64{
		"runtime.alloc_bytes_per_req": float64(r.allocBytes-r0.allocBytes) / n,
		"runtime.allocs_per_req":      float64(r.allocs-r0.allocs) / n,
		"runtime.gc_per_1k_req":       float64(r.gcs-r0.gcs) * 1000 / n,
	}
}

// diskReplay appends the run's first records again, one at a time,
// into a fresh file store in dir and returns the mean append time in
// µs: the device's cost without request concurrency. Informational.
func diskReplay(dir string, ops []storeOp) (float64, error) {
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	//lint:ignore errcheck the replay store is scratch, removed with the run directory
	defer st.Close()
	var n int
	start := time.Now()
	for _, op := range ops {
		if op.typ == "" {
			continue
		}
		if _, err := st.Append(op.typ, op.data); err != nil {
			return 0, err
		}
		if n++; n == 2000 {
			break
		}
	}
	if n == 0 {
		return 0, nil
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n), nil
}
