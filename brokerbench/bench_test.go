package main

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"softsoa/internal/broker"
)

// heldOutSeed is never used while tuning the benchmark or a change;
// a claimed gain must also hold on it.
const heldOutSeed = 7919

func TestGenerateDeterministic(t *testing.T) {
	for _, w := range Workloads {
		a, err := Generate(w, 42, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(w, 42, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different plans", w)
		}
		c, err := Generate(w, heldOutSeed, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Measured, c.Measured) {
			t.Errorf("%s: seeds 42 and %d gave the same measured sequence", w, heldOutSeed)
		}
		if got, want := a.Attempted(), nominalRPS[w]; got != want {
			t.Errorf("%s: %d measured requests for one second, want %d", w, got, want)
		}
	}
}

// TestSequencesKeepBreakersClosed checks the property every outcome
// prediction rests on: no client sends a provider breaker-threshold
// (3) failures in a row. In serve-mem a failure is a violating
// observation (all of a client's pool sits on its cheapest provider);
// in solve-cold it is a doomed provider attempt, and a tight
// negotiation always follows a loose one.
func TestSequencesKeepBreakersClosed(t *testing.T) {
	p, err := Generate("serve-mem", heldOutSeed, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	violations, observations := 0, 0
	for k, seq := range p.Measured {
		run := 0
		for i, r := range seq {
			switch r.Expect {
			case ExpectViolated:
				violations++
				observations++
				if run++; run > serveMaxViolRun {
					t.Fatalf("client %d request %d: %d violations in a row", k, i, run)
				}
			case ExpectObserved:
				observations++
				run = 0
			}
		}
	}
	if share := float64(violations) / float64(observations); share < 0.25 || share > 0.35 {
		t.Errorf("violating share %.3f, want about 0.3", share)
	}

	c, err := Generate("solve-cold", heldOutSeed, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k, seq := range c.Measured {
		lastTight := false
		for i, r := range seq {
			if r.Route != "negotiate" {
				continue
			}
			var nr broker.NegotiateRequest
			if err := xml.Unmarshal(r.Body, &nr); err != nil {
				t.Fatal(err)
			}
			tight := *nr.Lower < nr.Requirement.Base+2*coldProviders
			if tight && lastTight {
				t.Fatalf("client %d request %d: two tight negotiations in a row", k, i)
			}
			lastTight = tight
		}
	}
}

func TestQuantileExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.99, 10}, {0.1, 1}, {0.11, 2}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing must be 0")
	}
}

func TestInterquartileMean(t *testing.T) {
	// 20 values: the 5 lowest and 5 highest are dropped.
	xs := []float64{100, -50, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 0, 0, 0, 99, 99, 99, 99}
	if got, want := interquartileMean(xs), 5.5; got != want {
		t.Errorf("interquartileMean = %v, want %v", got, want)
	}
	if got := interquartileMean([]float64{7}); got != 7 {
		t.Errorf("interquartileMean of one value = %v, want 7", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 0.5, 2.2}, 0.5, 3.1},
		{[]float64{5, 1, 4, 2}, 1.25, 4.75},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// utime 250 and stime 50 ticks; the command name holds spaces and
	// a parenthesis.
	stat := "4242 (broker d) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 100 0 0"
	got, err := parseProcStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := parseProcStatCPU([]byte("4242 (short) S 1")); err == nil {
		t.Error("a truncated stat line must fail")
	}
	self, err := procCPU(os.Getpid())
	if err != nil || self < 0 {
		t.Errorf("own CPU time: %v, %v", self, err)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tbrokerd\nVmPeak:\t  900 kB\nVmHWM:\t   26624 kB\nVmRSS:\t  20000 kB\n"
	got, err := parseVmHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(26624 * 1024); got != want {
		t.Errorf("VmHWM = %d, want %d", got, want)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) must fail", bad)
		}
	}
}

func TestClassify(t *testing.T) {
	sla := `<sla id="sla-3" service="s" client="c" metric="cost" agreedLevel="2.5"><provider>p1</provider></sla>`
	failure := `<failure reason="no shared agreement"><provider name="p1" status="stuck"></provider></failure>`
	obs := func(v bool) string {
		if v {
			return `<observation id="sla-1" violated="true"><report metric="cost"></report></observation>`
		}
		return `<observation id="sla-1" violated="false"><report metric="cost"></report></observation>`
	}
	for _, c := range []struct {
		expect Expect
		status int
		body   string
		ok     bool
	}{
		{ExpectCreated, 201, "", true},
		{ExpectCreated, 400, `<error reason="bad"></error>`, false},
		{ExpectAgreed, 200, sla, true},
		{ExpectAgreed, 409, failure, false},
		{ExpectAgreed, 200, `<sla service="s"><provider>p</provider></sla>`, false}, // no id
		{ExpectAgreed, 200, `<sla id="x" service="s"></sla>`, false},                // no provider
		{ExpectComposed, 200, sla, true},
		{ExpectComposed, 500, `<error reason="boom"></error>`, false},
		{ExpectNoAgreement, 409, failure, true},
		{ExpectNoAgreement, 200, sla, false},
		{ExpectObserved, 200, obs(false), true},
		{ExpectObserved, 200, obs(true), false},
		{ExpectViolated, 200, obs(true), true},
		{ExpectViolated, 200, "not xml", false},
		{ExpectViolated, 503, obs(true), false},
	} {
		_, err := classify(c.expect, c.status, []byte(c.body))
		if (err == nil) != c.ok {
			t.Errorf("classify(%s, %d, %.40q) error = %v, want ok=%v", c.expect, c.status, c.body, err, c.ok)
		}
	}
}

// TestClosedLoopBoundsConcurrency drives a slow server and checks that
// no more than the client count of connections or client goroutines
// is ever open, and that every client's requests arrive in order.
func TestClosedLoopBoundsConcurrency(t *testing.T) {
	const clients = 3
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Microsecond)
		w.WriteHeader(http.StatusCreated)
	}))
	defer srv.Close()
	var cc connCounter
	client := newHTTPClient(clients, &cc)
	defer client.CloseIdleConnections()
	seqs := make([][]Request, clients)
	for k := range seqs {
		for i := 0; i < 40; i++ {
			seqs[k] = append(seqs[k], Request{Route: "publish", Path: "/", Expect: ExpectCreated})
		}
	}
	res := drive(context.Background(), httpSender(client, srv.URL), seqs, nil)
	if res.failed != 0 {
		t.Fatalf("%d failed: %v", res.failed, res.firstErr)
	}
	if res.peakWorkers > clients || cc.peak.Load() > clients {
		t.Errorf("peak %d goroutines, %d connections; want at most %d", res.peakWorkers, cc.peak.Load(), clients)
	}
	if len(res.latMs) != clients*40 {
		t.Errorf("%d latencies, want %d", len(res.latMs), clients*40)
	}
}

func TestSelfTimesAccountForTheRequest(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	root := span{"server", at(0), at(1000)}
	self := selfTimes(root, []span{
		{"parse", at(10), at(60)},
		{"sla-commit", at(100), at(400)},
		{"store.append", at(150), at(350)},
		{"log", at(500), at(520)},
	})
	want := map[string]time.Duration{
		"codec.parse": 50 * time.Microsecond, "negotiate.commit": 100 * time.Microsecond,
		"store.append": 200 * time.Microsecond, "log": 20 * time.Microsecond,
		"server.unattributed": 630 * time.Microsecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("workloads %v, program runs %v", names, Workloads)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v\nprogram prints %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer %+v\nprogram prints %+v", spec.PerLayer, perLayer)
	}
}

// TestTracedRunReportsEveryLayer runs a short traced run per workload
// and checks that every per-layer metric is reported and that the
// layers each workload is built to exercise do work.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an in-process broker")
	}
	for _, w := range Workloads {
		p, err := Generate(w, 3, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		m, err := tracedRun(context.Background(), t.TempDir(), p)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		for _, d := range perLayer {
			if _, ok := m[d.Name]; !ok {
				t.Errorf("%s: no %s", w, d.Name)
			}
		}
		busy := map[string][]string{
			"serve-mem": {"server.handle_ms.observe", "codec.decode_us.renegotiate", "log.bytes_per_req", "cache.search_hit_ratio",
				"store.append_us", "store.snapshots", "store.disk_append_us"},
			"solve-cold": {"negotiate.nmsccp_ms", "negotiate.prechecked_ratio", "compose.solve_ms", "solver.nodes_per_solve"},
		}[w]
		for _, name := range busy {
			if m[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, name, m[name])
			}
		}
		if w == "solve-cold" && m["store.appends_per_req"] != 0 {
			t.Errorf("%s: store appends without a store pass", w)
		}
	}
}
