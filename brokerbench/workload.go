package main

import (
	"encoding/xml"
	"fmt"
	"math"
	"math/rand"

	"softsoa/internal/broker"
	"softsoa/internal/soa"
	"softsoa/internal/workload"
)

// Expect is the outcome the generator predicts for a request; a reply
// of any other kind counts as failed.
type Expect uint8

const (
	ExpectCreated     Expect = iota // 201: provider published
	ExpectAgreed                    // 200 <sla>: negotiation or renegotiation agreed
	ExpectNoAgreement               // 409 <failure>: no provider agreed
	ExpectComposed                  // 200 <sla>: pipeline composed
	ExpectObserved                  // 200 <observation violated="false">
	ExpectViolated                  // 200 <observation violated="true">
)

func (e Expect) String() string {
	return [...]string{"created", "agreed", "no-agreement", "composed", "observed", "violated"}[e]
}

// Request is one HTTP request of a generated sequence. Bodies are
// encoded once at generation time, so a sequence is the exact bytes
// sent.
type Request struct {
	Route  string // publish, negotiate, observe, renegotiate, compose
	Path   string
	Body   []byte
	Expect Expect
	// Sample marks the requests re-solved in-process after timing.
	Sample bool
}

// Plan is everything one run sends. Per-client sequences are fixed by
// the seed: client k always sends Measured[k] in order, one request
// at a time (closed loop).
type Plan struct {
	Workload string
	Clients  int
	// Docs are published in the warm phase, spread over the clients.
	Docs []soa.Document
	// Pool is negotiated in order by client 0 before anything else,
	// so its agreements get the ids sla-1 … sla-len(Pool).
	Pool []Request
	// Warm and Measured are the per-client closed-loop sequences of
	// the rest of the warm phase and of the measured phase.
	Warm     [][]Request
	Measured [][]Request
}

// Attempted returns the number of measured requests.
func (p *Plan) Attempted() int {
	n := 0
	for _, seq := range p.Measured {
		n += len(seq)
	}
	return n
}

// Workload shapes. Every number below is part of the benchmark
// definition: changing one changes what the benchmark measures.
const (
	// serve-mem: each client owns one service with three providers, a
	// pool of SLAs on it, and draws requirements from a key set the
	// pool negotiates once.
	serveProviders     = 3
	servePoolPerClient = 32
	serveKeys          = 64
	serveWarmPerClient = 400
	// serveViolate is the draw probability of a violating
	// observation; with at most serveMaxViolRun violations in a row
	// per client about 30% of observations violate.
	serveViolate    = 0.31
	serveMaxViolRun = 2

	// solve-cold: half negotiations across coldProviders providers
	// with never-repeating requirements, half compositions over a
	// catalogStages × catalogProviders cost catalogue.
	coldProviders      = 8
	catalogStages      = 24
	catalogProviders   = 40
	catalogRegions     = 4
	coldWindowMin      = 5
	coldWindowMax      = 8
	coldWarmPerClient  = 60
	coldTightDraw      = 0.67
	coldTightDoomedMin = 3
	coldTightDoomedMax = 7

	// warmSeed draws the warm sequences and catalogSeed the composition
	// catalogue: both are part of the workload definition, not of the
	// run's seed, so every run warms up on and composes over the same
	// inputs and only the measured requests vary with the seed.
	warmSeed    = 0
	catalogSeed = 1

	// samplePerClient bounds the requests per client re-solved
	// in-process after timing.
	samplePerClient = 24
)

// nominalRPS sizes the fixed request count of a run: seconds ×
// nominalRPS requests. The count, not a clock, ends the measured
// phase. On a 2-vCPU machine a serve-mem run takes about half of
// seconds.
var nominalRPS = map[string]int{
	"serve-mem":  2250,
	"solve-cold": 450,
}

// Workloads lists the workload names in report order.
var Workloads = []string{"serve-mem", "solve-cold"}

// Generate builds the plan of a workload for a seed. The same
// arguments always give byte-identical requests in the same order.
func Generate(name string, seed int64, seconds, clients int) (*Plan, error) {
	rate, ok := nominalRPS[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if clients < 1 || seconds < 1 {
		return nil, fmt.Errorf("need at least one client and one second")
	}
	perClient := (seconds*rate + clients - 1) / clients
	p := &Plan{Workload: name, Clients: clients}
	var err error
	if name == "solve-cold" {
		err = p.genCold(seed, perClient)
	} else {
		err = p.genServe(seed, perClient)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// clientRNG derives an independent stream per (seed, phase, client).
func clientRNG(seed int64, phase, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(phase)*7919 + int64(client)))
}

func xmlBody(v any) []byte {
	b, err := xml.Marshal(v)
	if err != nil {
		// Only the wire types of the broker package are marshalled.
		panic(fmt.Sprintf("encode request: %v", err))
	}
	return b
}

// round3 keeps generated levels short on the wire.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

func fptr(x float64) *float64 { return &x }

// ---- serve-mem ----

// Each client has its own service, so breaker feedback on its
// providers comes from its own sequence only. Negotiations with every
// key agree with all three providers (they only ever record breaker
// successes), and no client sends more than serveMaxViolRun violating
// observations in a row, so no breaker ever opens: every outcome is
// predictable and identical across runs.
func serveService(k int) string { return fmt.Sprintf("svc-c%d", k) }

func serveDocs(clients int) []soa.Document {
	var docs []soa.Document
	for k := 0; k < clients; k++ {
		for j := 0; j < serveProviders; j++ {
			docs = append(docs, soa.Document{
				Service:  serveService(k),
				Provider: fmt.Sprintf("c%d-p%d", k, j+1),
				Region:   []string{"eu", "us"}[j%2],
				Attributes: []soa.Attribute{{
					Name: "fee", Metric: soa.MetricCost,
					Base: 2 + 0.1*float64(j), PerUnit: 0.5 * float64(j),
					Resource: "failures", MaxUnits: 10,
				}},
			})
		}
	}
	return docs
}

// serveKey is requirement key i: agreed levels are 2 + 0.1·i, within
// [2, 8.3], and the interval [1, 50] admits every provider.
func serveKey(i int) (soa.Attribute, *float64, *float64) {
	return soa.Attribute{
		Name: "budget", Metric: soa.MetricCost,
		Base: round3(0.1 * float64(i)), PerUnit: 1 + 0.5*float64(i%4),
		Resource: "failures", MaxUnits: 10,
	}, fptr(50), fptr(1)
}

func serveNegotiate(k, key int) Request {
	req, lower, upper := serveKey(key)
	return Request{
		Route: "negotiate", Path: "/v1/negotiations", Expect: ExpectAgreed,
		Body: xmlBody(broker.NegotiateRequest{
			Service: serveService(k), Client: fmt.Sprintf("client-%d", k),
			Metric: soa.MetricCost, Requirement: req, Lower: lower, Upper: upper,
		}),
	}
}

func (p *Plan) genServe(seed int64, perClient int) error {
	c := p.Clients
	p.Docs = serveDocs(c)
	// Pool agreement j belongs to client j%c and negotiates key j%serveKeys.
	pools := make([][]string, c)
	for j := 0; j < servePoolPerClient*c; j++ {
		k := j % c
		p.Pool = append(p.Pool, serveNegotiate(k, j%serveKeys))
		pools[k] = append(pools[k], fmt.Sprintf("sla-%d", j+1))
	}
	p.Warm = make([][]Request, c)
	p.Measured = make([][]Request, c)
	for k := 0; k < c; k++ {
		rng := clientRNG(warmSeed, 0, k)
		for i := 0; i < serveWarmPerClient; i++ {
			p.Warm[k] = append(p.Warm[k], serveNegotiate(k, rng.Intn(serveKeys)))
		}
		rng = clientRNG(seed, 1, k)
		run := 0 // violating observations in a row
		sampled := 0
		for i := 0; i < perClient; i++ {
			var r Request
			switch x := rng.Float64(); {
			case x < 0.1:
				r = serveNegotiate(k, rng.Intn(serveKeys))
				if sampled < samplePerClient && rng.Intn(8) == 0 {
					r.Sample = true
					sampled++
				}
			case x < 0.9:
				id := pools[k][rng.Intn(len(pools[k]))]
				violate := rng.Float64() < serveViolate && run < serveMaxViolRun
				// Agreed levels stay within [2, 8.3] whatever the
				// renegotiations did, so these levels classify
				// without tracking them. Repeated retract/tell cycles
				// leave an agreed level a few ulps off its exact
				// value, so no level comes near a boundary.
				level, expect := round3(1+0.9*rng.Float64()), ExpectObserved
				if violate {
					level, expect = round3(10+10*rng.Float64()), ExpectViolated
					run++
				} else {
					run = 0
				}
				r = Request{
					Route: "observe", Path: "/v1/observations", Expect: expect,
					Body: xmlBody(broker.ObserveRequest{ID: id, Level: level}),
				}
			default:
				id := pools[k][rng.Intn(len(pools[k]))]
				req, lower, upper := serveKey(rng.Intn(serveKeys))
				r = Request{
					Route: "renegotiate", Path: "/v1/negotiations/" + id + "/renegotiate",
					Expect: ExpectAgreed,
					Body: xmlBody(broker.RenegotiateRequest{
						ID: id, Requirement: req, Lower: lower, Upper: upper,
					}),
				}
			}
			p.Measured[k] = append(p.Measured[k], r)
		}
	}
	return nil
}

// ---- solve-cold ----

func coldService(k int) string { return fmt.Sprintf("cold-c%d", k) }

// coldDocs gives client k's service coldProviders providers with base
// fees 2, 4, …, 16, so a lower bound between two fees dooms exactly
// the providers above it (c∅ = provider base + requirement base).
func coldDocs(clients int) []soa.Document {
	var docs []soa.Document
	for k := 0; k < clients; k++ {
		for j := 1; j <= coldProviders; j++ {
			docs = append(docs, soa.Document{
				Service:  coldService(k),
				Provider: fmt.Sprintf("c%d-n%d", k, j),
				Region:   fmt.Sprintf("region%d", j%catalogRegions),
				Attributes: []soa.Attribute{{
					Name: "fee", Metric: soa.MetricCost,
					Base: float64(2 * j), PerUnit: 0.25 * float64(j),
					Resource: "load", MaxUnits: 6,
				}},
			})
		}
	}
	return docs
}

func catalogDocs(seed int64) ([]soa.Document, error) {
	reg := soa.NewRegistry()
	err := workload.CostCatalog(reg, workload.CatalogParams{
		Stages: catalogStages, ProvidersPerStage: catalogProviders,
		Regions: catalogRegions, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	var docs []soa.Document
	for _, s := range reg.Services() {
		for _, d := range reg.Discover(s) {
			docs = append(docs, *d)
		}
	}
	return docs, nil
}

// coldStream draws one client's solve-cold requests. A negotiation's
// requirement base and bounds are continuous draws, so requirements
// never repeat. A "tight" lower bound dooms the top 3–7 providers by
// c∅; a tight negotiation is always followed by a loose one (nothing
// doomed), so no provider is doomed twice in a row by one client and
// no breaker opens. About a quarter of provider attempts are doomed.
type coldStream struct {
	rng       *rand.Rand
	k         int
	lastTight bool
}

func (s *coldStream) next() Request {
	rng := s.rng
	if rng.Float64() < 0.5 {
		base := 5 * rng.Float64()
		lower := base + 2*coldProviders + 1 + rng.Float64()
		s.lastTight = !s.lastTight && rng.Float64() < coldTightDraw
		if s.lastTight {
			doomed := coldTightDoomedMin + rng.Intn(coldTightDoomedMax-coldTightDoomedMin+1)
			lower = base + 2*float64(coldProviders-doomed) + 0.5 + rng.Float64()
		}
		return Request{
			Route: "negotiate", Path: "/v1/negotiations", Expect: ExpectAgreed,
			Body: xmlBody(broker.NegotiateRequest{
				Service: coldService(s.k), Client: fmt.Sprintf("client-%d", s.k),
				Metric: soa.MetricCost,
				Requirement: soa.Attribute{
					Name: "budget", Metric: soa.MetricCost,
					Base: base, PerUnit: 0.5 + rng.Float64(),
					Resource: "load", MaxUnits: 6,
				},
				Lower: fptr(lower),
			}),
		}
	}
	n := coldWindowMin + rng.Intn(coldWindowMax-coldWindowMin+1)
	start := rng.Intn(catalogStages - n + 1)
	stages := make([]string, n)
	for i := range stages {
		stages[i] = fmt.Sprintf("stage%d", start+i)
	}
	// The bound is never binding (totals stay far below it) but the
	// (window, bound) pair never repeats.
	return Request{
		Route: "compose", Path: "/v1/compositions", Expect: ExpectComposed,
		Body: xmlBody(broker.ComposeRequest{
			Client: fmt.Sprintf("client-%d", s.k), Metric: soa.MetricCost,
			Stages: stages, Lower: fptr(1e4 + 1e4*rng.Float64()),
		}),
	}
}

func (p *Plan) genCold(seed int64, perClient int) error {
	c := p.Clients
	cat, err := catalogDocs(catalogSeed)
	if err != nil {
		return err
	}
	p.Docs = append(coldDocs(c), cat...)
	p.Warm = make([][]Request, c)
	p.Measured = make([][]Request, c)
	for k := 0; k < c; k++ {
		warm := &coldStream{rng: clientRNG(warmSeed, 0, k), k: k}
		for i := 0; i < coldWarmPerClient; i++ {
			p.Warm[k] = append(p.Warm[k], warm.next())
		}
		s := &coldStream{rng: clientRNG(seed, 1, k), k: k}
		sampled := 0
		for i := 0; i < perClient; i++ {
			r := s.next()
			if sampled < samplePerClient && s.rng.Intn(8) == 0 {
				r.Sample = true
				sampled++
			}
			p.Measured[k] = append(p.Measured[k], r)
		}
	}
	return nil
}

// publishRequests turns the plan's documents into requests for the
// warm phase, dealt round-robin to the clients. Discover sorts by
// provider name, so publish order does not matter.
func (p *Plan) publishRequests() [][]Request {
	out := make([][]Request, p.Clients)
	for i, d := range p.Docs {
		out[i%p.Clients] = append(out[i%p.Clients], Request{
			Route: "publish", Path: "/v1/providers", Expect: ExpectCreated,
			Body: xmlBody(d),
		})
	}
	return out
}
