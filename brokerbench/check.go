package main

import (
	"context"
	"encoding/xml"
	"fmt"
	"math"
	"slices"

	"softsoa/internal/broker"
	"softsoa/internal/cache"
	"softsoa/internal/policy"
	"softsoa/internal/soa"
	"softsoa/internal/solver"
)

// expectStatus is the HTTP status of each predicted outcome.
var expectStatus = [...]int{
	ExpectCreated: 201, ExpectAgreed: 200, ExpectComposed: 200,
	ExpectObserved: 200, ExpectViolated: 200, ExpectNoAgreement: 409,
}

// classify checks one reply against the predicted outcome: the status
// code and the body's element must both match. It returns the decoded
// SLA for agreed and composed replies.
func classify(expect Expect, status int, body []byte) (*soa.SLA, error) {
	if want := expectStatus[expect]; status != want {
		return nil, fmt.Errorf("status %d, want %d (%s): %.200s", status, want, expect, body)
	}
	switch expect {
	case ExpectCreated:
		return nil, nil
	case ExpectAgreed, ExpectComposed:
		var sla soa.SLA
		if err := xml.Unmarshal(body, &sla); err != nil {
			return nil, fmt.Errorf("decode %s reply: %w", expect, err)
		}
		if len(sla.Providers) == 0 {
			return nil, fmt.Errorf("%s reply binds no provider: %.200s", expect, body)
		}
		if expect == ExpectAgreed && sla.ID == "" {
			return nil, fmt.Errorf("agreed reply without SLA id: %.200s", body)
		}
		return &sla, nil
	case ExpectNoAgreement:
		var f broker.FailureResponse
		if err := xml.Unmarshal(body, &f); err != nil {
			return nil, fmt.Errorf("decode failure reply: %w", err)
		}
		return nil, nil
	default: // observed / violated
		var o broker.ObserveResponse
		if err := xml.Unmarshal(body, &o); err != nil {
			return nil, fmt.Errorf("decode observation reply: %w", err)
		}
		if o.Violated != (expect == ExpectViolated) {
			return nil, fmt.Errorf("observation violated=%v, want %s", o.Violated, expect)
		}
		return nil, nil
	}
}

// sampled is one reply kept for the in-process re-solve.
type sampled struct {
	req Request
	sla *soa.SLA // nil for a predicted no-agreement
}

// resolveSample re-solves the sampled requests in-process over a
// registry holding the plan's documents and compares with the
// broker's replies: negotiations with a cache-less Negotiator (the
// broker replays cached plans, so this checks cached ≡ cold) and
// compositions with Composer.Compose on a fresh cache and one solver
// worker (the broker solves on all CPUs: parallel ≡ sequential).
func resolveSample(docs []soa.Document, samples []sampled) error {
	reg := soa.NewRegistry()
	for i := range docs {
		if err := reg.Publish(&docs[i]); err != nil {
			return fmt.Errorf("re-solve registry: %w", err)
		}
	}
	neg := broker.NewNegotiator(reg)
	for _, s := range samples {
		var got *soa.SLA
		switch s.req.Route {
		case "negotiate":
			var nr broker.NegotiateRequest
			if err := xml.Unmarshal(s.req.Body, &nr); err != nil {
				return err
			}
			sla, _, err := neg.Negotiate(context.Background(), broker.Request{
				Service: nr.Service, Client: nr.Client, Metric: nr.Metric,
				Requirement: nr.Requirement, Lower: nr.Lower, Upper: nr.Upper,
				Capabilities: policy.Requirement{Must: nr.Must, May: nr.May},
			})
			if err != nil {
				return fmt.Errorf("re-solve negotiation: %w", err)
			}
			got = sla
		case "compose":
			var cr broker.ComposeRequest
			if err := xml.Unmarshal(s.req.Body, &cr); err != nil {
				return err
			}
			comp := broker.NewComposer(reg, broker.DefaultLinkPenalty,
				broker.WithComposerSolveCache(cache.New(64)),
				broker.WithSolverOptions(solver.WithWorkers(1)))
			sla, _, err := comp.Compose(broker.PipelineRequest{
				Client: cr.Client, Stages: cr.Stages, Metric: cr.Metric, Lower: cr.Lower,
				Capabilities: policy.Requirement{Must: cr.Must, May: cr.May},
			})
			if err != nil {
				return fmt.Errorf("re-solve composition: %w", err)
			}
			got = sla
		default:
			continue
		}
		if err := sameSLA(s.sla, got); err != nil {
			return fmt.Errorf("%s %s: broker and in-process re-solve disagree: %w",
				s.req.Route, s.req.Body, err)
		}
	}
	return nil
}

// sameSLA compares two agreements field by field, the level bit for
// bit; ids and versions are the broker's bookkeeping and are skipped.
func sameSLA(a, b *soa.SLA) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("one side agreed, the other did not (%v vs %v)", a != nil, b != nil)
	}
	if a == nil {
		return nil
	}
	switch {
	case math.Float64bits(a.AgreedLevel) != math.Float64bits(b.AgreedLevel):
		return fmt.Errorf("agreed level %v vs %v", a.AgreedLevel, b.AgreedLevel)
	case !slices.Equal(a.Providers, b.Providers):
		return fmt.Errorf("providers %v vs %v", a.Providers, b.Providers)
	case a.Service != b.Service || a.Client != b.Client || a.Metric != b.Metric:
		return fmt.Errorf("header %s/%s/%s vs %s/%s/%s",
			a.Service, a.Client, a.Metric, b.Service, b.Client, b.Metric)
	case !slices.Equal(a.Resources, b.Resources):
		return fmt.Errorf("resources %v vs %v", a.Resources, b.Resources)
	}
	return nil
}
