package broker

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"softsoa/internal/core"
	"softsoa/internal/policy"
	"softsoa/internal/semiring"
	"softsoa/internal/soa"
	"softsoa/internal/solver"
	"softsoa/internal/workload"
)

// refCandidates is the reference candidate scan: each provider's best
// level is the blevel of a one-variable problem over its attribute's
// resource domain.
func (c *Composer) refCandidates(sr semiring.Semiring[float64], req PipelineRequest, stage string) ([]candidate, error) {
	var out []candidate
	for _, d := range c.reg.Discover(stage) {
		if c.filter != nil {
			if ok, _ := c.filter(d.Provider); !ok {
				continue
			}
		}
		attr, ok := d.Attr(req.Metric)
		if !ok {
			continue
		}
		if len(req.Capabilities.Must) > 0 || len(req.Capabilities.May) > 0 {
			match, err := c.vocab.Evaluate(req.Capabilities, policy.Offer{Supports: d.Capabilities})
			if err != nil {
				return nil, err
			}
			if !match.Satisfied {
				continue
			}
		}
		space := core.NewSpace[float64](sr)
		res := space.AddVariable(core.Variable(attr.Resource), attr.ResourceDomain())
		con, err := attr.ToConstraint(space, res)
		if err != nil {
			return nil, err
		}
		out = append(out, candidate{provider: d.Provider, region: d.Region, level: core.Blevel(con)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("broker: no providers with a %q attribute for stage %q", req.Metric, stage)
	}
	return out, nil
}

// refEncode is the reference composition SCSP, built tuple by tuple
// through label-keyed NewConstraint closures.
func (c *Composer) refEncode(
	sr semiring.Semiring[float64],
	req PipelineRequest,
	cands [][]candidate,
) (*core.Problem[float64], []core.Variable) {
	space := core.NewSpace[float64](sr)
	vars := make([]core.Variable, len(req.Stages))
	for i := range req.Stages {
		vars[i] = space.AddVariable(core.Variable(fmt.Sprintf("s%d", i)), core.IntDomain(0, len(cands[i])-1))
	}
	p := core.NewProblem(space, vars...)
	for i := range req.Stages {
		i, v := i, vars[i]
		p.Add(core.NewConstraint(space, []core.Variable{v}, func(a core.Assignment) float64 {
			return cands[i][int(a.Num(v))].level
		}))
	}
	for i := 0; i+1 < len(req.Stages); i++ {
		i, u, v := i, vars[i], vars[i+1]
		p.Add(core.NewConstraint(space, []core.Variable{u, v}, func(a core.Assignment) float64 {
			if cands[i][int(a.Num(u))].region == cands[i+1][int(a.Num(v))].region {
				return sr.One()
			}
			if req.Metric == soa.MetricCost || req.Metric == soa.MetricDowntime {
				return c.penalty.Cost
			}
			return c.penalty.Factor
		}))
	}
	return p, vars
}

// metricCatalog republishes a seeded cost catalogue under metric. For
// the percentage metrics the base fee becomes a 5–100% base and the
// per-unit fee is shifted to [-1, 2), so levels hit both clamps.
func metricCatalog(t *testing.T, params workload.CatalogParams, metric soa.Metric) *soa.Registry {
	t.Helper()
	base := soa.NewRegistry()
	if err := workload.CostCatalog(base, params); err != nil {
		t.Fatal(err)
	}
	reg := soa.NewRegistry()
	for _, stage := range params.StageNames() {
		for _, d := range base.Discover(stage) {
			a := &d.Attributes[0]
			a.Metric = metric
			if metric == soa.MetricReliability || metric == soa.MetricPreference {
				a.Base *= 5
				a.PerUnit--
			}
			if err := reg.Publish(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	return reg
}

// TestComposeMatchesReference: the index-built candidates and tables
// are bitwise those of the closure-built reference, and Compose agrees
// with the reference problem solved sequentially — same choices,
// bit-identical total, and the same search counters.
func TestComposeMatchesReference(t *testing.T) {
	params := workload.CatalogParams{Stages: 6, ProvidersPerStage: 12, Regions: 3, Seed: 17}
	for _, metric := range []soa.Metric{soa.MetricCost, soa.MetricDowntime, soa.MetricReliability, soa.MetricPreference} {
		t.Run(string(metric), func(t *testing.T) {
			c := NewComposer(metricCatalog(t, params, metric), DefaultLinkPenalty,
				WithSolverOptions(solver.WithWorkers(1)))
			sr, err := soa.SemiringFor(metric)
			if err != nil {
				t.Fatal(err)
			}
			req := PipelineRequest{Client: "ref", Stages: params.StageNames(), Metric: metric}
			cands := make([][]candidate, len(req.Stages))
			for i, stage := range req.Stages {
				got, err := c.candidates(sr, req, stage)
				if err != nil {
					t.Fatal(err)
				}
				want, err := c.refCandidates(sr, req, stage)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("stage %s: %d candidates, want %d", stage, len(got), len(want))
				}
				for k := range want {
					g, w := got[k], want[k]
					if g.provider != w.provider || g.region != w.region ||
						math.Float64bits(g.level) != math.Float64bits(w.level) {
						t.Fatalf("stage %s candidate %d: %+v, want %+v", stage, k, g, w)
					}
				}
				cands[i] = got
			}

			p, _ := c.encode(sr, req, cands)
			rp, rvars := c.refEncode(sr, req, cands)
			gc, wc := p.Constraints(), rp.Constraints()
			if len(gc) != len(wc) {
				t.Fatalf("%d constraints, want %d", len(gc), len(wc))
			}
			for k := range wc {
				if !reflect.DeepEqual(gc[k].Scope(), wc[k].Scope()) {
					t.Fatalf("constraint %d: scope %v, want %v", k, gc[k].Scope(), wc[k].Scope())
				}
				gv, wv := gc[k].Values(nil), wc[k].Values(nil)
				for i := range wv {
					if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
						t.Fatalf("constraint %d over %v: tuple %d = %v, want %v", k, wc[k].Scope(), i, gv[i], wv[i])
					}
				}
			}

			_, comp, err := c.Compose(req)
			if err != nil {
				t.Fatal(err)
			}
			ref := solver.BranchAndBound(rp, c.solveOpts(req)...)
			if len(ref.Best) == 0 {
				t.Fatal("reference found no composition")
			}
			if math.Float64bits(comp.Total) != math.Float64bits(ref.Best[0].Value) {
				t.Fatalf("Total = %v, reference %v", comp.Total, ref.Best[0].Value)
			}
			if comp.Nodes != ref.Stats.Nodes || comp.Prunes != ref.Stats.Prunes {
				t.Fatalf("nodes/prunes = %d/%d, reference %d/%d",
					comp.Nodes, comp.Prunes, ref.Stats.Nodes, ref.Stats.Prunes)
			}
			for i, v := range rvars {
				if want := cands[i][int(ref.Best[0].Assignment.Num(v))].provider; comp.Choices[i].Provider != want {
					t.Fatalf("stage %d: chose %s, reference %s", i, comp.Choices[i].Provider, want)
				}
			}
		})
	}
}
