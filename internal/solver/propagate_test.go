package solver

import (
	"math"
	"reflect"
	"testing"

	"softsoa/internal/core"
	"softsoa/internal/semiring"
	"softsoa/internal/workload"
)

// TestPropagateEquivalence: for invertible semirings, propagation is
// an equivalence-preserving reformulation: c∅ ⊗ (⊗C') = ⊗C pointwise.
func TestPropagateEquivalence(t *testing.T) {
	cases := []struct {
		name string
		make func(seed int64) (*core.Problem[float64], error)
	}{
		{"weighted", func(seed int64) (*core.Problem[float64], error) {
			return workload.RandomWeightedSCSP(workload.SCSPParams{
				Vars: 5, DomainSize: 3, Density: 0.7, Tightness: 0.9, Seed: seed,
			})
		}},
		{"fuzzy", func(seed int64) (*core.Problem[float64], error) {
			return workload.RandomFuzzySCSP(workload.SCSPParams{
				Vars: 5, DomainSize: 3, Density: 0.7, Tightness: 0.8, Seed: seed,
			})
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				p, err := tc.make(seed)
				if err != nil {
					t.Fatal(err)
				}
				q, czero, stats := Propagate(p, 0)
				// The rebuilt problem already contains Constant(czero), so
				// the combined tables must be pointwise equal.
				if !core.Eq(p.Combined(), q.Combined()) {
					t.Fatalf("seed %d: propagation changed the combined constraint", seed)
				}
				sr := p.Space().Semiring()
				if !sr.Leq(p.Blevel(), czero) {
					t.Errorf("seed %d: c∅ = %v is not an upper bound on blevel %v",
						seed, czero, p.Blevel())
				}
				if stats.Rounds == 0 {
					t.Errorf("seed %d: no rounds recorded", seed)
				}
				// The index-native tables match a label-keyed read of
				// the same input, bit for bit.
				rq, rczero, rstats := propagateByLabel(p, 0)
				if math.Float64bits(czero) != math.Float64bits(rczero) || stats != rstats {
					t.Fatalf("seed %d: c∅ %v stats %+v, label-keyed reference %v %+v",
						seed, czero, stats, rczero, rstats)
				}
				assertSameTables(t, q, rq)
			}
		})
	}
}

// assertSameTables fails unless the two problems hold the same
// constraints, in the same order, with bitwise-equal tables.
func assertSameTables(t *testing.T, got, want *core.Problem[float64]) {
	t.Helper()
	gc, wc := got.Constraints(), want.Constraints()
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
				t.Fatalf("constraint %d over %v: tuple %d = %v, want %v",
					k, wc[k].Scope(), i, gv[i], wv[i])
			}
		}
	}
}

// propagateByLabel is the reference soft-AC propagation: it reads each
// table tuple by tuple through AtLabels into nested slices and rebuilds
// the rewritten constraints through label-keyed NewConstraint calls.
// Constraint order and every fold order are those of Propagate.
func propagateByLabel[T any](p *core.Problem[T], maxRounds int) (*core.Problem[T], T, PropagationStats) {
	s := p.Space()
	sr := s.Semiring()
	stats := PropagationStats{}
	type unary struct {
		v      core.Variable
		dom    []core.DVal
		levels []T
	}
	type binary struct {
		x, y   core.Variable
		dx, dy []core.DVal
		m      [][]T
	}
	unaries := map[core.Variable]*unary{}
	var unaryOrder []*unary
	getUnary := func(v core.Variable) *unary {
		if u, ok := unaries[v]; ok {
			return u
		}
		dom := s.Domain(v)
		u := &unary{v: v, dom: dom, levels: make([]T, len(dom))}
		for i := range u.levels {
			u.levels[i] = sr.One()
		}
		unaries[v] = u
		unaryOrder = append(unaryOrder, u)
		return u
	}
	var binaries []*binary
	var passthrough []*core.Constraint[T]
	czero := sr.One()
	for _, c := range p.Constraints() {
		scope := c.Scope()
		switch len(scope) {
		case 0:
			czero = sr.Times(czero, c.AtLabels())
		case 1:
			u := getUnary(scope[0])
			for i, d := range u.dom {
				u.levels[i] = sr.Times(u.levels[i], c.AtLabels(d.Label))
			}
		case 2:
			x, y := scope[0], scope[1]
			dx, dy := s.Domain(x), s.Domain(y)
			m := make([][]T, len(dx))
			for i, dvx := range dx {
				m[i] = make([]T, len(dy))
				for j, dvy := range dy {
					m[i][j] = c.AtLabels(dvx.Label, dvy.Label)
				}
			}
			binaries = append(binaries, &binary{x: x, y: y, dx: dx, dy: dy, m: m})
			getUnary(x)
			getUnary(y)
		default:
			passthrough = append(passthrough, c)
		}
	}
	if maxRounds <= 0 {
		maxRounds = defaultPropRounds
	}
	shift := func(levels []T, i int, alpha T, div func(T)) bool {
		if sr.Eq(alpha, sr.One()) {
			return false
		}
		stats.Shifts++
		levels[i] = sr.Times(levels[i], alpha)
		div(alpha)
		return true
	}
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, b := range binaries {
			ux, uy := unaries[b.x], unaries[b.y]
			for i := range b.dx {
				alpha := sr.Zero()
				for j := range b.dy {
					alpha = sr.Plus(alpha, b.m[i][j])
				}
				changed = shift(ux.levels, i, alpha, func(a T) {
					for j := range b.dy {
						b.m[i][j] = sr.Div(b.m[i][j], a)
					}
				}) || changed
			}
			for j := range b.dy {
				alpha := sr.Zero()
				for i := range b.dx {
					alpha = sr.Plus(alpha, b.m[i][j])
				}
				changed = shift(uy.levels, j, alpha, func(a T) {
					for i := range b.dx {
						b.m[i][j] = sr.Div(b.m[i][j], a)
					}
				}) || changed
			}
		}
		for _, u := range unaryOrder {
			beta := sr.Zero()
			for _, lv := range u.levels {
				beta = sr.Plus(beta, lv)
			}
			if !sr.Eq(beta, sr.One()) {
				changed = true
				stats.Shifts++
				czero = sr.Times(czero, beta)
				for i := range u.levels {
					u.levels[i] = sr.Div(u.levels[i], beta)
				}
			}
		}
		stats.Rounds = round + 1
		if !changed {
			break
		}
	}
	labelIndex := func(dom []core.DVal) map[string]int {
		idx := map[string]int{}
		for i, d := range dom {
			idx[d.Label] = i
		}
		return idx
	}
	out := core.NewProblem(s, p.Con()...)
	out.Add(core.Constant(s, czero))
	for _, u := range unaryOrder {
		u := u
		allOne := true
		for _, lv := range u.levels {
			allOne = allOne && sr.Eq(lv, sr.One())
		}
		if allOne {
			continue
		}
		idx := labelIndex(u.dom)
		out.Add(core.NewConstraint(s, []core.Variable{u.v}, func(a core.Assignment) T {
			return u.levels[idx[a.Label(u.v)]]
		}))
	}
	for _, b := range binaries {
		b := b
		ix, iy := labelIndex(b.dx), labelIndex(b.dy)
		out.Add(core.NewConstraint(s, []core.Variable{b.x, b.y}, func(a core.Assignment) T {
			return b.m[ix[a.Label(b.x)]][iy[a.Label(b.y)]]
		}))
	}
	out.Add(passthrough...)
	return out, czero, stats
}

func TestPropagateReachesFixpoint(t *testing.T) {
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 5, DomainSize: 4, Density: 0.8, Tightness: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, czero1, stats1 := Propagate(p, 0)
	if stats1.Shifts == 0 {
		t.Fatal("expected shifts on a tight problem")
	}
	// Propagating the already-propagated problem must be a no-op
	// beyond re-deriving the same c∅ (the constant constraint carries
	// it; unary/binary tables are already consistent).
	_, czero2, stats2 := Propagate(q, 0)
	if czero2 != czero1 {
		t.Errorf("second propagation changed c∅: %v -> %v", czero1, czero2)
	}
	if stats2.Shifts != 0 {
		t.Errorf("second propagation still shifted %d times", stats2.Shifts)
	}
}

func TestPropagateSolversAgree(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
			Vars: 6, DomainSize: 3, Density: 0.6, Tightness: 0.9, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		q, _, _ := Propagate(p, 0)
		orig := BranchAndBound(p)
		prop := BranchAndBound(q)
		if orig.Blevel != prop.Blevel {
			t.Errorf("seed %d: propagation changed the optimum: %v vs %v",
				seed, orig.Blevel, prop.Blevel)
		}
	}
}

func TestPropagateImprovesPruning(t *testing.T) {
	// With c∅ folded in at the root and unary tables sharpened, plain
	// B&B prunes at least as well on the propagated problem for these
	// seeds.
	improvedSomewhere := false
	for seed := int64(1); seed <= 8; seed++ {
		p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
			Vars: 7, DomainSize: 3, Density: 0.7, Tightness: 1, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		q, _, _ := Propagate(p, 0)
		orig := BranchAndBound(p)
		prop := BranchAndBound(q)
		if prop.Stats.Nodes < orig.Stats.Nodes {
			improvedSomewhere = true
		}
	}
	if !improvedSomewhere {
		t.Error("propagation never reduced B&B nodes across 8 seeds")
	}
}

func TestPropagatePassesThroughHigherArity(t *testing.T) {
	s := core.NewSpace[float64](semiring.Weighted{})
	x := s.AddVariable("x", core.IntDomain(0, 1))
	y := s.AddVariable("y", core.IntDomain(0, 1))
	z := s.AddVariable("z", core.IntDomain(0, 1))
	p := core.NewProblem(s, x)
	ternary := core.NewConstraint(s, []core.Variable{x, y, z}, func(a core.Assignment) float64 {
		return a.Num(x) + a.Num(y) + a.Num(z)
	})
	p.Add(ternary)
	p.Add(core.Unary(s, x, map[string]float64{"0": 2, "1": 3}))
	q, czero, _ := Propagate(p, 0)
	if !core.Eq(p.Combined(), q.Combined()) {
		t.Fatal("equivalence broken with ternary passthrough")
	}
	// The unary's lub (2) must have moved into c∅.
	if czero != 2 {
		t.Errorf("c∅ = %v, want 2", czero)
	}
}

func TestPropagateEmptyProblem(t *testing.T) {
	s := core.NewSpace[float64](semiring.Weighted{})
	x := s.AddVariable("x", core.IntDomain(0, 1))
	p := core.NewProblem(s, x)
	q, czero, _ := Propagate(p, 0)
	if czero != 0 {
		t.Errorf("c∅ = %v, want 0 (the One)", czero)
	}
	if got := q.Blevel(); got != 0 {
		t.Errorf("blevel = %v", got)
	}
}
