package solver

import (
	"softsoa/internal/core"
)

// defaultPropRounds caps propagation sweeps when the caller passes
// maxRounds <= 0. The fixpoint cache key normalises rounds through
// the same constant, so Propagate(p, 0) and Propagate(p, 16) share
// one entry.
const defaultPropRounds = 16

// PropagationStats records the work of a Propagate run.
type PropagationStats struct {
	// Rounds is the number of sweeps until fixpoint (or the cap).
	Rounds int
	// Shifts counts individual cost moves (arc → unary → zero-arity).
	Shifts int64
}

// Propagate enforces soft node and arc consistency on the unary and
// binary constraints of the problem, in the style of cost-shifting
// soft-AC algorithms: for every binary constraint and every value of
// one of its variables, the best (lub) level reachable on the other
// side is divided out of the binary table (the ÷ residual) and
// multiplied into the variable's unary level; unary levels in turn
// shift their lub into a zero-arity level c∅. For invertible
// semirings — all the classical instances — the transformation is
// equivalence-preserving: c∅ ⊗ (⊗C') = ⊗C pointwise.
//
// The returned problem has the same space and variables of interest;
// c∅ is returned separately and is a sound bound on the blevel
// (blevel ≤ c∅): the "necessary cost" every complete assignment pays.
// Constraints of arity other than 1 or 2 pass through untouched.
func Propagate[T any](p *core.Problem[T], maxRounds int) (*core.Problem[T], T, PropagationStats) {
	s := p.Space()
	sr := s.Semiring()
	stats := PropagationStats{}

	type unary struct {
		v      core.Variable
		levels []T
	}
	type binary struct {
		ux, uy *unary // x and y, x declared first
		m      []T    // m[i*len(uy.levels)+j] over the i-th x and j-th y value
	}

	// unaryOrder mirrors the map in first-creation order (a function
	// of the deterministic constraint order): all sweeps and the
	// output rebuild iterate the slice, never the map, so the c∅
	// accumulation order — and with it every floating-point fold —
	// is identical across runs.
	unaries := map[core.Variable]*unary{}
	var unaryOrder []*unary
	getUnary := func(v core.Variable) *unary {
		if u, ok := unaries[v]; ok {
			return u
		}
		levels := make([]T, len(s.Domain(v)))
		for i := range levels {
			levels[i] = sr.One()
		}
		u := &unary{v: v, levels: levels}
		unaries[v] = u
		unaryOrder = append(unaryOrder, u)
		return u
	}

	var binaries []*binary
	var passthrough []*core.Constraint[T]
	czero := sr.One()

	// Tables are read once in the mixed-radix order of Values, so a
	// binary table over (x, y) lands row-major with x, the earlier
	// declared variable, as the row.
	var vals []T
	for _, c := range p.Constraints() {
		scope := c.Scope()
		switch len(scope) {
		case 0:
			czero = sr.Times(czero, c.Values(vals[:0])[0])
		case 1:
			u := getUnary(scope[0])
			vals = c.Values(vals[:0])
			for i, v := range vals {
				u.levels[i] = sr.Times(u.levels[i], v)
			}
		case 2:
			binaries = append(binaries, &binary{
				ux: getUnary(scope[0]), uy: getUnary(scope[1]), m: c.Values(nil),
			})
		default:
			passthrough = append(passthrough, c)
		}
	}

	if maxRounds <= 0 {
		maxRounds = defaultPropRounds
	}
	for round := 0; round < maxRounds; round++ {
		changed := false
		// Arc consistency: shift row/column lubs into unary levels.
		for _, b := range binaries {
			nx, ny := len(b.ux.levels), len(b.uy.levels)
			for i := 0; i < nx; i++ {
				row := b.m[i*ny : (i+1)*ny]
				alpha := sr.Zero()
				for _, v := range row {
					alpha = sr.Plus(alpha, v)
				}
				if !sr.Eq(alpha, sr.One()) {
					changed = true
					stats.Shifts++
					b.ux.levels[i] = sr.Times(b.ux.levels[i], alpha)
					for j := range row {
						row[j] = sr.Div(row[j], alpha)
					}
				}
			}
			for j := 0; j < ny; j++ {
				alpha := sr.Zero()
				for i := 0; i < nx; i++ {
					alpha = sr.Plus(alpha, b.m[i*ny+j])
				}
				if !sr.Eq(alpha, sr.One()) {
					changed = true
					stats.Shifts++
					b.uy.levels[j] = sr.Times(b.uy.levels[j], alpha)
					for i := 0; i < nx; i++ {
						b.m[i*ny+j] = sr.Div(b.m[i*ny+j], alpha)
					}
				}
			}
		}
		// Node consistency: shift unary lubs into the zero-arity level.
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

	out := core.NewProblem(s, p.Con()...)
	out.Add(core.Constant(s, czero))
	for _, u := range unaryOrder {
		allOne := true
		for _, lv := range u.levels {
			if !sr.Eq(lv, sr.One()) {
				allOne = false
				break
			}
		}
		if allOne {
			continue
		}
		out.Add(core.NewTable(s, []core.Variable{u.v}, u.levels))
	}
	for _, b := range binaries {
		out.Add(core.NewTable(s, []core.Variable{b.ux.v, b.uy.v}, b.m))
	}
	out.Add(passthrough...)
	return out, czero, stats
}
