package core

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"softsoa/internal/semiring"
)

// fig1Space builds the weighted CSP of Fig. 1 of the paper: variables
// X, Y over {a,b}; c1 unary on X (a→1, b→9); c3 unary on Y (a→5,
// b→5); c2 binary (⟨a,a⟩→5, ⟨a,b⟩→1, ⟨b,a⟩→2, ⟨b,b⟩→2).
func fig1Space() (*Space[float64], []*Constraint[float64]) {
	s := NewSpace[float64](semiring.Weighted{})
	x := s.AddVariable("X", LabelDomain("a", "b"))
	y := s.AddVariable("Y", LabelDomain("a", "b"))
	c1 := Unary(s, x, map[string]float64{"a": 1, "b": 9})
	c3 := Unary(s, y, map[string]float64{"a": 5, "b": 5})
	c2 := Binary(s, x, y, map[[2]string]float64{
		{"a", "a"}: 5, {"a", "b"}: 1, {"b", "a"}: 2, {"b", "b"}: 2,
	})
	return s, []*Constraint[float64]{c1, c2, c3}
}

func TestFig1CombinedTuples(t *testing.T) {
	s, cs := fig1Space()
	comb := CombineAll(s, cs...)
	want := map[[2]string]float64{
		{"a", "a"}: 11, {"a", "b"}: 7, {"b", "a"}: 16, {"b", "b"}: 16,
	}
	for tuple, w := range want {
		if got := comb.AtLabels(tuple[0], tuple[1]); got != w {
			t.Errorf("combined⟨%s,%s⟩ = %v, want %v", tuple[0], tuple[1], got, w)
		}
	}
}

func TestFig1SolutionAndBlevel(t *testing.T) {
	s, cs := fig1Space()
	p := NewProblem(s, "X").Add(cs...)
	sol := p.Sol()
	if got := sol.AtLabels("a"); got != 7 {
		t.Errorf("Sol(P)⟨a⟩ = %v, want 7", got)
	}
	if got := sol.AtLabels("b"); got != 16 {
		t.Errorf("Sol(P)⟨b⟩ = %v, want 16", got)
	}
	if got := p.Blevel(); got != 7 {
		t.Errorf("blevel(P) = %v, want 7", got)
	}
	if !p.AlphaConsistent(7) {
		t.Error("P should be 7-consistent")
	}
	if p.AlphaConsistent(6) {
		t.Error("P should not be 6-consistent")
	}
	if !p.Consistent() {
		t.Error("P should be consistent")
	}
}

func TestInconsistentProblem(t *testing.T) {
	s := NewSpace[bool](semiring.Classical{})
	x := s.AddVariable("x", LabelDomain("0", "1"))
	p := NewProblem(s, x)
	p.Add(Unary(s, x, map[string]bool{"0": false, "1": false}))
	if p.Consistent() {
		t.Error("all-false problem should be inconsistent")
	}
}

func TestProjectionDefinition(t *testing.T) {
	// Projection associates with each remaining tuple the semiring sum
	// over all extensions; verify against a hand computation.
	s, cs := fig1Space()
	comb := CombineAll(s, cs...)
	proj := ProjectTo(comb, "Y")
	// Y=a: min(11,16)=11; Y=b: min(7,16)=7.
	if got := proj.AtLabels("a"); got != 11 {
		t.Errorf("⇓Y ⟨a⟩ = %v, want 11", got)
	}
	if got := proj.AtLabels("b"); got != 7 {
		t.Errorf("⇓Y ⟨b⟩ = %v, want 7", got)
	}
}

func TestProjectionStaged(t *testing.T) {
	// c ⇓ ∅ computed directly equals projecting variables one by one.
	s, cs := fig1Space()
	comb := CombineAll(s, cs...)
	direct := Blevel(comb)
	staged := Blevel(ProjectOut(ProjectOut(comb, "X"), "Y"))
	if direct != staged {
		t.Errorf("staged projection %v != direct %v", staged, direct)
	}
	if got := len(ProjectTo(comb).Scope()); got != 0 {
		t.Errorf("ProjectTo() should have empty scope, got %d vars", got)
	}
}

func TestExistsIsProjection(t *testing.T) {
	s, cs := fig1Space()
	comb := CombineAll(s, cs...)
	if !Eq(Exists(comb, "Y"), ProjectOut(comb, "Y")) {
		t.Error("∃Y c should equal c ⇓ scope\\{Y}")
	}
}

func TestDiagonalParameterPassing(t *testing.T) {
	// Diagonal constraints model parameter passing: combining d_xy
	// with a constraint on x and projecting out x transfers the
	// constraint to y.
	s := NewSpace[float64](semiring.Weighted{})
	x := s.AddVariable("x", IntDomain(0, 3))
	y := s.AddVariable("y", IntDomain(0, 3))
	cx := NewConstraint(s, []Variable{x}, func(a Assignment) float64 { return 2 * a.Num(x) })
	d := Diagonal(s, x, y)
	moved := ProjectOut(Combine(cx, d), x)
	for v := 0; v <= 3; v++ {
		want := 2 * float64(v)
		if got := moved.AtLabels(itoa(v)); got != want {
			t.Errorf("moved(y=%d) = %v, want %v", v, got, want)
		}
	}
	if !Eq(Diagonal(s, x, x), Top(s)) {
		t.Error("d_xx should be 1̄")
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

func TestCombineIdentityAndAnnihilator(t *testing.T) {
	s, cs := fig1Space()
	c := cs[1]
	if !Eq(Combine(c, Top(s)), c) {
		t.Error("c ⊗ 1̄ should equal c")
	}
	if !Eq(Combine(c, Bottom(s)), Bottom(s)) {
		t.Error("c ⊗ 0̄ should equal 0̄")
	}
	if !Eq(Combine(cs[0], cs[2]), Combine(cs[2], cs[0])) {
		t.Error("⊗ should be commutative")
	}
}

func TestDivideUndoesCombine(t *testing.T) {
	// For the weighted semiring (invertible by residuation),
	// (c1 ⊗ c2) ÷ c2 = c1 pointwise whenever values are finite.
	_, cs := fig1Space()
	comb := Combine(cs[0], cs[1])
	back := Divide(comb, cs[1])
	if !Eq(back, cs[0]) {
		t.Errorf("(c1⊗c2)÷c2 = %v, want c1 = %v", back, cs[0])
	}
}

func TestLeqEntailment(t *testing.T) {
	s, cs := fig1Space()
	comb := CombineAll(s, cs...)
	// The combination is ⊑ every member (× is intensive).
	for i, c := range cs {
		if !Leq(comb, c) {
			t.Errorf("⊗C ⊑ c%d should hold", i+1)
		}
	}
	if !Entails(s, cs, cs[0]) {
		t.Error("C ⊢ c1 should hold")
	}
	// A strictly better constraint is entailed, a worse one is not.
	weaker := Unary(s, "X", map[string]float64{"a": 0.5, "b": 8})
	if !Leq(cs[0], weaker) {
		t.Error("c1 ⊑ weaker should hold")
	}
	if Leq(weaker, cs[0]) {
		t.Error("weaker ⊑ c1 should not hold")
	}
	if !Lt(cs[0], weaker) || Lt(cs[0], cs[0]) {
		t.Error("strict constraint order wrong")
	}
}

func TestStoreTellRetract(t *testing.T) {
	// Store algebra of Example 2: σ = c4 ⊗ c3 = 3x+5; retracting
	// c1 = x+3 leaves 2x+2.
	s := NewSpace[float64](semiring.Weighted{})
	x := s.AddVariable("x", IntDomain(0, 10))
	c4 := NewConstraint(s, []Variable{x}, func(a Assignment) float64 { return a.Num(x) + 5 })
	c3 := NewConstraint(s, []Variable{x}, func(a Assignment) float64 { return 2 * a.Num(x) })
	c1 := NewConstraint(s, []Variable{x}, func(a Assignment) float64 { return a.Num(x) + 3 })

	st := NewStore(s)
	if got := st.Blevel(); got != 0 {
		t.Fatalf("empty store blevel = %v, want 0 (the One of weighted)", got)
	}
	st.Tell(c4)
	st.Tell(c3)
	if got := st.Blevel(); got != 5 {
		t.Fatalf("store blevel after tells = %v, want 5", got)
	}
	if !st.Entails(c1) {
		t.Fatal("σ = 3x+5 should entail c1 = x+3")
	}
	if !st.Retract(c1) {
		t.Fatal("retract c1 should succeed")
	}
	for v := 0; v <= 10; v++ {
		want := 2*float64(v) + 2
		if got := st.Constraint().AtLabels(itoa(v)); got != want {
			t.Errorf("σ(x=%d) = %v, want %v", v, got, want)
		}
	}
	if got := st.Blevel(); got != 2 {
		t.Errorf("store blevel after retract = %v, want 2", got)
	}
}

func TestStoreRetractRefusesUnentailed(t *testing.T) {
	s := NewSpace[float64](semiring.Weighted{})
	x := s.AddVariable("x", IntDomain(0, 5))
	weak := NewConstraint(s, []Variable{x}, func(a Assignment) float64 { return a.Num(x) })
	strong := NewConstraint(s, []Variable{x}, func(a Assignment) float64 { return 10 * a.Num(x) })
	st := NewStore(s)
	st.Tell(weak)
	if st.Retract(strong) {
		t.Error("retracting a constraint not entailed by σ must fail")
	}
	if !Eq(st.Constraint(), weak) {
		t.Error("failed retract must leave the store unchanged")
	}
}

func TestStoreUpdate(t *testing.T) {
	// Example 3: tell(c1) with c1 = x+3 then update_{x}(c2) with
	// c2 = y+1 leaves the store 3 ⊗ (y+1) = y+4.
	s := NewSpace[float64](semiring.Weighted{})
	x := s.AddVariable("x", IntDomain(0, 10))
	y := s.AddVariable("y", IntDomain(0, 10))
	c1 := NewConstraint(s, []Variable{x}, func(a Assignment) float64 { return a.Num(x) + 3 })
	c2 := NewConstraint(s, []Variable{y}, func(a Assignment) float64 { return a.Num(y) + 1 })
	st := NewStore(s)
	st.Tell(c1)
	st.Update([]Variable{x}, c2)
	got := ProjectTo(st.Constraint(), y)
	for v := 0; v <= 10; v++ {
		want := float64(v) + 4
		if g := got.AtLabels(itoa(v)); g != want {
			t.Errorf("σ(y=%d) = %v, want %v", v, g, want)
		}
	}
	if b := st.Blevel(); b != 4 {
		t.Errorf("blevel after update = %v, want 4", b)
	}
}

func TestStoreSnapshotRestore(t *testing.T) {
	s := NewSpace[float64](semiring.Weighted{})
	x := s.AddVariable("x", IntDomain(0, 3))
	st := NewStore(s)
	st.Tell(NewConstraint(s, []Variable{x}, func(a Assignment) float64 { return a.Num(x) }))
	snap := st.Snapshot()
	st.Tell(NewConstraint(s, []Variable{x}, func(a Assignment) float64 { return 100 }))
	if st.Blevel() != 100 {
		t.Fatalf("blevel = %v, want 100", st.Blevel())
	}
	st.Restore(snap)
	if st.Blevel() != 0 {
		t.Fatalf("restored blevel = %v, want 0", st.Blevel())
	}
}

func TestFuzzyStoreAgreement(t *testing.T) {
	// Fig. 5: provider and client fuzzy constraints crossing at 0.5.
	// cp rises with the resource, cc falls; the combined consistency
	// is min(cp,cc) and its blevel (max over x) is 0.5 where they
	// cross.
	s := NewSpace[float64](semiring.Fuzzy{})
	x := s.AddVariable("x", IntDomain(1, 9))
	cp := NewConstraint(s, []Variable{x}, func(a Assignment) float64 {
		return clamp01((a.Num(x) - 1) / 8)
	})
	cc := NewConstraint(s, []Variable{x}, func(a Assignment) float64 {
		return clamp01((9 - a.Num(x)) / 8)
	})
	st := NewStore(s)
	st.Tell(cp)
	st.Tell(cc)
	if got := st.Blevel(); got != 0.5 {
		t.Errorf("fuzzy agreement blevel = %v, want 0.5", got)
	}
}

func clamp01(v float64) float64 {
	return math.Max(0, math.Min(1, v))
}

func TestAtPanicsOnMissingVariable(t *testing.T) {
	s, cs := fig1Space()
	_ = s
	defer func() {
		if recover() == nil {
			t.Error("At with missing scope variable should panic")
		}
	}()
	cs[1].At(Assignment{"X": DVal{Label: "a"}})
}

func TestConstructorPanics(t *testing.T) {
	s := NewSpace[float64](semiring.Weighted{})
	s.AddVariable("x", IntDomain(0, 1))
	cases := []struct {
		name string
		f    func()
	}{
		{"nil semiring", func() { NewSpace[float64](nil) }},
		{"duplicate variable", func() { s.AddVariable("x", IntDomain(0, 1)) }},
		{"empty domain", func() { s.AddVariable("y", nil) }},
		{"unknown scope var", func() { NewConstraint(s, []Variable{"zz"}, func(Assignment) float64 { return 0 }) }},
		{"duplicate scope var", func() {
			NewConstraint(s, []Variable{"x", "x"}, func(Assignment) float64 { return 0 })
		}},
		{"empty int domain", func() { IntDomain(3, 2) }},
		{"unknown con var", func() { NewProblem(s, "zz") }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

func TestCrossSpacePanics(t *testing.T) {
	s1 := NewSpace[float64](semiring.Weighted{})
	s2 := NewSpace[float64](semiring.Weighted{})
	s1.AddVariable("x", IntDomain(0, 1))
	s2.AddVariable("x", IntDomain(0, 1))
	c1 := Top(s1)
	c2 := Top(s2)
	defer func() {
		if recover() == nil {
			t.Error("combining constraints from different spaces should panic")
		}
	}()
	Combine(c1, c2)
}

func TestQuickCombineMonotone(t *testing.T) {
	// Randomised property: blevel(⊗C) is monotonically non-improving
	// as constraints are added, and projection never improves past
	// the blevel.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSpace[float64](semiring.Fuzzy{})
		vars := make([]Variable, 3)
		for i := range vars {
			vars[i] = s.AddVariable(Variable(string(rune('p'+i))), IntDomain(0, 2))
		}
		sr := s.Semiring()
		acc := Top(s)
		prev := Blevel(acc)
		for k := 0; k < 4; k++ {
			v1 := vars[r.Intn(len(vars))]
			v2 := vars[r.Intn(len(vars))]
			scope := []Variable{v1}
			if v2 != v1 {
				scope = append(scope, v2)
			}
			c := NewConstraint(s, scope, func(Assignment) float64 {
				return float64(r.Intn(11)) / 10
			})
			acc = Combine(acc, c)
			b := Blevel(acc)
			if !sr.Leq(b, prev) {
				return false
			}
			prev = b
			// Projection of the combination to any subset has the
			// same blevel as the combination itself.
			proj := ProjectTo(acc, vars[0])
			if !sr.Eq(Blevel(proj), b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickDivideResidualOnConstraints(t *testing.T) {
	// (σ ÷ c) ⊗ c ⊒ ... soundness: ((σ÷c)⊗c) ⊑ σ never fails to hold
	// pointwise... the residual property lifted pointwise:
	// c ⊗ (σ ÷ c) ⊑ σ.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSpace[float64](semiring.Weighted{})
		x := s.AddVariable("x", IntDomain(0, 3))
		y := s.AddVariable("y", IntDomain(0, 3))
		mk := func() *Constraint[float64] {
			return NewConstraint(s, []Variable{x, y}, func(Assignment) float64 {
				return float64(r.Intn(20))
			})
		}
		sigma, c := mk(), mk()
		div := Divide(sigma, c)
		return Leq(Combine(c, div), sigma)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScopeAndSize(t *testing.T) {
	s, cs := fig1Space()
	_ = s
	sc := cs[1].Scope()
	if len(sc) != 2 || sc[0] != "X" || sc[1] != "Y" {
		t.Errorf("scope = %v", sc)
	}
	if cs[1].Size() != 4 {
		t.Errorf("size = %d, want 4", cs[1].Size())
	}
	if got := cs[1].String(); got == "" {
		t.Error("String should be non-empty")
	}
}

func TestFreshVariable(t *testing.T) {
	s := NewSpace[float64](semiring.Weighted{})
	s.AddVariable("x", IntDomain(0, 1))
	f1 := s.FreshVariable("x", IntDomain(0, 1))
	f2 := s.FreshVariable("x", IntDomain(0, 1))
	if f1 == f2 || f1 == "x" || f2 == "x" {
		t.Errorf("fresh variables not distinct: %q %q", f1, f2)
	}
	if !s.HasVariable(f1) || !s.HasVariable(f2) {
		t.Error("fresh variables should be declared")
	}
}

func TestProductSemiringConstraints(t *testing.T) {
	// Multi-criteria: cost × reliability on one constraint system.
	type pv = semiring.Pair[float64, float64]
	sr := semiring.NewProduct[float64, float64](semiring.Weighted{}, semiring.Probabilistic{})
	s := NewSpace[pv](sr)
	x := s.AddVariable("x", IntDomain(0, 2))
	c := NewConstraint(s, []Variable{x}, func(a Assignment) pv {
		// More resources: higher cost, higher reliability.
		return semiring.P(a.Num(x)*2, 0.5+a.Num(x)*0.25)
	})
	b := Blevel(c)
	// lub over {(0,0.5),(2,0.75),(4,1)} is componentwise best:
	// (min cost 0, max reliability 1) — an infeasible ideal point,
	// as expected for Pareto orders.
	if b.First != 0 || b.Second != 1 {
		t.Errorf("product blevel = %v, want (0,1)", b)
	}
}

func TestQuickCombineAssociativeCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSpace[float64](semiring.Weighted{})
		x := s.AddVariable("x", IntDomain(0, 2))
		y := s.AddVariable("y", IntDomain(0, 2))
		z := s.AddVariable("z", IntDomain(0, 2))
		mk := func(scope []Variable) *Constraint[float64] {
			return NewConstraint(s, scope, func(Assignment) float64 {
				return float64(r.Intn(10))
			})
		}
		c1 := mk([]Variable{x, y})
		c2 := mk([]Variable{y, z})
		c3 := mk([]Variable{x, z})
		if !Eq(Combine(Combine(c1, c2), c3), Combine(c1, Combine(c2, c3))) {
			return false
		}
		return Eq(Combine(c1, c2), Combine(c2, c1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickProjectionCommutes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSpace[float64](semiring.Fuzzy{})
		x := s.AddVariable("x", IntDomain(0, 2))
		y := s.AddVariable("y", IntDomain(0, 2))
		z := s.AddVariable("z", IntDomain(0, 2))
		c := NewConstraint(s, []Variable{x, y, z}, func(Assignment) float64 {
			return float64(r.Intn(11)) / 10
		})
		// Eliminating x then y equals eliminating y then x, and both
		// equal projecting straight onto {z}.
		a := ProjectOut(ProjectOut(c, x), y)
		b := ProjectOut(ProjectOut(c, y), x)
		d := ProjectTo(c, z)
		return Eq(a, b) && Eq(a, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickProjectionAbsorbsCombine(t *testing.T) {
	// (c1 ⊗ c2) ⇓ scope(c1) ⊑ c1: projecting a combination onto one
	// operand's scope can only be below that operand (× intensive,
	// + is lub of extensions).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSpace[float64](semiring.Fuzzy{})
		x := s.AddVariable("x", IntDomain(0, 2))
		y := s.AddVariable("y", IntDomain(0, 2))
		mk := func(scope []Variable) *Constraint[float64] {
			return NewConstraint(s, scope, func(Assignment) float64 {
				return float64(r.Intn(11)) / 10
			})
		}
		c1 := mk([]Variable{x})
		c2 := mk([]Variable{x, y})
		proj := ProjectTo(Combine(c1, c2), x)
		return Leq(proj, c1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestNewTableMatchesNewConstraint: a table built by index from the
// values NewConstraint computes is the same constraint — same Values,
// AtIndex and String — whatever order the scope is passed in.
func TestNewTableMatchesNewConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		s := NewSpace[float64](semiring.Weighted{})
		nv := 1 + rng.Intn(4)
		vars := make([]Variable, nv)
		for i := range vars {
			vars[i] = s.AddVariable(Variable("v"+strconv.Itoa(i)), IntDomain(0, rng.Intn(3)))
		}
		var scope []Variable
		for _, i := range rng.Perm(nv)[:rng.Intn(nv+1)] {
			scope = append(scope, vars[i])
		}
		w := make([]float64, nv)
		for i := range w {
			w[i] = float64(rng.Intn(7))
		}
		ref := NewConstraint(s, scope, func(a Assignment) float64 {
			acc := 0.5
			for i, v := range scope {
				acc += w[i] * a.Num(v) * float64(i+1)
			}
			return acc
		})
		got := NewTable(s, scope, ref.Values(nil))
		if got.String() != ref.String() {
			t.Fatalf("trial %d scope %v: String %s, want %s", trial, scope, got, ref)
		}
		gv, rv := got.Values(nil), ref.Values(nil)
		for i := range rv {
			if math.Float64bits(gv[i]) != math.Float64bits(rv[i]) {
				t.Fatalf("trial %d scope %v: Values[%d] = %v, want %v", trial, scope, i, gv[i], rv[i])
			}
		}
		digits := make([]int, nv)
		for k := 0; k < 20; k++ {
			for i := range digits {
				digits[i] = rng.Intn(len(s.Domain(vars[i])))
			}
			if g, r := got.AtIndex(digits), ref.AtIndex(digits); g != r {
				t.Fatalf("trial %d scope %v: AtIndex(%v) = %v, want %v", trial, scope, digits, g, r)
			}
		}
	}
}

func TestNewTablePanics(t *testing.T) {
	s := NewSpace[float64](semiring.Weighted{})
	x := s.AddVariable("x", IntDomain(0, 1))
	y := s.AddVariable("y", IntDomain(0, 2))
	for name, build := range map[string]func(){
		"short":     func() { NewTable(s, []Variable{x, y}, make([]float64, 5)) },
		"long":      func() { NewTable(s, []Variable{x}, make([]float64, 3)) },
		"duplicate": func() { NewTable(s, []Variable{x, x}, make([]float64, 4)) },
		"unknown":   func() { NewTable(s, []Variable{"z"}, make([]float64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewTable did not panic", name)
				}
			}()
			build()
		}()
	}
}

// TestStringGolden pins the rendering of the package's example tables
// byte for byte.
func TestStringGolden(t *testing.T) {
	_, cs := fig1Space()
	w := NewSpace[float64](semiring.Weighted{})
	x := w.AddVariable("x", IntDomain(0, 3))
	b := NewSpace[bool](semiring.Classical{})
	in := b.AddVariable("in", IntDomain(0, 2))
	mid := b.AddVariable("mid", IntDomain(0, 2))
	f := NewSpace[float64](semiring.Fuzzy{})
	u := f.AddVariable("u", LabelDomain("lo", "hi"))
	for _, tc := range []struct{ got, want string }{
		{cs[0].String(), "c(X){⟨a⟩→1 ⟨b⟩→9}"},
		{cs[1].String(), "c(X,Y){⟨a,a⟩→5 ⟨a,b⟩→1 ⟨b,a⟩→2 ⟨b,b⟩→2}"},
		{cs[2].String(), "c(Y){⟨a⟩→5 ⟨b⟩→5}"},
		{NewConstraint(w, []Variable{x}, func(a Assignment) float64 { return 2*a.Num(x) + 2 }).String(),
			"c(x){⟨0⟩→2 ⟨1⟩→4 ⟨2⟩→6 ⟨3⟩→8}"},
		{Constant(w, 1.5).String(), "c(){⟨⟩→1.5}"},
		{NewConstraint(b, []Variable{mid, in}, func(a Assignment) bool { return a.Num(mid) <= a.Num(in) }).String(),
			"c(in,mid){⟨0,0⟩→true ⟨0,1⟩→false ⟨0,2⟩→false ⟨1,0⟩→true ⟨1,1⟩→true ⟨1,2⟩→false ⟨2,0⟩→true ⟨2,1⟩→true ⟨2,2⟩→true}"},
		{Unary(f, u, map[string]float64{"lo": 0.25, "hi": 1}).String(), "c(u){⟨lo⟩→0.25 ⟨hi⟩→1}"},
	} {
		if tc.got != tc.want {
			t.Errorf("String = %q, want %q", tc.got, tc.want)
		}
	}
}
