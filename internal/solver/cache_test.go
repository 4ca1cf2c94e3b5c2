package solver

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"softsoa/internal/cache"
	"softsoa/internal/core"
	"softsoa/internal/obs/journal"
	"softsoa/internal/semiring"
	"softsoa/internal/workload"
)

// assertSameSolve is assertSameResult plus the deterministic search
// statistics: a memo hit must return the cold run's Nodes, Prunes and
// Tasks bitwise, not fresh ones.
func assertSameSolve[T any](t *testing.T, sr semiring.Semiring[T], label string, want, got Result[T]) {
	t.Helper()
	assertSameResult(t, sr, label, want, got)
	if got.Stats.Nodes != want.Stats.Nodes || got.Stats.Prunes != want.Stats.Prunes ||
		got.Stats.Tasks != want.Stats.Tasks {
		t.Fatalf("%s: stats nodes/prunes/tasks %d/%d/%d, want %d/%d/%d",
			label, got.Stats.Nodes, got.Stats.Prunes, got.Stats.Tasks,
			want.Stats.Nodes, want.Stats.Prunes, want.Stats.Tasks)
	}
}

// cachedCase solves cold, then twice through one cache (miss then
// hit), asserting all three results identical — including the
// deterministic statistics — and that the hit actually came from the
// memo.
func cachedCase[T any](t *testing.T, sr semiring.Semiring[T], name string, p *core.Problem[T], extra ...Option) {
	t.Helper()
	cold := BranchAndBound(p, extra...)
	c := cache.New(256)
	withCache := append([]Option{WithSolveCache(c)}, extra...)
	miss := BranchAndBound(p, withCache...)
	assertSameSolve(t, sr, name+"/miss", cold, miss)
	before := c.TierStats(cache.TierSearch).Hits
	hit := BranchAndBound(p, withCache...)
	assertSameSolve(t, sr, name+"/hit", cold, hit)
	if c.TierStats(cache.TierSearch).Hits != before+1 {
		t.Fatalf("%s: repeat solve did not hit the exact memo", name)
	}
	// The cached entry must not alias the returned result: mutating a
	// hit's assignment cannot poison later hits.
	if len(hit.Best) > 0 {
		for k := range hit.Best[0].Assignment {
			hit.Best[0].Assignment[k] = core.DVal{Label: "poison"}
		}
		again := BranchAndBound(p, withCache...)
		assertSameSolve(t, sr, name+"/after-poison", cold, again)
	}
}

// TestCachedSolveBitwiseIdenticalAllSemirings is the cached-vs-cold
// property suite over every shipped semiring: a memo hit must be
// bitwise the cold solve — Blevel, frontier (values and assignments)
// and the deterministic statistics. The partially ordered instances
// (set, product) use a MaxBest far above any reachable frontier width,
// the same boundary the parallel suite documents.
func TestCachedSolveBitwiseIdenticalAllSemirings(t *testing.T) {
	base := workload.SCSPParams{Vars: 6, DomainSize: 3, Density: 0.5, Tightness: 0.7}
	for seed := int64(1); seed <= 4; seed++ {
		p := base
		p.Seed = seed

		wp, err := workload.RandomSCSP(p, semiring.Weighted{}, func(rng *rand.Rand) float64 {
			return float64(1 + rng.Intn(20))
		})
		if err != nil {
			t.Fatal(err)
		}
		cachedCase[float64](t, semiring.Weighted{}, fmt.Sprintf("weighted/seed=%d", seed), wp)
		// Propagation through the fixpoint tier must not change the
		// cached-vs-cold identity (weighted ÷ is exact).
		cachedCase[float64](t, semiring.Weighted{}, fmt.Sprintf("weighted-prop/seed=%d", seed), wp, WithPropagation(0))

		bsr := semiring.NewBoundedWeighted(50)
		bp, err := workload.RandomSCSP(p, bsr, func(rng *rand.Rand) float64 {
			return float64(1 + rng.Intn(20))
		})
		if err != nil {
			t.Fatal(err)
		}
		cachedCase[float64](t, bsr, fmt.Sprintf("bounded/seed=%d", seed), bp)

		fp, err := workload.RandomSCSP(p, semiring.Fuzzy{}, func(rng *rand.Rand) float64 {
			return float64(rng.Intn(100)) / 100
		})
		if err != nil {
			t.Fatal(err)
		}
		cachedCase[float64](t, semiring.Fuzzy{}, fmt.Sprintf("fuzzy/seed=%d", seed), fp)

		pp, err := workload.RandomSCSP(p, semiring.Probabilistic{}, func(rng *rand.Rand) float64 {
			return 0.5 + float64(rng.Intn(50))/100
		})
		if err != nil {
			t.Fatal(err)
		}
		cachedCase[float64](t, semiring.Probabilistic{}, fmt.Sprintf("probabilistic/seed=%d", seed), pp)

		cp, err := workload.RandomSCSP(p, semiring.Classical{}, func(rng *rand.Rand) bool {
			return false
		})
		if err != nil {
			t.Fatal(err)
		}
		cachedCase[bool](t, semiring.Classical{}, fmt.Sprintf("classical/seed=%d", seed), cp)

		ssr := semiring.NewSet("read", "write", "admin")
		sp, err := workload.RandomSCSP[semiring.Bitset](p, ssr, func(rng *rand.Rand) semiring.Bitset {
			return semiring.Bitset(rng.Intn(8))
		})
		if err != nil {
			t.Fatal(err)
		}
		cachedCase[semiring.Bitset](t, ssr, fmt.Sprintf("set/seed=%d", seed), sp, WithMaxBest(1<<20))

		psr := semiring.NewProduct[float64, float64](semiring.Weighted{}, semiring.Fuzzy{})
		prodp, err := workload.RandomSCSP[semiring.Pair[float64, float64]](p, psr,
			func(rng *rand.Rand) semiring.Pair[float64, float64] {
				return semiring.P(float64(rng.Intn(10)), float64(rng.Intn(100))/100)
			})
		if err != nil {
			t.Fatal(err)
		}
		cachedCase[semiring.Pair[float64, float64]](t, psr, fmt.Sprintf("product/seed=%d", seed), prodp, WithMaxBest(1<<20))
	}
}

// perturbedPair builds a base weighted problem and a single-variable
// perturbation of it: the same constraints plus one extra unary on v0,
// the renegotiation shape warm starts exploit.
func perturbedPair(t *testing.T, seed int64) (*core.Problem[float64], *core.Problem[float64]) {
	t.Helper()
	params := workload.SCSPParams{Vars: 8, DomainSize: 3, Density: 0.6, Tightness: 0.8, Seed: seed}
	base, err := workload.RandomWeightedSCSP(params)
	if err != nil {
		t.Fatal(err)
	}
	pert, err := workload.RandomWeightedSCSP(params)
	if err != nil {
		t.Fatal(err)
	}
	s := pert.Space()
	pert.Add(core.Unary(s, "v0", map[string]float64{"0": 4, "1": 0, "2": 2}))
	return base, pert
}

// TestWarmStartEquivalence checks the warm-started re-solve: after a
// base solve fills the slot, the perturbed solve seeded from it must
// return exactly the cold perturbed result (Blevel and frontier; the
// node/prune counts legitimately differ), and the applied warm start
// must be counted.
func TestWarmStartEquivalence(t *testing.T) {
	sr := semiring.Weighted{}
	slot := cache.NewHasher("test-warm-slot").Sum()
	for seed := int64(1); seed <= 4; seed++ {
		base, pert := perturbedPair(t, seed)
		cold := BranchAndBound(pert)
		c := cache.New(256)
		BranchAndBound(base, WithSolveCache(c), WithWarmStart(slot))
		warm := BranchAndBound(pert, WithSolveCache(c), WithWarmStart(slot))
		assertSameResult(t, sr, fmt.Sprintf("warm/seed=%d", seed), cold, warm)
		applied, _ := c.WarmStats()
		if applied < 1 {
			t.Fatalf("seed %d: warm start not applied", seed)
		}
		if cold.Stats.Nodes < warm.Stats.Nodes {
			t.Fatalf("seed %d: warm solve expanded more nodes (%d) than cold (%d)",
				seed, warm.Stats.Nodes, cold.Stats.Nodes)
		}
	}
}

// TestWarmStartFallback: a slot filled from an unrelated space (no
// shared variables) must fall back to a cold solve — counted as a
// fallback — and still return the exact cold result.
func TestWarmStartFallback(t *testing.T) {
	sr := semiring.Weighted{}
	slot := cache.NewHasher("test-fallback-slot").Sum()
	other := core.NewSpace[float64](sr)
	x := other.AddVariable("unrelated", core.IntDomain(0, 1))
	op := core.NewProblem(other, x)
	op.Add(core.Unary(other, x, map[string]float64{"0": 1, "1": 2}))

	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 5, DomainSize: 3, Density: 0.5, Tightness: 0.7, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := BranchAndBound(p)
	c := cache.New(64)
	BranchAndBound(op, WithSolveCache(c), WithWarmStart(slot))
	warm := BranchAndBound(p, WithSolveCache(c), WithWarmStart(slot))
	assertSameResult(t, sr, "fallback", cold, warm)
	if _, fallback := c.WarmStats(); fallback < 1 {
		t.Fatal("incompatible slot not counted as fallback")
	}
}

// TestWarmStartParallelEquivalence: seeds must compose with the
// parallel driver — warm-started parallel solves still equal the
// sequential cold reference.
func TestWarmStartParallelEquivalence(t *testing.T) {
	sr := semiring.Weighted{}
	slot := cache.NewHasher("test-warm-par").Sum()
	base, pert := perturbedPair(t, 3)
	cold := BranchAndBound(pert)
	c := cache.New(256)
	BranchAndBound(base, WithSolveCache(c), WithWarmStart(slot))
	warm := BranchAndBound(pert, WithSolveCache(c), WithWarmStart(slot), WithParallel(4))
	assertSameResult(t, sr, "warm-parallel", cold, warm)
}

// TestPropagateCachedSharedFixpoint: the second fixpoint of identical
// content must come from the cache, bit-equal in c∅ and in the solve
// over the rewritten problem.
func TestPropagateCachedSharedFixpoint(t *testing.T) {
	sr := semiring.Weighted{}
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 6, DomainSize: 3, Density: 0.5, Tightness: 0.7, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	coldProb, coldZ, coldStats := Propagate(p, 0)
	c := cache.New(64)
	p1, z1, s1 := PropagateCached(c, p, 0)
	p2, z2, s2 := PropagateCached(c, p, 0)
	if !sr.Eq(coldZ, z1) || !sr.Eq(z1, z2) {
		t.Fatalf("c∅ drift: cold %v, miss %v, hit %v", coldZ, z1, z2)
	}
	if s1 != coldStats || s2 != s1 {
		t.Fatalf("stats drift: cold %+v, miss %+v, hit %+v", coldStats, s1, s2)
	}
	if p2 != p1 {
		t.Fatal("fixpoint hit rebuilt the problem instead of sharing it")
	}
	st := c.TierStats(cache.TierFixpoint)
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("fixpoint tier stats %+v, want 1 miss / 1 hit", st)
	}
	assertSameResult(t, sr, "propagated-solve", BranchAndBound(coldProb), BranchAndBound(p1))
}

type countingRecorder struct{ n int }

func (r *countingRecorder) RecordSearch(journal.SearchRecord) { r.n++ }

// TestTelemetryBypassesExactMemo: a run carrying a telemetry recorder
// must search for real every time — the memo would silently swallow
// the events — while still producing the same result.
func TestTelemetryBypassesExactMemo(t *testing.T) {
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 6, DomainSize: 3, Density: 0.5, Tightness: 0.7, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(64)
	cold := BranchAndBound(p)
	r1 := &countingRecorder{}
	first := BranchAndBound(p, WithSolveCache(c), WithTelemetry(r1, 1))
	r2 := &countingRecorder{}
	second := BranchAndBound(p, WithSolveCache(c), WithTelemetry(r2, 1))
	assertSameResult(t, semiring.Weighted{}, "telemetry/first", cold, first)
	assertSameResult(t, semiring.Weighted{}, "telemetry/second", cold, second)
	if r1.n == 0 || r2.n != r1.n {
		t.Fatalf("telemetry events %d then %d: the repeat run must re-search and re-emit", r1.n, r2.n)
	}
	if st := c.TierStats(cache.TierSearch); st.Hits != 0 {
		t.Fatalf("telemetry run served from the exact memo (%d hits)", st.Hits)
	}
}

// TestCachedSolveRaceStress hammers one cache from concurrent solves
// of several problems; under -race this is the solver-side cache
// concurrency witness. Every result must equal its cold reference.
func TestCachedSolveRaceStress(t *testing.T) {
	sr := semiring.Weighted{}
	type tc struct {
		p    *core.Problem[float64]
		cold Result[float64]
	}
	var cases []tc
	for seed := int64(1); seed <= 4; seed++ {
		p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
			Vars: 6, DomainSize: 3, Density: 0.5, Tightness: 0.8, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{p: p, cold: BranchAndBound(p)})
	}
	c := cache.New(8) // small: force concurrent eviction too
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot := cache.NewHasher(fmt.Sprintf("race-slot-%d", g%2)).Sum()
			for i := 0; i < 30; i++ {
				k := cases[(g+i)%len(cases)]
				got := BranchAndBound(k.p, WithSolveCache(c), WithWarmStart(slot))
				if !sr.Eq(got.Blevel, k.cold.Blevel) || len(got.Best) != len(k.cold.Best) {
					t.Errorf("goroutine %d iter %d: cached solve diverged", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCachedWorkStealingInterplay pins down how the solve cache and
// the work-stealing pool compose. A parallel solve's memo entry
// replays bitwise — including the scheduling-dependent Steals/Splits
// it happened to record — and, because the worker count is resolved
// to GOMAXPROCS before the key is built, WithWorkers(0) and the
// explicit WithWorkers(GOMAXPROCS) spellings share one memo slot
// while a different explicit count occupies its own.
func TestCachedWorkStealingInterplay(t *testing.T) {
	sr := semiring.Weighted{}
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 9, DomainSize: 3, Density: 0.5, Tightness: 0.8, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := BranchAndBound(p)

	// WithWorkers(0) resolves to GOMAXPROCS, so the first parallel
	// solve uses an explicit count that differs from it on every
	// machine; otherwise the two would share the memo slot below.
	nprocs := runtime.GOMAXPROCS(0)
	first := 2
	if nprocs == first {
		first = 3
	}
	c := cache.New(256)
	miss := BranchAndBound(p, WithSolveCache(c), WithWorkers(first))
	assertSameResult(t, sr, "ws/miss", seq, miss)
	hit := BranchAndBound(p, WithSolveCache(c), WithWorkers(first))
	assertSameSolve(t, sr, "ws/hit", miss, hit)
	if hit.Stats.Steals != miss.Stats.Steals || hit.Stats.Splits != miss.Stats.Splits ||
		hit.Stats.Workers != miss.Stats.Workers {
		t.Fatalf("memo hit re-ran the scheduler: steals %d/%d splits %d/%d workers %d/%d",
			hit.Stats.Steals, miss.Stats.Steals, hit.Stats.Splits, miss.Stats.Splits,
			hit.Stats.Workers, miss.Stats.Workers)
	}

	before := c.TierStats(cache.TierSearch).Hits
	BranchAndBound(p, WithSolveCache(c), WithWorkers(0))
	explicit := BranchAndBound(p, WithSolveCache(c), WithWorkers(nprocs))
	if got := c.TierStats(cache.TierSearch).Hits; got != before+1 {
		t.Fatalf("WithWorkers(0) and WithWorkers(%d) did not share a memo slot: hits %d, want %d",
			nprocs, got, before+1)
	}
	assertSameResult(t, sr, "ws/gomaxprocs", seq, explicit)
	// nprocs+2 is a count no earlier solve used (first and nprocs
	// are taken, and first is 2 or, when nprocs is 2, 3), so it must
	// occupy a fresh slot.
	before = c.TierStats(cache.TierSearch).Misses
	BranchAndBound(p, WithSolveCache(c), WithWorkers(nprocs+2))
	if got := c.TierStats(cache.TierSearch).Misses; got != before+1 {
		t.Fatalf("distinct worker count shared a memo slot: misses %d, want %d", got, before+1)
	}

	// Warm-started work-stealing re-solve: the seeded parallel search
	// of a perturbed problem must still equal its cold sequential
	// solve.
	slot := cache.NewHasher("test-warm-ws").Sum()
	base, pert := perturbedPair(t, 7)
	cold := BranchAndBound(pert)
	wc := cache.New(256)
	BranchAndBound(base, WithSolveCache(wc), WithWarmStart(slot))
	warm := BranchAndBound(pert, WithSolveCache(wc), WithWarmStart(slot), WithWorkers(4))
	assertSameResult(t, sr, "warm-ws", cold, warm)
	if applied, _ := wc.WarmStats(); applied < 1 {
		t.Fatal("warm start not applied to the work-stealing solve")
	}
}
