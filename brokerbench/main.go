// Command brokerbench is the broker's benchmark. It launches the real
// brokerd binary, drives it from nproc keep-alive connections as a
// closed loop with a fixed, seeded request sequence, checks every
// reply and a re-solved sample, and prints the end-to-end metrics. With
// -trace 1 it instead drives an in-process broker.Server with the same
// sequence and prints the per-layer metrics. See README.md.
//
// Usage (from the repository root, after building brokerd):
//
//	brokerbench -workload serve-mem|solve-cold|all \
//	            [-seed 1] [-seconds 10] [-trace 0|1] \
//	            [-brokerd .bench_build/brokerd] [-work .bench_build/work]
//	brokerbench -report 10 [-workload W|all] ...   # steadiness report
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics printed with -trace 0. Bounds are the
// share of the parent's median a metric may worsen by.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics printed with -trace 1, for every workload
// (0 where a layer does no work on it).
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(name, unit string, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, r := range hotRoutes {
		add("server.handle_ms."+r, "ms", "lower")
		add("server.handle_p99_ms."+r, "ms", "lower")
		add("server.unattributed_ratio."+r, "ratio", "lower")
	}
	for _, r := range hotRoutes {
		add("codec.encode_us."+r, "us", "lower")
		add("codec.decode_us."+r, "us", "lower")
	}
	add("log.bytes_per_req", "B", "lower")
	add("log.write_us_per_req", "us", "lower")
	add("negotiate.precheck_ms", "ms", "lower")
	add("negotiate.nmsccp_ms", "ms", "lower")
	add("negotiate.commit_ms", "ms", "lower")
	add("negotiate.prechecked_ratio", "ratio", "higher")
	add("compose.solve_ms", "ms", "lower")
	add("compose.encode_ms", "ms", "lower")
	add("solver.nodes_per_solve", "count", "lower")
	add("solver.prunes_per_solve", "count", "higher")
	add("solver.steals_per_solve", "count", "lower")
	add("cache.tables_hit_ratio", "ratio", "higher")
	add("cache.fixpoint_hit_ratio", "ratio", "higher")
	add("cache.search_hit_ratio", "ratio", "higher")
	add("cache.warm_start_ratio", "ratio", "higher")
	add("cache.evictions_per_req", "count", "lower")
	add("store.append_us", "us", "lower")
	add("store.append_p99_us", "us", "lower")
	add("store.appends_per_req", "count", "lower")
	add("store.bytes_per_req", "B", "lower")
	add("store.snapshot_ms", "ms", "lower")
	add("store.snapshots", "count", "lower")
	add("store.snapshot_bytes", "B", "lower")
	add("store.disk_append_us", "us", "lower")
	add("runtime.alloc_bytes_per_req", "B", "lower")
	add("runtime.allocs_per_req", "count", "lower")
	add("runtime.gc_per_1k_req", "count", "lower")
	return out
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type config struct {
	seed    int64
	seconds int
	trace   bool
	brokerd string
	work    string
	clients int
}

func main() {
	workloadFlag := flag.String("workload", "all", "serve-mem, solve-cold or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 30, "run length: the sequence holds seconds × the workload's nominal rate requests")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from brokerd; 1: per-layer metrics from the traced in-process run")
	brokerd := flag.String("brokerd", filepath.Join(".bench_build", "brokerd"), "brokerd binary")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for the traced run's broker state")
	report := flag.Int("report", 0, "steadiness report: run each workload this many times with seeds seed, seed+1, …")
	flag.Parse()

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1,
		brokerd: *brokerd, work: *work, clients: runtime.NumCPU()}
	workloads := Workloads
	if *workloadFlag != "all" {
		if !slices.Contains(Workloads, *workloadFlag) {
			fatalf("unknown workload %q (want %s or all)", *workloadFlag, strings.Join(Workloads, ", "))
		}
		workloads = []string{*workloadFlag}
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	ctx := context.Background()
	if *report > 0 {
		if !steadinessReport(ctx, cfg, workloads, *report) {
			os.Exit(1)
		}
		return
	}
	ok := true
	var last result
	for _, w := range workloads {
		res, err := runOnce(ctx, cfg, w, cfg.seed)
		if err != nil {
			fatalf("%s: %v", w, err)
		}
		printHuman(w, res)
		ok = ok && res.Correct
		last = res
		if len(workloads) > 1 {
			line, err := json.Marshal(map[string]any{"workload": w, "result": res})
			if err != nil {
				fatalf("encode result: %v", err)
			}
			fmt.Println(string(line))
		}
	}
	if len(workloads) == 1 {
		line, err := json.Marshal(last)
		if err != nil {
			fatalf("encode result: %v", err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "brokerbench: "+format+"\n", args...)
	os.Exit(2)
}

// runOnce runs one workload for one seed and returns its result line.
func runOnce(ctx context.Context, cfg config, workload string, seed int64) (result, error) {
	p, err := Generate(workload, seed, cfg.seconds, cfg.clients)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: p.Attempted(), Metrics: map[string]metricValue{}}
	if cfg.trace {
		dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, err
		}
		defer func() {
			if err := os.RemoveAll(dir); err != nil {
				fmt.Fprintf(os.Stderr, "brokerbench: remove %s: %v\n", dir, err)
			}
		}()
		m, err := tracedRun(ctx, dir, p)
		if err != nil {
			return result{}, err
		}
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
		}
		res.Correct = true
		return res, nil
	}
	bin, err := filepath.Abs(cfg.brokerd)
	if err != nil {
		return result{}, err
	}
	r, err := runE2E(ctx, bin, p)
	if err != nil {
		return result{}, err
	}
	m := r.metrics()
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	res.Failed = r.failed
	res.Correct = true
	if r.failed > 0 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "brokerbench: %s: %d of %d replies differ from the prediction; first: %v\n",
			workload, r.failed, r.attempted, r.firstErr)
	}
	if r.resolveErr != nil {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "brokerbench: %s: %v\n", workload, r.resolveErr)
	}
	if r.peakConns > int64(p.Clients) || r.peakWorker > int64(p.Clients) {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "brokerbench: %s: %d connections and %d clients at once, want at most %d\n",
			workload, r.peakConns, r.peakWorker, p.Clients)
	}
	fmt.Fprintf(os.Stderr, "%s: error_ratio %.6f (%d failed of %d), %d samples re-solved, %d clients\n",
		workload, m["error_ratio"], r.failed, r.attempted, len(r.samples), p.Clients)
	return res, nil
}

func printHuman(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		v := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "%-14s %-34s %14.6f %s\n", workload, k, v.Value, v.Unit)
	}
}

// steadinessReport runs each workload k times with consecutive seeds
// and prints, per metric, the median, the quartiles and the spreads.
// A metric whose quartile spread exceeds its bound is flagged, and
// the report fails.
func steadinessReport(ctx context.Context, cfg config, workloads []string, k int) bool {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	ok := true
	for _, w := range workloads {
		vals := map[string][]float64{}
		for i := 0; i < k; i++ {
			res, err := runOnce(ctx, cfg, w, cfg.seed+int64(i))
			if err != nil {
				fatalf("%s seed %d: %v", w, cfg.seed+int64(i), err)
			}
			if !res.Correct {
				ok = false
			}
			for n, v := range res.Metrics {
				vals[n] = append(vals[n], v.Value)
			}
		}
		fmt.Printf("%-14s %-34s %12s %12s %12s %9s %9s %6s\n",
			"workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
		for _, d := range defs {
			xs := vals[d.Name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			lo, hi := slices.Min(xs), slices.Max(xs)
			iqr, rng := 0.0, 0.0
			if med != 0 {
				iqr, rng = (q3-q1)/med, (hi-lo)/med
			}
			// The quartile spread is what a regression check can
			// resolve; the full range is reported as a warning.
			flag := ""
			if d.Bound > 0 && rng > d.Bound {
				flag = "  range>bound"
			}
			if d.Bound > 0 && iqr > d.Bound {
				flag = "  IQR>BOUND"
				ok = false
			}
			fmt.Printf("%-14s %-34s %12.5f %12.5f %12.5f %9.4f %9.4f %6.2f%s\n",
				w, d.Name, med, q1, q3, iqr, rng, d.Bound, flag)
		}
	}
	return ok
}
