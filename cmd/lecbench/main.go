// Command lecbench regenerates the paper-reproduction tables (experiments
// E1-E20 of DESIGN.md) and prints them. EXPERIMENTS.md records one such
// run annotated against the paper's claims. With -workload it runs the
// engine-in-the-loop serving simulator — LSC and LEC plans optimized per
// request and *executed* on the page-level engine under sampled memory
// trajectories — writing the BENCH_workload.json realized-I/O artifact.
// With -fleet it drives Zipf tenant traffic through the resilience layer,
// writing BENCH_fleet.json. Batch throughput and latency are measured by
// the repository benchmark (perfbench/run.sh), not here.
//
// Usage:
//
//	lecbench                         # run every experiment
//	lecbench -run E1,E5              # selected experiments
//	lecbench -list                   # list experiment IDs and titles
//	lecbench -workload -json         # engine-in-the-loop workload mode
//	lecbench -workload -requests=200 # quick smoke of the same
//	lecbench -fleet -tenants=256     # fleet resilience mode
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lecopt/internal/experiments"
)

func main() {
	var (
		runSpec = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		list    = flag.Bool("list", false, "list experiments and exit")

		workers   = flag.Int("workers", 0, "workload/fleet mode: worker count (0 = GOMAXPROCS)")
		requests  = flag.Int("requests", 2000, "workload/fleet mode: total requests")
		cacheSize = flag.Int("cachesize", 4096, "workload/fleet mode: plan-cache capacity")
		seed      = flag.Int64("seed", 1, "workload/fleet mode: workload seed")

		workloadM = flag.Bool("workload", false, "workload mode: engine-in-the-loop LSC-vs-LEC serving simulation")
		fleetM    = flag.Bool("fleet", false, "fleet mode: Zipf tenant fleet through the resilience layer at each offered load level")
		tenants   = flag.Int("tenants", 0, "fleet mode: tenant count (0 = spec default)")
		queries   = flag.Int("queries", 0, "workload mode: distinct queries in the mix (0 = spec default)")
		zipf      = flag.Float64("zipf", 0, "workload mode: popularity skew (0 = spec default)")
		driftBand = flag.Float64("driftband", 0, "workload mode: plan-cache drift band base (0 = service default, <=1 = exact keys)")
		noBands   = flag.Bool("nobands", false, "workload mode: skip the model-agreement feedback band sweeps")
		noIndex   = flag.Bool("noindex", false, "workload mode: heap-only mix (no physical indexes, no index plans) — reproduces the pre-access-path artifact")

		emitJSON = flag.Bool("json", true, "write the mode's JSON artifact")
		outPath  = flag.String("out", "", "artifact path (default BENCH_workload.json / BENCH_fleet.json by mode)")
	)
	flag.Parse()
	artifact := func(def string) string {
		if !*emitJSON {
			return ""
		}
		if *outPath != "" {
			return *outPath
		}
		return def
	}
	switch {
	case *fleetM:
		if *runSpec != "" || *list || *workloadM {
			fmt.Fprintln(os.Stderr, "lecbench: -fleet cannot be combined with -run/-list/-workload")
			os.Exit(1)
		}
		cfg := fleetModeConfig{
			Tenants: *tenants, Requests: *requests, Seed: *seed,
			Workers: *workers, CacheSize: *cacheSize, DriftBand: *driftBand,
		}
		if _, err := runFleetMode(cfg, artifact("BENCH_fleet.json"), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "lecbench:", err)
			os.Exit(1)
		}
	case *workloadM:
		if *runSpec != "" || *list {
			fmt.Fprintln(os.Stderr, "lecbench: -run/-list select experiments and cannot be combined with -workload")
			os.Exit(1)
		}
		if *workers < 0 {
			fmt.Fprintln(os.Stderr, "lecbench: -workers must be >= 0 (0 = GOMAXPROCS)")
			os.Exit(1)
		}
		cfg := workloadModeConfig{
			Requests: *requests, Queries: *queries, Zipf: *zipf,
			Seed: *seed, Workers: *workers, CacheSize: *cacheSize,
			DriftBand: *driftBand, NoBands: *noBands, NoIndex: *noIndex,
		}
		if _, err := runWorkloadMode(cfg, artifact("BENCH_workload.json"), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "lecbench:", err)
			os.Exit(1)
		}
	default:
		if err := run(*runSpec, *list); err != nil {
			fmt.Fprintln(os.Stderr, "lecbench:", err)
			os.Exit(1)
		}
	}
}

func run(runSpec string, list bool) error {
	if list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	var selected []experiments.Experiment
	if runSpec == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(runSpec, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}
	failures := 0
	for _, e := range selected {
		tab, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := tab.Render(os.Stdout); err != nil {
			return err
		}
		if !tab.Pass {
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment claim(s) failed", failures)
	}
	fmt.Printf("all %d experiment claims hold\n", len(selected))
	return nil
}
