// Benchmarks: one per reproduced experiment (see DESIGN.md §4 and
// EXPERIMENTS.md). Each BenchmarkE* target regenerates the corresponding
// table/figure artifact of Chu, Halpern, Seshadri (PODS 1999); run
//
//	go test -bench=. -benchmem
//
// to reproduce the full evaluation. Additional micro-benchmarks cover the
// primitives whose asymptotics the paper analyses (Prop 3.1 frontier,
// §3.6 linear expected costs, rebucketing) at several input sizes.
package lecopt

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/expcost"
	"lecopt/internal/experiments"
	"lecopt/internal/optimizer"
	"lecopt/internal/workload"
)

// benchExperiment runs one experiment table per iteration and fails the
// benchmark if the experiment's claim does not hold.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := exp.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !tab.Pass {
			b.Fatalf("%s claim failed", id)
		}
	}
}

func BenchmarkE1MotivatingExample(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2VarianceSweep(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3SystemRBaseline(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4AlgorithmA(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5TopCFrontier(b *testing.B)      { benchExperiment(b, "E5") }
func BenchmarkE6AlgorithmB(b *testing.B)        { benchExperiment(b, "E6") }
func BenchmarkE7AlgorithmC(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8AlgCScaling(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9DynamicMemory(b *testing.B)     { benchExperiment(b, "E9") }
func BenchmarkE10AlgorithmD(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11SortMergeLinear(b *testing.B)  { benchExperiment(b, "E11") }
func BenchmarkE12NestedLoopLinear(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkE13Rebucketing(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14Bucketing(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15EngineValidation(b *testing.B) { benchExperiment(b, "E15") }
func BenchmarkE16Fleet(b *testing.B)            { benchExperiment(b, "E16") }
func BenchmarkE17EndToEnd(b *testing.B)         { benchExperiment(b, "E17") }
func BenchmarkE18Parametric(b *testing.B)       { benchExperiment(b, "E18") }
func BenchmarkE19LevelSetEC(b *testing.B)       { benchExperiment(b, "E19") }
func BenchmarkE20Refinement(b *testing.B)       { benchExperiment(b, "E20") }

// --- primitive micro-benchmarks -----------------------------------------

func randLaw(rng *rand.Rand, n int, lo, hi float64) dist.Dist {
	vals := make([]float64, n)
	probs := make([]float64, n)
	for i := range vals {
		vals[i] = lo + (hi-lo)*rng.Float64()
		probs[i] = rng.Float64() + 0.01
	}
	return dist.MustNew(vals, probs)
}

// BenchmarkJoinECNaive/Linear measure the §3.6.1 complexity claim
// directly: the naive evaluator is cubic in b, the linear one linear.
func BenchmarkJoinECNaive(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("b=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := randLaw(rng, n, 1, 1e6)
			bb := randLaw(rng, n, 1, 1e6)
			m := randLaw(rng, n, 2, 5000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				expcost.JoinECNaive(cost.SortMerge, a, bb, m)
			}
		})
	}
}

func BenchmarkJoinECLinear(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("b=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := randLaw(rng, n, 1, 1e6)
			bb := randLaw(rng, n, 1, 1e6)
			m := randLaw(rng, n, 2, 5000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				expcost.JoinECLinear(cost.SortMerge, a, bb, m)
			}
		})
	}
}

// BenchmarkTopCCombine measures the Proposition 3.1 frontier.
func BenchmarkTopCCombine(b *testing.B) {
	for _, c := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			left := make([]float64, 2*c)
			right := make([]float64, 2*c)
			for i := range left {
				left[i] = rng.Float64()
				right[i] = rng.Float64()
			}
			sort.Float64s(left)
			sort.Float64s(right)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				optimizer.TopCCombine(left, right, c)
			}
		})
	}
}

// dpBenchCase is one query the join-DP micro-benchmarks optimize.
type dpBenchCase struct {
	name string
	sc   workload.Scenario
}

// dpBenchCases generates the DP micro-benchmark queries at 4, 6 and 8
// tables: chain, star and clique join graphs without ORDER BY, and a
// chain with one. Stars and cliques tie on symmetric join costs at every
// rank, and the ORDER BY block keeps a second order slot live, so the
// cases cover the signature tie-break and the order path, not only the
// cost kernels.
func dpBenchCases(b *testing.B) []dpBenchCase {
	b.Helper()
	var out []dpBenchCase
	for _, n := range []int{4, 6, 8} {
		for _, shape := range []workload.Shape{workload.Chain, workload.Star, workload.Clique} {
			spec := workload.DefaultSpec(n, shape)
			spec.OrderByProb = 0
			out = append(out, dpBenchCase{fmt.Sprintf("%s/tables=%d", shape, n), genBenchScenario(b, spec)})
		}
		spec := workload.DefaultSpec(n, workload.Chain)
		spec.OrderByProb = 1
		out = append(out, dpBenchCase{fmt.Sprintf("%s+orderby/tables=%d", workload.Chain, n), genBenchScenario(b, spec)})
	}
	return out
}

func genBenchScenario(b *testing.B, spec workload.Spec) workload.Scenario {
	b.Helper()
	sc, err := workload.Generate(spec, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// BenchmarkAlgorithmC measures one full LEC optimization across query
// sizes and join-graph shapes — the headline "b times a standard
// optimization" cost.
func BenchmarkAlgorithmC(b *testing.B) {
	mem := dist.MustNew([]float64{64, 256, 1024, 4096}, []float64{1, 1, 1, 1})
	for _, bc := range dpBenchCases(b) {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := optimizer.AlgorithmC(bc.sc.Cat, bc.sc.Block, optimizer.Options{}, mem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLSC is the classical baseline for comparison with AlgorithmC,
// over the same queries.
func BenchmarkLSC(b *testing.B) {
	for _, bc := range dpBenchCases(b) {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := optimizer.LSC(bc.sc.Cat, bc.sc.Block, optimizer.Options{}, 1024); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizeBatch measures the concurrent batch pipeline on a slice
// of the differential corpus, for profiling under go test; the repository
// benchmark (perfbench/run.sh) measures batch throughput and latency end to
// end, and TestBatchAllocBudget gates its allocations. The uncached runs
// use a handle without a plan cache, so every batch optimizes every
// request; the cached run shares one cache across batches, so after the
// first it measures the lookup step alone.
func BenchmarkOptimizeBatch(b *testing.B) {
	corpus := diffCorpus(b)[:40]
	reqs := make([]Request, len(corpus))
	for i, sc := range corpus {
		reqs[i] = corpusRequest(sc, AlgC)
	}
	run := func(b *testing.B, opt *Optimizer) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range opt.OptimizeBatch(reqs) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			run(b, New(nil, WithWorkers(workers), WithExactCacheKeys(), WithoutPlanCache()))
		})
	}
	b.Run("workers=4/cache", func(b *testing.B) {
		run(b, New(nil, WithWorkers(4), WithExactCacheKeys(), WithSharedCache(NewPlanCache(1024))))
	})
}

// BenchmarkRebucket measures §3.6.3 rebucketing.
func BenchmarkRebucket(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("from=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			law := randLaw(rng, n, 1, 1e6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := law.Rebucket(27); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
