// Differential test harness: ~200 seeded random small scenarios checked
// against ground truth from three independent angles —
//
//  1. Algorithm C's plan expected cost equals the exhaustive left-deep
//     enumerator's (Theorems 3.3/3.4 hold on every random instance, not
//     just the hand-picked paper examples);
//  2. the LEC plan is never worse in expectation than either classical
//     LSC baseline (the paper's core utility claim);
//  3. the concurrent batch pipeline returns byte-identical PlanReports to
//     the sequential path, with and without the plan cache (concurrency
//     correctness is proven, not asserted).
package lecopt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lecopt/internal/optimizer"
	"lecopt/internal/workload"
)

const diffScenarios = 200

// diffScenario builds the i-th corpus scenario: 2-4 tables (small enough
// for the exhaustive oracle), mixed shapes, cycling the standard
// environment suite. Same i ⇒ same scenario, run after run.
func diffScenario(t testing.TB, i int, envs []workload.NamedEnv) *Scenario {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(7000 + i)))
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	spec := workload.DefaultSpec(2+i%3, shapes[i%len(shapes)])
	sc, err := workload.Generate(spec, rng)
	if err != nil {
		t.Fatalf("scenario %d: %v", i, err)
	}
	return &Scenario{Cat: sc.Cat, Query: sc.Block, Env: envs[i%len(envs)].Env}
}

func diffCorpus(t testing.TB) []*Scenario {
	t.Helper()
	envs, err := workload.StandardEnvs()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Scenario, diffScenarios)
	for i := range out {
		out[i] = diffScenario(t, i, envs)
	}
	return out
}

// relClose reports a ≈ b within relative tolerance (absolute near zero).
func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		return d <= tol
	}
	return d/scale <= tol
}

// TestDifferentialAlgCMatchesExhaustive checks Algorithm C against the
// brute-force oracle on every corpus scenario.
func TestDifferentialAlgCMatchesExhaustive(t *testing.T) {
	for i, sc := range diffCorpus(t) {
		lec, err := sc.Optimize(AlgC)
		if err != nil {
			t.Fatalf("scenario %d: AlgC: %v", i, err)
		}
		laws, err := optimizer.PhaseLawsFor(len(sc.Query.Tables), sc.Env.Mem, sc.Env.Chain)
		if err != nil {
			t.Fatalf("scenario %d: laws: %v", i, err)
		}
		oracle, err := optimizer.ExhaustiveLEC(sc.Cat, sc.Query, sc.Opts, laws)
		if err != nil {
			t.Fatalf("scenario %d: oracle: %v", i, err)
		}
		if !relClose(lec.EC, oracle.EC, 1e-9) {
			t.Errorf("scenario %d: AlgC EC %v != exhaustive EC %v\nAlgC plan: %s\noracle:    %s",
				i, lec.EC, oracle.EC, lec.Plan.Signature(), oracle.Plan.Signature())
		}
	}
}

// TestDifferentialLECNeverWorseThanLSC checks the paper's utility claim on
// every corpus scenario: under the common expected-cost yardstick the LEC
// plan beats or ties both classical baselines.
func TestDifferentialLECNeverWorseThanLSC(t *testing.T) {
	const slack = 1e-9 // float-summation noise only; LEC optimality is exact
	for i, sc := range diffCorpus(t) {
		lec, err := sc.Optimize(AlgC)
		if err != nil {
			t.Fatalf("scenario %d: AlgC: %v", i, err)
		}
		for _, baseline := range []Algorithm{AlgLSCMean, AlgLSCMode} {
			lsc, err := sc.Optimize(baseline)
			if err != nil {
				t.Fatalf("scenario %d: %s: %v", i, baseline, err)
			}
			if lec.EC > lsc.EC*(1+slack)+slack {
				t.Errorf("scenario %d: LEC EC %v > %s EC %v", i, lec.EC, baseline, lsc.EC)
			}
		}
	}
}

// batchReportKey renders every PlanReport field, so equal keys mean the
// batch pipeline reproduced the sequential answer exactly.
func batchReportKey(r PlanReport) string {
	return fmt.Sprintf("%s|%s|%v|%v|%d|%d",
		r.Algorithm, r.Plan.Signature(), r.Score, r.EC, r.Candidates, r.Probes)
}

// TestDifferentialBatchMatchesSequential runs the whole corpus through a
// handle's OptimizeBatch with 8 workers and exact cache keys — no cache,
// cache-cold, and cache-warm — and requires byte-identical reports to the
// sequential Scenario.Optimize path each time.
func TestDifferentialBatchMatchesSequential(t *testing.T) {
	corpus := diffCorpus(t)
	reqs := make([]Request, len(corpus))
	want := make([]string, len(corpus))
	for i, sc := range corpus {
		reqs[i] = corpusRequest(sc, AlgC)
		rep, err := sc.Optimize(AlgC)
		if err != nil {
			t.Fatalf("scenario %d: sequential: %v", i, err)
		}
		want[i] = batchReportKey(rep)
	}
	check := func(label string, results []Response) {
		t.Helper()
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("%s: scenario %d: %v", label, i, r.Err)
			}
			if got := responseKey(r); got != want[i] {
				t.Errorf("%s: scenario %d:\n got %s\nwant %s", label, i, got, want[i])
			}
		}
	}
	check("no-cache", New(nil, WithWorkers(8), WithExactCacheKeys(), WithoutPlanCache()).OptimizeBatch(reqs))
	cache := NewPlanCache(1024)
	check("cache-cold", New(nil, WithWorkers(8), WithExactCacheKeys(), WithSharedCache(cache)).OptimizeBatch(reqs))
	warm := New(nil, WithWorkers(8), WithExactCacheKeys(), WithSharedCache(cache)).OptimizeBatch(reqs)
	check("cache-warm", warm)
	hits := 0
	for _, r := range warm {
		if r.CacheHit {
			hits++
		}
	}
	if hits != len(reqs) {
		t.Errorf("warm pass: %d/%d cache hits", hits, len(reqs))
	}
}

// TestDifferentialPhaseECContract pins the phase-count contract across the
// whole corpus: every algorithm's report carries exactly one analytic
// charge per execution phase of its plan (the same count the engine uses
// for ExecResult.PhaseIO — both sides are defined by plan.Phases()), every
// entry is finite and non-negative, and for the memory-only algorithms the
// entries sum back to the minimized score. A drifting phase index — the
// bug class behind the dynamic-memory rank inversion — breaks one of
// these on some corpus shape.
func TestDifferentialPhaseECContract(t *testing.T) {
	algs := []Algorithm{AlgLSCMean, AlgLSCMode, AlgA, AlgB, AlgC}
	for i, sc := range diffCorpus(t) {
		for _, alg := range algs {
			rep, err := sc.Optimize(alg)
			if err != nil {
				t.Fatalf("scenario %d: %s: %v", i, alg, err)
			}
			phases := rep.Plan.Phases()
			if len(rep.PhaseEC) != phases {
				t.Fatalf("scenario %d: %s: %d phase charges for a %d-phase plan (%s)",
					i, alg, len(rep.PhaseEC), phases, rep.Plan.Signature())
			}
			var sum float64
			for pi, v := range rep.PhaseEC {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("scenario %d: %s: PhaseEC[%d]=%v", i, alg, pi, v)
				}
				sum += v
			}
			if !relClose(sum, rep.Score, 1e-9) {
				t.Errorf("scenario %d: %s: sum(PhaseEC)=%v != Score=%v (plan %s)",
					i, alg, sum, rep.Score, rep.Plan.Signature())
			}
		}
	}
}
