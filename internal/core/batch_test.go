package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/plancache"
	"lecopt/internal/workload"
)

// batchScenarios builds a deterministic mixed workload: random scenarios
// across shapes and sizes, each paired with a standard environment.
func batchScenarios(t testing.TB, n int) []*Scenario {
	t.Helper()
	envs, err := workload.StandardEnvs()
	if err != nil {
		t.Fatal(err)
	}
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	out := make([]*Scenario, n)
	for i := range out {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		sc, err := workload.Generate(workload.DefaultSpec(2+i%3, shapes[i%len(shapes)]), rng)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = &Scenario{Cat: sc.Cat, Query: sc.Block, Env: envs[i%len(envs)].Env}
	}
	return out
}

// reportKey renders every field of a PlanReport for byte-identity checks.
func reportKey(r PlanReport) string {
	return fmt.Sprintf("%s|%s|%v|%v|%d|%d",
		r.Algorithm, r.Plan.Signature(), r.Score, r.EC, r.Candidates, r.Probes)
}

// scenarioRequest converts a Scenario into the handle's Request form.
func scenarioRequest(sc *Scenario, alg Algorithm) Request {
	return Request{
		Cat: sc.Cat, Query: sc.Query, Env: sc.Env,
		SelLaws: sc.SelLaws, SizeLaws: sc.SizeLaws,
		Opts: &sc.Opts, TopC: sc.TopC, Alg: alg,
	}
}

// exactConfig is a handle configuration that answers exactly like
// Scenario.Optimize: exact cache keys and no feedback.
func exactConfig(workers int, cache *plancache.Cache[PlanReport]) Config {
	cfg := Config{Workers: workers, DriftBand: -1, DisableFeedback: true, Cache: cache}
	if cache == nil {
		cfg.CacheSize = -1
	}
	return cfg
}

func TestOptimizeBatchMatchesSequential(t *testing.T) {
	scs := batchScenarios(t, 24)
	algs := []Algorithm{AlgLSCMean, AlgLSCMode, AlgA, AlgB, AlgC}
	var reqs []Request
	var want []string
	for _, sc := range scs {
		for _, alg := range algs {
			reqs = append(reqs, scenarioRequest(sc, alg))
			rep, err := sc.Optimize(alg)
			if err != nil {
				t.Fatalf("sequential request %d: %v", len(want), err)
			}
			want = append(want, reportKey(rep))
		}
	}
	for _, workers := range []int{1, 8} {
		results := NewOptimizer(nil, exactConfig(workers, nil)).OptimizeBatch(reqs)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d request %d: %v", workers, i, r.Err)
			}
			if got := reportKey(r.PlanReport); got != want[i] {
				t.Fatalf("workers=%d request %d:\n got %s\nwant %s", workers, i, got, want[i])
			}
		}
	}
}

func TestOptimizeBatchCache(t *testing.T) {
	scs := batchScenarios(t, 8)
	var reqs []Request
	for round := 0; round < 3; round++ {
		for _, sc := range scs {
			reqs = append(reqs, scenarioRequest(sc, AlgC))
		}
	}
	cache := plancache.New[PlanReport](256)
	// Warm sequentially so hit accounting is deterministic, then re-run
	// hot on a second handle sharing the cache.
	cold := NewOptimizer(nil, exactConfig(1, cache)).OptimizeBatch(reqs[:len(scs)])
	for i, r := range cold {
		if r.Err != nil || r.CacheHit {
			t.Fatalf("cold request %d: err=%v hit=%v", i, r.Err, r.CacheHit)
		}
	}
	hot := NewOptimizer(nil, exactConfig(4, cache)).OptimizeBatch(reqs)
	for i, r := range hot {
		if r.Err != nil {
			t.Fatalf("hot request %d: %v", i, r.Err)
		}
		if !r.CacheHit {
			t.Fatalf("hot request %d missed a warmed cache", i)
		}
		if got, want := reportKey(r.PlanReport), reportKey(cold[i%len(scs)].PlanReport); got != want {
			t.Fatalf("hot request %d:\n got %s\nwant %s", i, got, want)
		}
	}
	st := cache.Stats()
	if st.Hits != uint64(len(reqs)) || st.Misses != uint64(len(scs)) {
		t.Fatalf("cache counters %+v, want %d hits and %d misses", st, len(reqs), len(scs))
	}
	if st.Size != len(scs) {
		t.Fatalf("cache size = %d, want %d", st.Size, len(scs))
	}
}

func TestOptimizeBatchPerJobErrors(t *testing.T) {
	scs := batchScenarios(t, 2)
	noCat := scenarioRequest(scs[0], AlgC)
	noCat.Cat = nil
	badEnv := scenarioRequest(scs[0], AlgC)
	badEnv.Env = envsim.Env{}
	reqs := []Request{
		scenarioRequest(scs[0], AlgC),
		{Alg: AlgC},
		noCat,
		scenarioRequest(scs[1], Algorithm(99)),
		badEnv,
		scenarioRequest(scs[1], AlgC),
	}
	for _, cache := range []*plancache.Cache[PlanReport]{nil, plancache.New[PlanReport](64)} {
		results := NewOptimizer(nil, exactConfig(3, cache)).OptimizeBatch(reqs)
		if results[0].Err != nil || results[5].Err != nil {
			t.Fatalf("good requests failed: %v, %v", results[0].Err, results[5].Err)
		}
		if !errors.Is(results[1].Err, ErrBadRequest) || !errors.Is(results[2].Err, ErrNoCatalog) {
			t.Fatalf("missing query/catalog errors: %v, %v", results[1].Err, results[2].Err)
		}
		if !errors.Is(results[3].Err, ErrUnknownAlg) {
			t.Fatalf("unknown alg error: %v", results[3].Err)
		}
		if results[4].Err == nil {
			t.Fatal("invalid environment was optimized")
		}
	}
}

func TestOptimizeBatchEmpty(t *testing.T) {
	if got := NewOptimizer(nil, Config{}).OptimizeBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

func TestCacheKeyErrors(t *testing.T) {
	sc := &Scenario{}
	if _, err := sc.CacheKeyBandedMargin(AlgC, 0, 0); !errors.Is(err, ErrNilScenario) {
		t.Fatalf("cache key of an empty scenario: %v", err)
	}
}

// TestCacheKeyIgnoresUnreadInputs pins the key-sharing rule: inputs an
// algorithm never reads (TopC outside AlgB, the D-only laws outside AlgD)
// must not split its cache keys.
func TestCacheKeyIgnoresUnreadInputs(t *testing.T) {
	base := batchScenarios(t, 1)[0]
	key := func(mutate func(*Scenario), alg Algorithm) string {
		sc := *base
		mutate(&sc)
		k, err := sc.CacheKeyBandedMargin(alg, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	plain := key(func(*Scenario) {}, AlgC)
	if plain != key(func(sc *Scenario) { sc.TopC = 7 }, AlgC) {
		t.Fatal("TopC split AlgC cache keys")
	}
	if plain != key(func(sc *Scenario) {
		sc.SelLaws = map[string]dist.Dist{"t0.k=t1.k": dist.Point(0.5)}
	}, AlgC) {
		t.Fatal("SelLaws split AlgC cache keys")
	}
	if key(func(*Scenario) {}, AlgB) == key(func(sc *Scenario) { sc.TopC = 7 }, AlgB) {
		t.Fatal("TopC must differentiate AlgB cache keys")
	}
	if key(func(*Scenario) {}, AlgD) == key(func(sc *Scenario) {
		sc.SelLaws = map[string]dist.Dist{"t0.k=t1.k": dist.Point(0.5)}
	}, AlgD) {
		t.Fatal("SelLaws must differentiate AlgD cache keys")
	}
}
