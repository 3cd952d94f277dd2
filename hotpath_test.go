// Hot-path gates: the allocation contracts and concurrency properties of
// the serving path (see DESIGN.md "Hot path"). These run as part of the
// ordinary test suite so a regression that reintroduces per-request
// garbage — a signature rebuilt on the heap, a scenario that escapes, a
// DP table that stops pooling — fails `go test ./...`, not just a
// benchmark someone has to read.
package lecopt

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lecopt/internal/feedback"
	"lecopt/internal/workload"
)

// missPathAllocBudget bounds the allocations of one cache-miss Optimize
// (request resolution + cache key + full DP + report). Measured at 73
// allocs/op on the reference corpus (264 while exact score ties built
// both plans' signature strings, 1324 before the pooled scratch arenas);
// the budget leaves ~1.6x headroom so routine churn does not trip it
// while a tie-break that builds strings again (~190 per query here) or a
// return to per-node heap allocation (hundreds) still does.
const missPathAllocBudget = 120

// hotPathRequests builds the mixed 2-5 table request corpus the
// allocation gates and benchmarks share.
func hotPathRequests(t testing.TB, n int) []Request {
	t.Helper()
	envs, err := workload.StandardEnvs()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	reqs := make([]Request, n)
	for i := range reqs {
		sc, err := workload.Generate(workload.DefaultSpec(2+rng.Intn(4), shapes[i%len(shapes)]), rng)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = Request{Cat: sc.Cat, Query: sc.Block, Env: envs[i%len(envs)].Env, Alg: AlgC}
	}
	return reqs
}

// TestWarmHitZeroAllocs pins the tentpole claim: a plan-cache hit performs
// zero heap allocations — the key is built in a pooled buffer, hashed on
// the stack, and looked up by raw bytes; the scenario itself is pooled.
// Optimize and Cached share the lookup step, so both are held to it.
func TestWarmHitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	reqs := hotPathRequests(t, 64)
	opt := New(nil)
	for _, r := range reqs {
		if _, err := opt.Optimize(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []struct {
		name  string
		serve func(Request) error
	}{
		{"Optimize", func(r Request) error {
			_, err := opt.Optimize(r)
			return err
		}},
		{"Cached", func(r Request) error {
			if _, ok := opt.Cached(r); !ok {
				return fmt.Errorf("warm request missed")
			}
			return nil
		}},
	} {
		i := 0
		allocs := testing.AllocsPerRun(500, func() {
			if err := path.serve(reqs[i%len(reqs)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("warm %s hit allocates: %.2f allocs/op, want 0", path.name, allocs)
		}
	}
}

// TestMissPathAllocBudget bounds the full optimize path. Unlike the hit
// gate this cannot be zero — the report and its plan tree are real
// results — but the DP's working state (tables, join nodes, candidate
// buffers) must stay pooled.
func TestMissPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	reqs := hotPathRequests(t, 64)
	opt := New(nil, WithoutPlanCache())
	for _, r := range reqs[:8] { // warm the scratch pools
		if _, err := opt.Optimize(r); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := opt.Optimize(reqs[i%len(reqs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > missPathAllocBudget {
		t.Fatalf("cache-miss Optimize allocates %.2f allocs/op, budget %d", allocs, missPathAllocBudget)
	}
}

// batchAllocBudget bounds the allocations per request of one OptimizeBatch
// over a repeat-heavy stream on a fresh handle, cache build and cold misses
// included. Measured at 2.73 allocs/request at 1, 2 and 8 workers; one more
// allocation per request, hit or miss, exceeds it.
const batchAllocBudget = 3.5

// TestBatchAllocBudget is the batch pipeline's allocation gate: 2000
// requests drawn from 64 distinct scenarios (so 64 misses, the rest
// same-batch duplicates) through a fresh handle at 1 and 8 workers.
func TestBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	distinct := hotPathRequests(t, 64)
	rng := rand.New(rand.NewSource(7))
	reqs := make([]Request, 2000)
	for i := range reqs {
		reqs[i] = distinct[rng.Intn(len(distinct))]
	}
	for _, w := range []int{1, 8} {
		var failed error
		allocs := testing.AllocsPerRun(5, func() {
			opt := New(nil, WithWorkers(w), WithoutFeedback())
			for _, r := range opt.OptimizeBatch(reqs) {
				if r.Err != nil && failed == nil {
					failed = r.Err
				}
			}
		})
		if failed != nil {
			t.Fatal(failed)
		}
		if perReq := allocs / float64(len(reqs)); perReq > batchAllocBudget {
			t.Fatalf("workers=%d: OptimizeBatch allocates %.2f allocs/request, budget %.1f", w, perReq, batchAllocBudget)
		}
	}
}

// TestConcurrentOptimizeObserve drives Optimize and Observe through one
// handle from many goroutines — the serving pattern the sharded feedback
// store exists for. Run under -race this proves the shard locking and the
// lock-free observation counter; under the plain suite it still checks
// that concurrent feedback never corrupts results (every response must
// carry a plan).
func TestConcurrentOptimizeObserve(t *testing.T) {
	reqs := hotPathRequests(t, 32)
	opt := New(nil, WithPlanCache(256))
	var wg sync.WaitGroup
	const goroutines, iters = 8, 200
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r := reqs[(g*iters+i)%len(reqs)]
				if g%2 == 0 {
					resp, err := opt.Optimize(r)
					if err != nil {
						errs <- err
						return
					}
					if resp.Plan == nil {
						errs <- fmt.Errorf("goroutine %d iter %d: nil plan", g, i)
						return
					}
				} else {
					err := opt.Observe(Feedback{Cat: r.Cat, Query: r.Query, Sizes: map[string]float64{
						feedback.SetKey(r.Query.Tables[0], r.Query.Tables[1]): float64(100 + i),
					}})
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCorpusWorkersByteIdentical runs the 200-scenario differential corpus
// through the public surface at workers 1, 4 and 8 and requires identical
// reports: Options.Workers must never change which plan is found, which is
// also why it is excluded from plan-cache signatures. (The in-package
// optimizer tests force the rank-parallel gate open on this corpus's
// shapes; here the corpus pins the end-to-end wiring.)
func TestCorpusWorkersByteIdentical(t *testing.T) {
	for i, sc := range diffCorpus(t) {
		sc.Opts.Workers = 1
		base, err := sc.Optimize(AlgC)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		want := batchReportKey(base)
		for _, w := range []int{4, 8} {
			sc.Opts.Workers = w
			rep, err := sc.Optimize(AlgC)
			if err != nil {
				t.Fatalf("scenario %d workers=%d: %v", i, w, err)
			}
			if got := batchReportKey(rep); got != want {
				t.Fatalf("scenario %d: workers=%d diverged:\n got %s\nwant %s", i, w, got, want)
			}
		}
	}
}

// BenchmarkOptimizeHit measures the warm plan-cache hit path; run with
// -benchmem, the headline is 0 allocs/op.
func BenchmarkOptimizeHit(b *testing.B) {
	reqs := hotPathRequests(b, 64)
	opt := New(nil)
	for _, r := range reqs {
		if _, err := opt.Optimize(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeMiss measures the uncached optimize path with pooled
// DP scratch (cache disabled so every iteration runs the dynamic program).
func BenchmarkOptimizeMiss(b *testing.B) {
	reqs := hotPathRequests(b, 64)
	opt := New(nil, WithoutPlanCache())
	for _, r := range reqs[:8] {
		if _, err := opt.Optimize(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveContended hammers the sharded feedback store from all
// cores: distinct queries hash to distinct shards, so throughput should
// scale instead of serializing on one store-wide mutex.
func BenchmarkObserveContended(b *testing.B) {
	reqs := hotPathRequests(b, 32)
	opt := New(nil, WithPlanCache(256))
	sizes := make([]map[string]float64, len(reqs))
	for i, r := range reqs {
		sizes[i] = map[string]float64{
			feedback.SetKey(r.Query.Tables[0], r.Query.Tables[1]): float64(100 + i),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r := reqs[i%len(reqs)]
			if err := opt.Observe(Feedback{Cat: r.Cat, Query: r.Query, Sizes: sizes[i%len(sizes)]}); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
