package core

import (
	"math"
	"math/rand"
	"testing"

	"lecopt/internal/plancache"
)

// driftWalk is a seeded multiplicative drift walk over edgeCat's
// statistics. It opens with the 1 → 1.1 band-edge step (served by
// hysteresis) and then wanders across further band boundaries.
func driftWalk(t *testing.T, n int) []Request {
	rng := rand.New(rand.NewSource(11))
	factors := []float64{1, 1.1}
	for f := 1.1; len(factors) < n; {
		f *= math.Exp(0.3 * rng.NormFloat64())
		factors = append(factors, f)
	}
	reqs := make([]Request, n)
	for i, f := range factors {
		reqs[i] = edgeReq(edgeCat(t, f))
	}
	return reqs
}

// TestCountersAgreeAcrossLayers: the lookup step records exactly one
// counted event per request, and a served hit — primary key or band-edge
// hysteresis — is a counted hit, through Optimize and OptimizeBatch alike.
func TestCountersAgreeAcrossLayers(t *testing.T) {
	reqs := driftWalk(t, 80)
	check := func(name string, o *Optimizer, resps []Response) {
		t.Helper()
		hits := 0
		for i, r := range resps {
			if r.Err != nil {
				t.Fatalf("%s: request %d: %v", name, i, r.Err)
			}
			if r.CacheHit {
				hits++
			}
		}
		st := o.CacheStats()
		if st.Hits != uint64(hits) {
			t.Errorf("%s: cache counted %d hits, responses report %d", name, st.Hits, hits)
		}
		if st.Hits+st.Misses != uint64(len(reqs)) {
			t.Errorf("%s: %d hits + %d misses for %d requests", name, st.Hits, st.Misses, len(reqs))
		}
		if st.Hits == 0 || st.Misses == 0 {
			t.Errorf("%s: walk must both hit and miss: %+v", name, st)
		}
	}

	seq := NewOptimizer(nil, Config{Workers: 1})
	var resps []Response
	for _, r := range reqs {
		resp, err := seq.Optimize(r)
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, resp)
	}
	if !resps[1].CacheHit {
		t.Fatal("band-edge step was not served by hysteresis")
	}
	check("Optimize", seq, resps)

	batch := NewOptimizer(nil, Config{Workers: 4})
	resps = resps[:0]
	for lo := 0; lo < len(reqs); lo += 7 {
		resps = append(resps, batch.OptimizeBatch(reqs[lo:min(lo+7, len(reqs))])...)
	}
	check("OptimizeBatch", batch, resps)
}

// TestCachedNeverStores: Cached serves without computing and without
// writing — not after a miss, and not after a wide-margin hit from a
// neighboring band. Its miss is left uncounted for the caller that goes
// on to compute, and so is a hit found beyond BandMargin.
func TestCachedNeverStores(t *testing.T) {
	o := NewOptimizer(nil, Config{Workers: 1})
	if _, err := o.Optimize(edgeReq(edgeCat(t, 1))); err != nil {
		t.Fatal(err)
	}
	before := o.CacheStats()
	if _, ok := o.Cached(edgeReq(edgeCat(t, 2))); ok {
		t.Fatal("a full-band step was served without widened margins")
	}
	wide, ok := o.Cached(edgeReq(edgeCat(t, 2)), 0.25, 0.5, 1, 2)
	if !ok || !wide.CacheHit || wide.Plan == nil {
		t.Fatal("widened margins did not reach the neighboring band")
	}
	after := o.CacheStats()
	if after.Size != before.Size {
		t.Fatalf("Cached stored an entry: size %d -> %d", before.Size, after.Size)
	}
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("Cached counted a miss or a far-band hit: %+v -> %+v", before, after)
	}
	if _, ok := o.Cached(edgeReq(edgeCat(t, 1))); !ok {
		t.Fatal("primary key missed")
	}
	if st := o.CacheStats(); st.Hits != before.Hits+1 || st.Size != before.Size {
		t.Fatalf("primary-key Cached hit: %+v, want one more counted hit and no store", st)
	}
}

// TestCachedServesNearestBandFirst: with entries cached under two
// neighboring bands, widened margins serve the nearer one, in the order
// the caller lists the margins.
func TestCachedServesNearestBandFirst(t *testing.T) {
	cache := plancache.New[PlanReport](64)
	o := NewOptimizer(nil, Config{Cache: cache})
	req := edgeReq(edgeCat(t, 1.25))
	sc := &Scenario{Cat: req.Cat, Query: req.Query, Env: req.Env}
	key := func(margin float64) string {
		k, err := sc.CacheKeyBandedMargin(AlgC, o.DriftBand(), margin)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	near, far := key(-0.5), key(-1)
	for _, k := range []string{key(0), key(-0.25), key(0.25)} {
		if k == near || k == far {
			t.Fatal("fixture: the hysteresis keys must not reach the seeded bands")
		}
	}
	if near == far {
		t.Fatal("fixture: the half-band and full-band probes must name different bands")
	}
	cache.Put(near, PlanReport{Score: 1})
	cache.Put(far, PlanReport{Score: 2})
	for _, c := range []struct {
		margins []float64
		score   float64
	}{
		{[]float64{0.25, 0.5, 1, 2}, 1},
		{[]float64{1, 0.5}, 2},
		{[]float64{0.5}, 1},
	} {
		resp, ok := o.Cached(req, c.margins...)
		if !ok || resp.Score != c.score {
			t.Fatalf("margins %v: served score %v (hit %v), want %v", c.margins, resp.Score, ok, c.score)
		}
	}
}
