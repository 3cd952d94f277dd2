package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"
	"weak"

	"lecopt"
	"lecopt/internal/catalog"
	"lecopt/internal/core"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
	"lecopt/internal/plancache"
	"lecopt/internal/query"
	"lecopt/internal/sqlmini"
)

// dataSeed generates the benchmark's fixed data: query templates,
// catalogs and stored relations. The run's --seed drives everything a
// request carries (which template, drift step, memory law, tenant, memory
// trajectory, SQL or block), so runs with different seeds draw different
// request streams over the same database and their figures stay
// comparable.
const dataSeed = 1999

// heldOutSeed is kept out of tuning and reserved for re-checking a
// claimed gain on inputs no change was written against.
const heldOutSeed = 20261017

// item is one request's inputs as the benchmark knows them: the template
// block, the catalog and environment the request carries, and whether it
// goes to the handle as SQL text.
type item struct {
	blk  *query.Block
	sql  string // non-empty: the handle receives SQL, parsed per call
	cat  *catalog.Catalog
	env  envsim.Env
	alg  core.Algorithm
	opts *optimizer.Options // nil: the handle default
	// hints are the feedback sizes the handle folds in for this request;
	// the benchmark keeps them only to rebuild the inputs for checks.
	hints map[string]float64
}

func (it *item) request() lecopt.Request {
	r := lecopt.Request{Cat: it.cat, Env: it.env, Alg: it.alg, Opts: it.opts}
	if it.sql != "" {
		r.SQL = it.sql
	} else {
		r.Query = it.blk
	}
	return r
}

// scenario rebuilds the inputs the handle optimizes for this request.
func (it *item) scenario() *core.Scenario {
	sc := &core.Scenario{Cat: it.cat, Query: it.blk, Env: it.env}
	if it.opts != nil {
		sc.Opts = *it.opts
	}
	if len(it.hints) > 0 {
		sc.Opts.SizeHints = it.hints
	}
	return sc
}

// sqlFor renders a block as SQL and checks that it parses back to the
// same canonical query against cat.
func sqlFor(blk *query.Block, cat *catalog.Catalog) (string, error) {
	sql := blk.String()
	back, err := sqlmini.ParseAndValidate(sql, cat)
	if err != nil {
		return "", fmt.Errorf("template SQL %q: %w", sql, err)
	}
	if back.Canonical() != blk.Canonical() {
		return "", fmt.Errorf("template SQL %q parses to another query", sql)
	}
	return sql, nil
}

// check is one response kept for the comparison with an
// uncached optimization.
type check struct {
	it       item
	rep      core.PlanReport
	hit      bool
	inPrefix bool
}

// origins maps each plan the handle computed on a miss to the inputs it
// was computed from, so a later hit can be checked against an uncached
// optimization of those inputs: with drift-banded keys a hit may serve a
// plan computed for a neighbouring catalog. A band-edge probe hit stores
// the plan again under the hitting request's own key, so the lookup keys
// of every request served the plan under another key are kept too.
// Plans are held weakly: a plan the handle has evicted and dropped is
// collected as it would be without the benchmark, and its entry goes at
// the next sweep.
type origins struct {
	mu    sync.Mutex
	m     map[weak.Pointer[plan.Node]]*origin
	swept int // len(m) after the last sweep
}

type origin struct {
	first   item
	key     string      // first's banded key; "" until needed
	aliases [][3]string // lookup keys of requests served the plan under another key
}

func newOrigins() *origins { return &origins{m: make(map[weak.Pointer[plan.Node]]*origin)} }

// put records the inputs a plan was computed from on a miss.
func (o *origins) put(p *plan.Node, it item) {
	o.mu.Lock()
	defer o.mu.Unlock()
	w := weak.Make(p)
	if _, ok := o.m[w]; ok {
		return
	}
	o.m[w] = &origin{first: it}
	if len(o.m) >= 2*o.swept+4096 {
		for k := range o.m {
			if k.Value() == nil {
				delete(o.m, k)
			}
		}
		o.swept = len(o.m)
	}
}

// alias records a request the cache served p to. Only a request whose
// banded key differs from the one p was computed under adds a key p can
// be held under, so only such a request's lookup keys are kept.
func (o *origins) alias(p *plan.Node, it item) {
	o.mu.Lock()
	defer o.mu.Unlock()
	e := o.m[weak.Make(p)]
	if e == nil || e.ensureKey() != nil {
		return
	}
	k, err := it.scenario().CacheKeyBandedMargin(it.alg, keyBand, 0)
	if err != nil || k == e.key {
		return
	}
	if keys, err := probeKeys(&it); err == nil {
		e.aliases = append(e.aliases, keys)
	}
}

// ensureKey computes the banded key of the inputs that computed the plan.
func (e *origin) ensureKey() error {
	if e.key != "" {
		return nil
	}
	k, err := probeKeys(&e.first)
	e.key = k[0]
	return err
}

// get returns a copy of p's entry, its key computed.
func (o *origins) get(p *plan.Node) (origin, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	e := o.m[weak.Make(p)]
	if e == nil || e.ensureKey() != nil {
		return origin{}, false
	}
	return *e, true
}

// probeKeys returns the keys the handle looks a request up under: its
// drift-banded key and the two band-edge probe keys.
func probeKeys(it *item) ([3]string, error) {
	var keys [3]string
	sc := it.scenario()
	for i, margin := range [3]float64{0, -core.BandMargin, core.BandMargin} {
		k, err := sc.CacheKeyBandedMargin(it.alg, keyBand, margin)
		if err != nil {
			return keys, err
		}
		keys[i] = k
	}
	return keys, nil
}

// heldKeys returns the keys under which the handle can have stored the
// plan of o: the banded key of the inputs that computed it and, grown
// to a fixed point, the banded key of every alias one of whose probe
// keys is already held (a band-edge probe hit re-stores the plan under
// the hitting request's key).
func heldKeys(o origin) map[string]bool {
	held := map[string]bool{o.key: true}
	for grown := true; grown; {
		grown = false
		for _, k := range o.aliases {
			if !held[k[0]] && (held[k[1]] || held[k[2]]) {
				held[k[0]] = true
				grown = true
			}
		}
	}
	return held
}

// validator applies the per-response output checks: no error, a plan
// that passes plan.Validate, and a finite expected cost. Plans served
// from the cache repeat, so each distinct plan is validated once per
// window of recently seen plans.
type validator struct {
	seen map[*plan.Node]struct{}
}

func newValidator() *validator { return &validator{seen: make(map[*plan.Node]struct{})} }

func (v *validator) ok(rep core.PlanReport, err error) bool {
	if err != nil || rep.Plan == nil || math.IsNaN(rep.EC) || math.IsInf(rep.EC, 0) {
		return false
	}
	if _, done := v.seen[rep.Plan]; done {
		return true
	}
	if rep.Plan.Validate() != nil {
		return false
	}
	if len(v.seen) >= 1024 {
		clear(v.seen)
	}
	v.seen[rep.Plan] = struct{}{}
	return true
}

// verify runs the full checks: the served plan's signature and
// expected cost must equal those of an uncached core.Scenario.Optimize on
// the inputs the plan was computed from. A hit must also belong to the
// request: one of the request's lookup keys (banded or band-edge probe)
// must be a key the plan is held under, so the two differ at most by a
// drift band and agree on the canonical query, law, algorithm and
// options. It returns the failures and, over the LEC checks inside the
// deterministic prefix, the sum and count of the ratio of the served
// plan's expected cost to the LSC plan's, both under the request's own
// environment.
func verify(checks []check, orig *origins) (failed int, ratioSum float64, ratioN int) {
	held := make(map[*plan.Node]map[string]bool)
	for _, c := range checks {
		src := c.it
		if c.hit {
			o, ok := orig.get(c.rep.Plan)
			if !ok || !heldFor(c, o, held) {
				failed++
				continue
			}
			src = o.first
		}
		ref, err := src.scenario().Optimize(c.rep.Algorithm)
		if err != nil || ref.Plan.Signature() != c.rep.Plan.Signature() || ref.EC != c.rep.EC {
			failed++
			continue
		}
		if !c.inPrefix || c.it.alg != core.AlgC {
			continue
		}
		own := c.it.scenario()
		ec, err := own.ExpectedCost(c.rep.Plan)
		if err != nil {
			failed++
			continue
		}
		lsc, err := own.Optimize(core.AlgLSCMode)
		if err != nil {
			failed++
			continue
		}
		ratioSum += ratio(ec, lsc.EC)
		ratioN++
	}
	return failed, ratioSum, ratioN
}

// heldFor reports whether one of the lookup keys of hit c is a key the
// served plan is held under. held memoizes heldKeys per plan.
func heldFor(c check, o origin, held map[*plan.Node]map[string]bool) bool {
	h, ok := held[c.rep.Plan]
	if !ok {
		h = heldKeys(o)
		held[c.rep.Plan] = h
	}
	keys, err := probeKeys(&c.it)
	if err != nil {
		return false
	}
	return h[keys[0]] || h[keys[1]] || h[keys[2]]
}

// layerCalls replays, with a span around each call, the module calls one
// request makes on the way into the handle: parse (SQL callers), the
// canonical form, the cache key, an uncounted probe of the shared cache
// and, when the probe misses, the optimizer on the same inputs, a clone
// of its plan and a Put into the shadow cache. It returns the
// request's cache key and whether the probe hit. dup marks a key already
// seen in the same batch: the handle deduplicates it, so the optimizer
// is not replayed for it.
func layerCalls(tr *tracer, id uint32, parent int32, it *item, band float64,
	cache, shadow *lecopt.PlanCache, keyBuf []byte, dup func([]byte) bool) ([]byte, bool, error) {
	blk := it.blk
	if it.sql != "" {
		s := tr.begin(lParse, id, parent)
		parsed, err := sqlmini.ParseAndValidate(it.sql, it.cat)
		tr.end(s)
		if err != nil {
			return keyBuf, false, err
		}
		blk = parsed
	}
	s := tr.begin(lCanonical, id, parent)
	_ = blk.Canonical()
	tr.end(s)
	sc := *it.scenario()
	sc.Query = blk
	s = tr.begin(lKey, id, parent)
	key, err := sc.AppendCacheKey(keyBuf[:0], it.alg, band, 0)
	tr.end(s)
	if err != nil {
		return key, false, err
	}
	s = tr.begin(lProbe, id, parent)
	_, hit := cache.ProbeBytes(key)
	tr.end(s)
	isDup := dup != nil && dup(key)
	if hit || isDup {
		return key, hit, nil
	}
	res, err := optimize(tr, id, parent, &sc, it.alg)
	if err != nil {
		return key, false, err
	}
	// The optimizer returns its plan already cloned out of its arena, and
	// the handle makes no clone of its own. This Clone repeats that
	// clone-out on its own, so plan.clone_us can time it.
	s = tr.begin(lClone, id, parent)
	cl := res.Plan.Clone()
	tr.end(s)
	s = tr.begin(lPut, id, parent)
	shadow.Put(string(key), core.PlanReport{Algorithm: it.alg, Plan: cl, EC: res.EC})
	tr.end(s)
	if it.alg == core.AlgC {
		// The same-inputs System R run gives the LEC-over-LSC factor. It
		// is the benchmark's own reference, not work the handle does.
		s = tr.begin(lLSCRef, id, parent)
		_, err = optimizer.LSC(sc.Cat, sc.Query, sc.Opts, sc.Env.Mem.Mode())
		tr.end(s)
	}
	return key, false, err
}

// optimize calls the optimizer entry point core.Scenario.Optimize would
// pick for alg, inside a span.
func optimize(tr *tracer, id uint32, parent int32, sc *core.Scenario, alg core.Algorithm) (optimizer.Result, error) {
	var (
		res optimizer.Result
		err error
	)
	switch alg {
	case core.AlgC:
		s := tr.begin(lDP, id, parent)
		if sc.Env.Chain != nil {
			res, err = optimizer.AlgorithmCDynamic(sc.Cat, sc.Query, sc.Opts, sc.Env.Mem, sc.Env.Chain)
		} else {
			res, err = optimizer.AlgorithmC(sc.Cat, sc.Query, sc.Opts, sc.Env.Mem)
		}
		tr.end(s)
	case core.AlgLSCMode:
		s := tr.begin(lLSCDP, id, parent)
		res, err = optimizer.LSC(sc.Cat, sc.Query, sc.Opts, sc.Env.Mem.Mode())
		tr.end(s)
	default:
		err = fmt.Errorf("perfbench: algorithm %s is not replayed", alg)
	}
	return res, err
}

// allocsPer returns the heap objects one call of f allocates, averaged
// over n calls. runtime.ReadMemStats flushes every cache, so the count is
// exact; callers run it while no other goroutine of theirs is working.
func allocsPer(n int, f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// planNodes counts a plan's operators.
func planNodes(p *plan.Node) int {
	n := 0
	p.Walk(func(*plan.Node) { n++ })
	return n
}

// newRand returns a generator for stream s of the run seeded by seed.
func newRand(seed int64, s int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + s))
}

// since returns the elapsed time from t as seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// keyBand is the drift band the handle keys its cache with by default.
const keyBand = core.DefaultDriftBand

// newKeyBuf returns a buffer that holds one cache key.
func newKeyBuf() []byte { return make([]byte, 0, plancache.KeyLen) }

// meter records the process-wide counters around one timed phase.
type meter struct {
	start    time.Time
	duration float64       // seconds
	busy     time.Duration // program time, summed over callers
	obj0     uint64
	allocs   uint64 // heap objects allocated during the phase
	gc0, gc1 gcState
	cache0   lecopt.CacheStats
	cache1   lecopt.CacheStats
	cpu0     float64
	cpu      float64 // process CPU seconds during the phase
	steal0   float64
	steal    float64 // CPU seconds the hypervisor ran others on the host's CPUs
	rssMiB   float64 // the process's peak RSS when the phase ended
	mem      *memSampler
}

func (m *meter) begin(cache *lecopt.PlanCache) {
	m.gc0 = readGC()
	m.cache0 = cache.Stats()
	m.obj0 = heapObjects()
	m.cpu0 = cpuSeconds()
	m.steal0 = stealSeconds()
	m.mem = startMemSampler(memEvery)
	m.start = time.Now()
}

func (m *meter) finish(end time.Time, cache *lecopt.PlanCache) {
	m.duration = end.Sub(m.start).Seconds()
	m.cpu = cpuSeconds() - m.cpu0
	m.steal = stealSeconds() - m.steal0
	m.rssMiB = peakRSSMiB()
	m.mem.stop()
	m.allocs = heapObjects() - m.obj0
	m.gc1 = readGC()
	m.cache1 = cache.Stats()
}
