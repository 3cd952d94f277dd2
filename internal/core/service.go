package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"lecopt/internal/catalog"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/feedback"
	"lecopt/internal/optimizer"
	"lecopt/internal/parametric"
	"lecopt/internal/plan"
	"lecopt/internal/plancache"
	"lecopt/internal/pool"
	"lecopt/internal/query"
	"lecopt/internal/sqlmini"
)

// Service errors.
var (
	ErrNoCatalog  = errors.New("core: optimizer handle has no catalog (pass one to New, or set Request.Cat)")
	ErrBadRequest = errors.New("core: request names no query (set SQL, Query or Prepared)")
	ErrNoFeedback = errors.New("core: feedback must identify a query (set SQL, Query or Prepared)")
)

// Service defaults.
const (
	// DefaultDriftBand is the geometric band base for drift-banded plan
	// cache keys: distinct counts within a factor-2 band hash equal.
	DefaultDriftBand = 2
	// DefaultCacheSize is the plan-cache capacity of a new handle.
	DefaultCacheSize = 4096
	// BandMargin is the band-edge hysteresis width, in band units: after
	// a primary-key miss on a banded key, the handle probes the two keys whose
	// bands are offset by ±BandMargin before optimizing. A drift step of
	// up to base^BandMargin (≈19% at the default base 2) that happens to
	// cross a floor(log_base) boundary is thereby recognized as the
	// in-band neighbor it really is instead of splitting the cache. The
	// probe is best effort: an *undrifted* column that coincidentally sits
	// within the margin of its own boundary shifts under the probe too and
	// the digests diverge — the probe then simply misses and the request
	// is optimized normally.
	BandMargin = 0.25
)

// Config configures an Optimizer service handle. The root lecopt package
// wraps it in functional options; zero values mean the documented
// defaults.
type Config struct {
	// Workers bounds batch-optimization concurrency (0 = GOMAXPROCS).
	Workers int
	// CacheSize is the plan-cache capacity: 0 means DefaultCacheSize, a
	// negative value disables the plan cache.
	CacheSize int
	// Cache, when non-nil, is used instead of a freshly built cache —
	// share one across handles for a fleet-wide plan cache.
	Cache *plancache.Cache[PlanReport]
	// DriftBand is the geometric band base for drift-banded cache keys:
	// 0 means DefaultDriftBand; any value <= 1 selects exact-fingerprint
	// keys (the pre-handle behavior).
	DriftBand float64
	// PlanSpace is the default plan-space tuning applied to requests that
	// carry no explicit Options.
	PlanSpace optimizer.Options
	// TopC is the default Algorithm B candidate-list depth.
	TopC int
	// DisableFeedback turns the executed-size feedback store off;
	// Observe becomes a no-op and no hints flow into costing.
	DisableFeedback bool
	// AnticipatedLaws is Prepare's memory axis: the [INSS92]-style family
	// of anticipated memory distributions each prepared statement
	// precomputes LEC plans for. Empty disables plan-set precomputation
	// (Prepared.Select then falls back to full cached optimization).
	AnticipatedLaws []dist.Dist
}

// Optimizer is a concurrency-safe, long-lived optimization service: it
// owns the plan cache, the worker pool, the prepared statements with
// their parametric plan sets, and the executed-size feedback store. It is
// the stateful counterpart of the one-shot Scenario API — the place where
// cross-request state (cached plans, observed intermediate sizes,
// precomputed plan sets) lives in a serving fleet.
//
// The handle may be bound to a catalog at construction (required for
// Prepare and SQL-carrying requests); requests may override the catalog
// per call, which is how multi-catalog servers and statistics drift are
// expressed.
type Optimizer struct {
	cat  *catalog.Catalog
	cfg  Config
	band float64 // resolved drift band; 0 = exact keys

	cache *plancache.Cache[PlanReport]
	fb    *feedback.Store

	mu       sync.Mutex
	prepared map[string]*Prepared
}

// NewOptimizer builds a service handle over cat (which may be nil when
// every request supplies its own catalog).
func NewOptimizer(cat *catalog.Catalog, cfg Config) *Optimizer {
	o := &Optimizer{cat: cat, cfg: cfg, prepared: make(map[string]*Prepared)}
	o.band = ResolveDriftBand(cfg.DriftBand)
	switch {
	case cfg.Cache != nil:
		o.cache = cfg.Cache
	case cfg.CacheSize >= 0:
		size := cfg.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		o.cache = plancache.New[PlanReport](size)
	}
	if !cfg.DisableFeedback {
		o.fb = feedback.NewStore(feedback.DefaultAlpha)
	}
	return o
}

// Request is one optimization request against the handle: the query (one
// of SQL, Query or Prepared), the uncertainty model, and the algorithm.
// Everything a Scenario carries is either here or defaulted from the
// handle's Config.
type Request struct {
	// SQL is parsed and validated against the effective catalog on every
	// call; use Prepare to pay parsing and validation once.
	SQL string
	// Query is a pre-built validated block (takes precedence over SQL).
	Query *query.Block
	// Prepared binds the request to a prepared statement (takes
	// precedence over Query and SQL).
	Prepared *Prepared
	// Cat overrides the handle's catalog for this request — how drifted
	// or per-tenant statistics are supplied.
	Cat *catalog.Catalog
	// Env is the execution environment (memory law, optional chain).
	Env envsim.Env
	// Alg selects the optimization algorithm (zero value AlgLSCMean).
	Alg Algorithm
	// TopC overrides the handle's Algorithm B depth when positive.
	TopC int
	// SelLaws and SizeLaws are Algorithm D's uncertainty laws.
	SelLaws  map[string]dist.Dist
	SizeLaws map[string]dist.Dist
	// Opts overrides the handle's plan-space options for this request.
	Opts *optimizer.Options
}

// Response is the outcome of one request. PlanReport is embedded, so the
// plan, expected cost and optimizer bookkeeping read directly off it.
type Response struct {
	PlanReport
	// CacheHit reports the report was served from the plan cache.
	CacheHit bool
	// Parametric reports the plan came from a prepared statement's
	// precomputed plan set rather than a full optimization.
	Parametric bool
	// Elapsed is the wall-clock time this request spent inside the handle
	// (cache lookup plus, on a miss, the optimization) — the per-request
	// latency the repository benchmark (perfbench) aggregates. It is
	// measurement metadata: deterministic outputs (reports, artifacts that
	// must be byte-identical) never serialize it.
	Elapsed time.Duration
	// Err is the per-request failure in batch responses (nil on success).
	Err error
}

// queryKey identifies a query for the feedback store: canonical query
// shape plus the catalog fingerprint (drift-banded when banding is on, so
// observations survive statistics drift exactly as cached plans do).
func (o *Optimizer) queryKey(cat *catalog.Catalog, blk *query.Block) string {
	if o.band > 1 {
		return blk.Canonical() + "@" + cat.BandedFingerprint(o.band)
	}
	return blk.Canonical() + "@" + cat.Fingerprint()
}

// resolveQuery maps the shared (Prepared | Query | SQL, Cat override)
// request vocabulary — used identically by Optimize and Observe — to a
// concrete catalog and validated block.
func (o *Optimizer) resolveQuery(reqCat *catalog.Catalog, prep *Prepared, blk *query.Block, sql string) (*catalog.Catalog, *query.Block, error) {
	cat := reqCat
	if cat == nil {
		cat = o.cat
	}
	if prep != nil && blk == nil {
		blk = prep.block
	}
	if blk == nil {
		if sql == "" {
			return nil, nil, ErrBadRequest
		}
		if cat == nil {
			return nil, nil, ErrNoCatalog
		}
		parsed, err := sqlmini.ParseAndValidate(sql, cat)
		if err != nil {
			return nil, nil, err
		}
		blk = parsed
	}
	if cat == nil {
		return nil, nil, ErrNoCatalog
	}
	return cat, blk, nil
}

// scenarioPool recycles the request-resolution Scenario structs: a warm
// Optimize resolves, serves from the cache and releases without ever
// touching the heap.
var scenarioPool = sync.Pool{New: func() any { return new(Scenario) }}

// keyBufPool recycles plancache.KeyLen-capacity cache-key buffers for the
// byte-keyed lookups (Cache.ProbeBytes).
var keyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, plancache.KeyLen)
	return &b
}}

// hysteresis is the margin list of every lookup that gives none: the
// ±BandMargin band-edge probe.
var hysteresis = []float64{BandMargin}

func releaseScenario(sc *Scenario) {
	*sc = Scenario{}
	scenarioPool.Put(sc)
}

// scenarioFor resolves a request into a pooled Scenario, folding in
// handle defaults and feedback hints. The caller releases it with
// releaseScenario once done; reports never reference it.
func (o *Optimizer) scenarioFor(req Request) (*Scenario, error) {
	cat, blk, err := o.resolveQuery(req.Cat, req.Prepared, req.Query, req.SQL)
	if err != nil {
		return nil, err
	}
	opts := o.cfg.PlanSpace
	if req.Opts != nil {
		opts = *req.Opts
	}
	topC := req.TopC
	if topC == 0 {
		topC = o.cfg.TopC
	}
	// Observations() is a lock-free atomic: until something has been
	// observed, requests skip building the feedback query key entirely
	// (an empty store can have no hints for any key).
	if o.fb != nil && o.fb.Observations() > 0 {
		if hints := o.fb.Hints(o.queryKey(cat, blk)); len(hints) > 0 {
			merged := make(map[string]float64, len(hints)+len(opts.SizeHints))
			for k, v := range hints {
				merged[k] = v
			}
			for k, v := range opts.SizeHints { // explicit hints win
				merged[k] = v
			}
			opts.SizeHints = merged
		}
	}
	sc := scenarioPool.Get().(*Scenario)
	*sc = Scenario{
		Cat: cat, Query: blk, Env: req.Env,
		SelLaws: req.SelLaws, SizeLaws: req.SizeLaws,
		Opts: opts, TopC: topC,
	}
	return sc, nil
}

// found is where the lookup step found a request's plan.
type found struct {
	rep   PlanReport
	group int  // same-batch group that computes the plan, or -1: rep is set
	alias bool // found under a hysteresis probe key, not the primary key
}

// lookup is the request pipeline's one cache-lookup step, shared by
// Optimize, Cached and OptimizeBatch's grouping pass. Without a cache it
// reports a miss. Otherwise it builds the request's primary key once, into
// *kb, and looks it up. On a miss with drift-banded keys it probes each
// margin in order, both signs (none given: ±BandMargin): a drift step that
// just crossed a floor(log_base) band boundary keys, under the
// matching-signed margin, exactly as its neighbor did under margin 0. Each
// key is checked in groups, the batch's same-batch groups by key (nil
// outside a batch), before the cache.
//
// It records at most one counted event per request: a hit when the
// primary key or a probe within BandMargin served the plan, a miss when
// nothing did and fill is set. fill means the caller optimizes and Puts on
// a miss; it also writes a cached hysteresis hit through under the primary
// key, so the new band serves itself from then on. Without fill (Cached)
// misses are left to the caller that goes on to compute, and a plan found
// beyond BandMargin is served but not counted.
func (o *Optimizer) lookup(sc *Scenario, alg Algorithm, kb *[]byte, margins []float64, groups map[string]int, fill bool) (found, bool, error) {
	if o.cache == nil {
		return found{}, false, nil
	}
	key, err := sc.AppendCacheKey((*kb)[:0], alg, o.band, 0)
	*kb = key
	if err != nil {
		return found{}, false, err
	}
	if f, ok := o.find(key, groups); ok {
		o.cache.Record(true)
		return f, true, nil
	}
	if o.band > 1 {
		if len(margins) == 0 {
			margins = hysteresis
		}
		pb := keyBufPool.Get().(*[]byte)
		defer keyBufPool.Put(pb)
		for _, m := range margins {
			for _, margin := range [2]float64{-m, m} {
				probe, err := sc.AppendCacheKey((*pb)[:0], alg, o.band, margin)
				*pb = probe
				if err != nil || bytes.Equal(probe, key) {
					continue
				}
				f, ok := o.find(probe, groups)
				if !ok {
					continue
				}
				f.alias = true
				if fill && f.group < 0 {
					o.cache.Put(string(key), f.rep)
				}
				if math.Abs(m) <= BandMargin {
					o.cache.Record(true)
				}
				return f, true, nil
			}
		}
	}
	if fill {
		o.cache.Record(false)
	}
	return found{}, false, nil
}

// find looks one key up: the same-batch groups first, then the cache.
func (o *Optimizer) find(key []byte, groups map[string]int) (found, bool) {
	if g, ok := groups[string(key)]; ok {
		return found{group: g}, true
	}
	rep, ok := o.cache.ProbeBytes(key)
	return found{rep: rep, group: -1}, ok
}

// Optimize runs one request through the cache-then-optimize path. The
// cache key lives in a pooled buffer and the lookup is byte-keyed, so a
// warm hit — the dominant serving outcome — allocates nothing; the key
// string materializes only on the miss path's Put.
func (o *Optimizer) Optimize(req Request) (Response, error) {
	start := time.Now()
	sc, err := o.scenarioFor(req)
	if err != nil {
		return Response{Err: err}, err
	}
	defer releaseScenario(sc)
	kb := keyBufPool.Get().(*[]byte)
	defer keyBufPool.Put(kb)
	f, hit, err := o.lookup(sc, req.Alg, kb, nil, nil, true)
	if err == nil && !hit {
		if f.rep, err = sc.Optimize(req.Alg); err == nil && o.cache != nil {
			o.cache.Put(string(*kb), f.rep)
		}
	}
	if err != nil {
		return Response{Err: err}, err
	}
	return Response{PlanReport: f.rep, CacheHit: hit, Elapsed: time.Since(start)}, nil
}

// Cached serves a request from the plan cache alone: no optimization is
// ever started, so the call is safe on any hot path that must not pay
// cold-plan compute — the resilience layer's budget-denied and
// breaker-open serving. It is Optimize's lookup step without the compute:
// the primary key first, then each margin with both signs in band units
// (nearest first), so a caller can widen the search to neighboring drift
// bands and serve the *nearest* cached plan for a tenant whose statistics
// have walked away. With no margins given, the band-edge hysteresis margin
// is probed, which makes a Cached hit equivalent to "Optimize would have
// hit". A hit on the primary key or within BandMargin counts as a cache
// hit, exactly as Optimize counts it; a miss is not counted (the caller
// that goes on to Optimize counts it there), nor is a plan found further
// out. Nothing is stored — a far-band plan served under pressure must not
// poison the primary band.
func (o *Optimizer) Cached(req Request, margins ...float64) (Response, bool) {
	sc, err := o.scenarioFor(req)
	if err != nil {
		return Response{Err: err}, false
	}
	defer releaseScenario(sc)
	kb := keyBufPool.Get().(*[]byte)
	defer keyBufPool.Put(kb)
	f, hit, err := o.lookup(sc, req.Alg, kb, margins, nil, false)
	if err != nil {
		return Response{Err: err}, false
	}
	if !hit {
		return Response{}, false
	}
	return Response{PlanReport: f.rep, CacheHit: true}, true
}

// OptimizeBatch optimizes every request across the handle's worker pool
// and returns responses in request order; per-request failures land in
// Response.Err and never abort the batch.
//
// Requests that share a plan-cache key are deduplicated deterministically:
// the first request in order is the representative, is optimized once, and
// every duplicate is served its report as a cache hit. With exact keys
// this is pure memoization (equal keys imply equal reports); with
// drift-banded keys it is what makes the batch *deterministic* — which
// request of a band computes the shared plan no longer depends on worker
// scheduling. Results are byte-identical to sequential Optimize calls
// under exact keys, and independent of Workers under either key scheme.
func (o *Optimizer) OptimizeBatch(reqs []Request) []Response {
	out := make([]Response, len(reqs))
	scs := make([]*Scenario, len(reqs))
	workers := pool.Workers(o.cfg.Workers, len(reqs))
	for i := range reqs {
		sc, err := o.scenarioFor(reqs[i])
		if err != nil {
			out[i] = Response{Err: err}
			continue
		}
		if workers > 1 && sc.Opts.Workers == 0 {
			// The batch pool already saturates the machine; letting A/B's
			// per-bucket fan-out also default to GOMAXPROCS would stack
			// P×P CPU-bound goroutines for no added parallelism. The
			// worker count is not part of the cache key.
			sc.Opts.Workers = 1
		}
		scs[i] = sc
	}
	defer func() {
		for _, sc := range scs {
			if sc != nil {
				releaseScenario(sc)
			}
		}
	}()
	optimize := func(i int) Response {
		start := time.Now()
		rep, err := scs[i].Optimize(reqs[i].Alg)
		if err != nil {
			return Response{Err: err}
		}
		return Response{PlanReport: rep, Elapsed: time.Since(start)}
	}
	if o.cache == nil {
		pool.Run(len(reqs), workers, func(i int) error {
			if scs[i] != nil {
				out[i] = optimize(i)
			}
			return nil
		})
		return out
	}
	// Group requests by cache key in first-appearance order. The lookup
	// step — hysteresis included — runs here, in this sequential pass,
	// never in the workers, so which group a near-boundary request joins
	// (and thus the whole batch outcome) is independent of worker
	// scheduling. Cache hits are served right here; each group's worker
	// computes and stores one plan for its representative and duplicates.
	type group struct {
		key     string
		rep     int
		dups    []int
		aliases []string // cross-band dups' own keys, written through too
	}
	var groups []*group
	index := make(map[string]int)
	kb := keyBufPool.Get().(*[]byte)
	defer keyBufPool.Put(kb)
	for i := range reqs {
		if scs[i] == nil {
			continue
		}
		start := time.Now()
		f, hit, err := o.lookup(scs[i], reqs[i].Alg, kb, nil, index, true)
		switch {
		case err != nil:
			out[i] = Response{Err: err}
		case !hit:
			key := string(*kb)
			index[key] = len(groups)
			groups = append(groups, &group{key: key, rep: i})
		case f.group >= 0:
			g := groups[f.group]
			g.dups = append(g.dups, i)
			if f.alias {
				// Index the alias too: a later request keyed like this
				// one joins the group, as it would hit sequentially.
				key := string(*kb)
				index[key] = f.group
				g.aliases = append(g.aliases, key)
			}
		default:
			out[i] = Response{PlanReport: f.rep, CacheHit: true}
		}
		out[i].Elapsed = time.Since(start)
	}
	pool.Run(len(groups), pool.Workers(workers, len(groups)), func(gi int) error {
		g := groups[gi]
		r := optimize(g.rep)
		r.Elapsed += out[g.rep].Elapsed
		out[g.rep] = r
		if r.Err == nil {
			o.cache.Put(g.key, r.PlanReport)
			for _, k := range g.aliases {
				o.cache.Put(k, r.PlanReport)
			}
			r = Response{PlanReport: r.PlanReport, CacheHit: true}
		}
		for _, d := range g.dups {
			r.Elapsed = out[d].Elapsed
			out[d] = r
		}
		return nil
	})
	return out
}

// Feedback carries one execution's observed intermediate-result sizes
// back to the handle: Sizes maps feedback.SetKey over joined table names
// to observed pages — exactly the engine's ExecResult.JoinSizes. The
// query is identified the same way a Request is (Prepared, Query or SQL,
// with Cat overriding the handle catalog).
type Feedback struct {
	SQL      string
	Query    *query.Block
	Prepared *Prepared
	Cat      *catalog.Catalog
	Sizes    map[string]float64
}

// Observe folds executed sizes into the feedback store; subsequent
// optimizations of the same query cost with the observed sizes instead of
// selectivity-product estimates (and, because hints are hashed into cache
// keys, stale cached plans miss cleanly). A handle configured with
// DisableFeedback ignores observations.
func (o *Optimizer) Observe(fb Feedback) error {
	if o.fb == nil || len(fb.Sizes) == 0 {
		return nil
	}
	cat, blk, err := o.resolveQuery(fb.Cat, fb.Prepared, fb.Query, fb.SQL)
	if err != nil {
		if errors.Is(err, ErrBadRequest) {
			return ErrNoFeedback
		}
		return err
	}
	o.fb.Observe(o.queryKey(cat, blk), fb.Sizes)
	return nil
}

// Simulate Monte-Carlo-executes a plan's cost model under the request's
// environment (the request only needs a query and an environment).
func (o *Optimizer) Simulate(req Request, p *plan.Node, runs int, seed int64) (envsim.RunStats, error) {
	sc, err := o.scenarioFor(req)
	if err != nil {
		return envsim.RunStats{}, err
	}
	defer releaseScenario(sc)
	return sc.Simulate(p, runs, seed)
}

// Tournament runs a common-random-numbers realized-cost comparison of the
// given reports' plans under the request's environment.
func (o *Optimizer) Tournament(req Request, reports []PlanReport, runs int, seed int64) (envsim.TournamentResult, error) {
	sc, err := o.scenarioFor(req)
	if err != nil {
		return envsim.TournamentResult{}, err
	}
	defer releaseScenario(sc)
	return sc.Tournament(reports, runs, seed)
}

// CacheStats snapshots the handle's plan cache (zero when disabled).
func (o *Optimizer) CacheStats() plancache.Stats {
	if o.cache == nil {
		return plancache.Stats{}
	}
	return o.cache.Stats()
}

// FeedbackStats reports the feedback store's distinct queries and total
// folded observations (zeros when feedback is disabled).
func (o *Optimizer) FeedbackStats() (queries int, observations uint64) {
	if o.fb == nil {
		return 0, 0
	}
	return o.fb.Queries(), o.fb.Observations()
}

// DriftBand returns the resolved cache-key band base (0 = exact keys).
func (o *Optimizer) DriftBand() float64 { return o.band }

// ResolveDriftBand maps a Config.DriftBand value to the effective band
// base: 0 means DefaultDriftBand, values <= 1 mean exact keys (0).
func ResolveDriftBand(v float64) float64 {
	switch {
	case v == 0:
		return DefaultDriftBand
	case v > 1:
		return v
	default:
		return 0
	}
}

// --- prepared statements -------------------------------------------------

// Prepared is a prepared statement: the query parsed, validated and
// canonicalized once, plus an [INSS92]-style parametric plan set — one LEC
// plan per anticipated memory law — for start-up-time plan selection
// without a plan-space search.
type Prepared struct {
	opt       *Optimizer
	sql       string
	block     *query.Block
	canonical string
	plans     *parametric.Cache // nil without anticipated laws
}

// Prepare parses, validates and canonicalizes sql against the handle's
// catalog once, and — when the handle is configured with anticipated
// memory laws — precomputes the parametric plan set over them. Prepared
// statements are memoized by SQL text: preparing the same text twice
// returns the same handle.
func (o *Optimizer) Prepare(sql string) (*Prepared, error) {
	if o.cat == nil {
		return nil, ErrNoCatalog
	}
	o.mu.Lock()
	if p, ok := o.prepared[sql]; ok {
		o.mu.Unlock()
		return p, nil
	}
	o.mu.Unlock()
	blk, err := sqlmini.ParseAndValidate(sql, o.cat)
	if err != nil {
		return nil, err
	}
	p := &Prepared{opt: o, sql: sql, block: blk, canonical: blk.Canonical()}
	if len(o.cfg.AnticipatedLaws) > 0 {
		p.plans, err = parametric.Precompute(o.cat, blk, o.cfg.PlanSpace, o.cfg.AnticipatedLaws)
		if err != nil {
			return nil, fmt.Errorf("core: prepare: %w", err)
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if exist, ok := o.prepared[sql]; ok { // lost a concurrent Prepare race
		return exist, nil
	}
	o.prepared[sql] = p
	return p, nil
}

// SQL returns the prepared statement's text.
func (p *Prepared) SQL() string { return p.sql }

// Block returns the validated query block.
func (p *Prepared) Block() *query.Block { return p.block }

// Canonical returns the canonical query shape.
func (p *Prepared) Canonical() string { return p.canonical }

// Optimize runs a full (cached) optimization of the prepared query.
func (p *Prepared) Optimize(env envsim.Env, alg Algorithm) (Response, error) {
	return p.opt.Optimize(Request{Prepared: p, Env: env, Alg: alg})
}

// Entries returns the precomputed plan-set entries (nil when Prepare ran
// without anticipated laws).
func (p *Prepared) Entries() []parametric.Entry {
	if p.plans == nil {
		return nil
	}
	return p.plans.Entries()
}

// Nearest returns the precomputed entry whose anticipated law is closest
// (1-Wasserstein) to the actual start-up-time law — the paper's "simple
// table lookup".
func (p *Prepared) Nearest(mem dist.Dist) (parametric.Entry, error) {
	if p.plans == nil {
		return parametric.Entry{}, parametric.ErrNoEntry
	}
	return p.plans.Nearest(mem)
}

// Select answers a start-up-time memory law from the precomputed plan set
// by re-costing the tiny cached candidate set (parametric.SelectByEC —
// Algorithm A over precomputed plans). Without a plan set it falls back to
// a full cached optimization with Algorithm C.
func (p *Prepared) Select(mem dist.Dist) (Response, error) {
	if p.plans == nil {
		return p.Optimize(envsim.Env{Mem: mem}, AlgC)
	}
	pl, ec, err := p.plans.SelectByEC(mem)
	if err != nil {
		return Response{Err: err}, err
	}
	rep := PlanReport{
		Algorithm:  AlgC,
		Plan:       pl,
		Score:      ec,
		EC:         ec,
		Candidates: p.plans.Plans(),
	}
	// Parametric selection skips the optimizer, so derive the per-phase
	// breakdown here: the selected plan charged under the static memory
	// law at every phase, matching what AlgorithmC would report.
	if laws, lerr := optimizer.PhaseLawsFor(len(p.block.Tables), mem, nil); lerr == nil {
		if ph, perr := optimizer.ExpectedCostPhasesModel(p.plans.Model(), pl, laws); perr == nil {
			rep.PhaseEC = ph
		}
	}
	return Response{PlanReport: rep, Parametric: true}, nil
}
