package main

import (
	"math/rand"
	"slices"
	"time"

	"lecopt"
	"lecopt/internal/catalog"
	"lecopt/internal/core"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/engine"
	"lecopt/internal/feedback"
	"lecopt/internal/optimizer"
	"lecopt/internal/storage"
	"lecopt/internal/workload/serving"
)

// serveFeedback: one caller runs the default serving mix in arrival
// windows of serveWindow requests. Each window is one OptimizeBatch of
// every request under LSC and LEC; each request then executes both plans
// on its query's engine under one sampled memory trajectory, and Observe
// feeds the LEC plan's join sizes back to the handle. There is no
// warm-up: the timed phase starts from an empty cache and feedback store,
// so the misses and the hint-driven key changes of a cold start are part
// of what it measures.
const (
	serveWindow  = 8
	serveWorkers = 2
	servePrefix  = 4_000 // requests in the deterministic prefix
	serveCheck   = 4     // every serveCheck-th request is checked in full
)

// servingOpts is the plan space the serving simulator optimizes with:
// index paths on, costed with the engine-exact model.
var servingOpts = optimizer.Options{CostModel: cost.ModelEngine}

type serveRun struct {
	mix    *serving.Mix
	buildS float64 // seconds NewMix took to build relations and indexes
	drift  *dist.Chain
	sql    []string
	cats   map[catKey]*catalog.Catalog
	cache  *lecopt.PlanCache
	shadow *lecopt.PlanCache
	opt    *lecopt.Optimizer
	mirror *feedback.Store // replays every Observe, so checks know the hints
	orig   *origins
	// digestBuf is rowDigest's scratch row.
	digestBuf []int64
	hitMark   int64
}

type catKey struct {
	q      int
	factor float64
}

func setupServe(seed int64) (*serveRun, error) {
	spec, err := lecopt.DefaultWorkloadSpec()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	mix, err := serving.NewMix(spec, rand.New(rand.NewSource(dataSeed+2)))
	if err != nil {
		return nil, err
	}
	r := &serveRun{mix: mix, buildS: since(t), cats: make(map[catKey]*catalog.Catalog)}
	if r.drift, err = dist.Sticky(spec.Drift.Factors, spec.Drift.Stay); err != nil {
		return nil, err
	}
	for _, q := range mix.Queries {
		sql, err := sqlFor(q.Block, q.Cat)
		if err != nil {
			return nil, err
		}
		r.sql = append(r.sql, sql)
		for _, f := range spec.Drift.Factors {
			cat, err := q.Cat.ScaleDistinct(f)
			if err != nil {
				return nil, err
			}
			r.cats[catKey{q.ID, f}] = cat
		}
	}
	r.cache = lecopt.NewPlanCache(core.DefaultCacheSize)
	r.shadow = lecopt.NewPlanCache(core.DefaultCacheSize)
	r.opt = lecopt.New(nil, lecopt.WithSharedCache(r.cache), lecopt.WithWorkers(serveWorkers))
	r.mirror = feedback.NewStore(feedback.DefaultAlpha)
	r.orig = newOrigins()
	return r, nil
}

// slot is one serving request: a query, a tenant and the drift factor
// the statistics stood at when it arrived.
type slot struct {
	q      *serving.ServingQuery
	tenant int
	cat    *catalog.Catalog
	sql    string
}

type serveStream struct {
	rng    *rand.Rand
	drift  []float64
	pos    int
	served int
}

func (r *serveRun) stream(seed, base int64) *serveStream {
	return &serveStream{rng: newRand(seed, 1+base), drift: []float64{1}}
}

// nextFactor advances the drift walk by one request.
func (r *serveRun) nextFactor(st *serveStream) (float64, error) {
	if st.pos == len(st.drift)-1 {
		seq, err := r.drift.SampleSeq(st.rng, dist.Point(st.drift[st.pos]), 257)
		if err != nil {
			return 0, err
		}
		st.drift, st.pos = seq, 0
	}
	st.pos++
	return st.drift[st.pos], nil
}

func (r *serveRun) nextSlot(st *serveStream) (slot, error) {
	q := r.mix.Queries[int(r.mix.Popularity.Sample(st.rng))]
	tenant := st.rng.Intn(len(r.mix.Tenants))
	f, err := r.nextFactor(st)
	if err != nil {
		return slot{}, err
	}
	s := slot{q: q, tenant: tenant, cat: r.cats[catKey{q.ID, f}]}
	if st.served%4 == 3 {
		s.sql = r.sql[q.ID]
	}
	st.served++
	return s, nil
}

// queryKey names a query for the feedback store exactly as the handle
// does with drift-banded keys.
func queryKey(s slot) string {
	return s.q.Block.Canonical() + "@" + s.cat.BandedFingerprint(keyBand)
}

// serveStats is what one phase of windows measured.
type serveStats struct {
	meter
	prefix    int
	v         *validator
	requests  int64 // serving requests, each one LSC/LEC pair
	failed    int64
	hits      int64 // responses marked CacheHit
	responses int64
	lat       *timeline
	// programAllocs are the heap objects of the windows' program parts;
	// checkTime is the benchmark's own time between them.
	programAllocs uint64
	wholeAllocs   uint64 // the whole phase's, the benchmark's work included
	checkTime     time.Duration
	elapsed       time.Duration
	batchTime     time.Duration
	checks        int // responses checked against an uncached optimization
	checkFailed   int64
	ioAllLSC      int64 // every request
	ioAllLEC      int64
	ioLSC         int64 // prefix requests only, from here on
	ioLEC         int64
	ecLEC         float64
	bufReads      int64
	bufWrites     int64
	bufHits       int64
	fallbacks     int64
	dups          int64
	fbQueries     int
	fbObs         uint64
	candSum       int64
	candN         int64
	nodes         int64
}

// window serves one arrival window and books it into ps. The program's
// part of the window runs from the batch's submission to the drop of
// the last output relation; its time and heap objects are the window's
// program time and allocations. The benchmark's own work — building the
// requests with their hints, the feedback mirror, the row digests and
// the check bookkeeping — runs before and after it, timed apart.
func (r *serveRun) window(st *serveStream, ps *serveStats, tr *tracer) error {
	var slots [serveWindow]slot
	items := make([]item, 0, 2*serveWindow)
	reqs := make([]lecopt.Request, 0, 2*serveWindow)
	for i := range slots {
		s, err := r.nextSlot(st)
		if err != nil {
			return err
		}
		slots[i] = s
		hints := r.mirror.Hints(queryKey(s))
		for _, alg := range []core.Algorithm{core.AlgLSCMode, core.AlgC} {
			it := item{blk: s.q.Block, sql: s.sql, cat: s.cat, env: r.mix.Tenants[s.tenant].Env,
				alg: alg, opts: &servingOpts, hints: hints}
			items = append(items, it)
			reqs = append(reqs, it.request())
		}
	}
	wid := uint32(st.served)
	root := tr.root(lWindow, wid)
	if tr != nil {
		seen := make(map[string]bool, len(items))
		dup := func(k []byte) bool {
			if seen[string(k)] {
				ps.dups++
				return true
			}
			seen[string(k)] = true
			return false
		}
		keyBuf := newKeyBuf()
		for i := range items {
			id := wid - serveWindow + uint32(i/2)
			var err error
			if keyBuf, _, err = layerCalls(tr, id, root, &items[i], keyBand, r.cache, r.shadow, keyBuf, dup); err != nil {
				return err
			}
		}
	}
	obj0 := heapObjects()
	start := time.Now()
	s := tr.begin(lBatch, wid, root)
	resps := r.opt.OptimizeBatch(reqs)
	ps.batchTime += tr.end(s)
	var outs [serveWindow][2]engine.ExecResult
	var done [serveWindow]bool
	for i, sl := range slots {
		id := wid - serveWindow + uint32(i)
		var err error
		if done[i], err = r.serveSlot(st, ps, tr, root, id, start, sl, resps[2*i], resps[2*i+1], &outs[i]); err != nil {
			return err
		}
	}
	for i, sl := range slots {
		for _, x := range outs[i] {
			if x.Output != nil {
				s = tr.begin(lDrop, wid-serveWindow+uint32(i), root)
				sl.q.Store.Drop(x.Output.Name)
				tr.end(s)
			}
		}
	}
	busy := time.Since(start)
	ps.programAllocs += heapObjects() - obj0
	ps.busy += busy
	tr.end(root)
	t := time.Now()
	r.book(ps, slots[:], items, resps, outs[:], done[:])
	ps.checkTime += time.Since(t)
	return nil
}

// serveSlot executes one request's two plans under one sampled memory
// trajectory into out and feeds the LEC plan's join sizes back. The
// request's latency runs from its window's submission to the end of its
// Observe. It reports whether both plans ran and Observe succeeded; the
// output checks run later, in book.
func (r *serveRun) serveSlot(st *serveStream, ps *serveStats, tr *tracer, root int32, id uint32,
	start time.Time, sl slot, lsc, lec lecopt.Response, out *[2]engine.ExecResult) (bool, error) {
	rs := tr.begin(lRequest, id, root)
	defer tr.end(rs)
	s := tr.begin(lSample, id, rs)
	memSeq, err := r.mix.Tenants[sl.tenant].Env.Sample(st.rng, sl.q.Phases)
	tr.end(s)
	if err != nil {
		return false, err
	}
	for k, resp := range [2]lecopt.Response{lsc, lec} {
		if resp.Err != nil || resp.Plan == nil {
			return false, nil
		}
		s = tr.begin(lExec, id, rs)
		out[k], err = sl.q.Eng.ExecutePlan(resp.Plan, memSeq)
		tr.end(s)
		if err != nil {
			return false, nil
		}
	}
	s = tr.begin(lObserve, id, rs)
	err = r.opt.Observe(lecopt.Feedback{Query: sl.q.Block, Cat: sl.cat, Sizes: out[1].JoinSizes})
	tr.end(s)
	if tr == nil {
		end := time.Now()
		d := end.Sub(start)
		ps.lat.add(ps.busy+d, d, end)
	}
	return err == nil, nil
}

// book does the benchmark's own work for a served window, outside its
// program time: it validates the responses, notes where each plan came
// from, mirrors the feedback, compares the row digests of each request's
// two outputs, checks every serveCheck-th request's plans against an
// uncached optimization and keeps the figures of the phase.
func (r *serveRun) book(ps *serveStats, slots []slot, items []item, resps []lecopt.Response,
	outs [][2]engine.ExecResult, done []bool) {
	for i := range resps {
		ps.responses++
		ps.elapsed += resps[i].Elapsed
		if resps[i].Err != nil {
			continue
		}
		if resps[i].CacheHit {
			ps.hits++
		} else {
			r.orig.put(resps[i].Plan, items[i])
		}
	}
	for i := range resps {
		if resps[i].Err == nil && resps[i].CacheHit {
			r.orig.alias(resps[i].Plan, items[i])
		}
	}
	for i, sl := range slots {
		lsc, lec := resps[2*i], resps[2*i+1]
		res := outs[i]
		inPrefix := ps.requests < int64(ps.prefix)
		checked := ps.requests%serveCheck == 0
		ps.requests++
		ok := done[i] && ps.v.ok(lsc.PlanReport, lsc.Err) && ps.v.ok(lec.PlanReport, lec.Err)
		if done[i] {
			r.mirror.Observe(queryKey(sl), res[1].JoinSizes)
		}
		if ok {
			d0, err0 := rowDigest(res[0].Output, &r.digestBuf)
			d1, err1 := rowDigest(res[1].Output, &r.digestBuf)
			ok = err0 == nil && err1 == nil && d0 == d1
		}
		if !ok {
			ps.failed++
			continue
		}
		ps.ioAllLSC += res[0].Stats.IO()
		ps.ioAllLEC += res[1].Stats.IO()
		if checked {
			cs := []check{
				{it: items[2*i], rep: lsc.PlanReport, hit: lsc.CacheHit},
				{it: items[2*i+1], rep: lec.PlanReport, hit: lec.CacheHit},
			}
			failed, _, _ := verify(cs, r.orig)
			ps.checks += len(cs)
			ps.checkFailed += int64(failed)
		}
		if inPrefix {
			ps.ioLSC += res[0].Stats.IO()
			ps.ioLEC += res[1].Stats.IO()
			ps.ecLEC += lec.EC
			ps.nodes += int64(planNodes(lec.Plan))
			for _, x := range res {
				ps.bufReads += x.Stats.Reads
				ps.bufWrites += x.Stats.Writes
				ps.bufHits += x.Stats.Hits
				ps.fallbacks += int64(x.GraceFallbacks)
			}
			if !lec.CacheHit {
				ps.candSum += int64(lec.Candidates)
				ps.candN++
			}
			if ps.requests == int64(ps.prefix) {
				ps.fbQueries, ps.fbObs = r.opt.FeedbackStats()
			}
		}
	}
}

// rowDigest summarizes a relation's rows independently of row order and
// of column order within a row, so two plans that join the same tables
// in different orders digest equal exactly when they return the same
// rows.
type digest struct {
	rows int
	sum  uint64
}

func rowDigest(rel *storage.Relation, buf *[]int64) (digest, error) {
	var d digest
	vals := *buf
	defer func() { *buf = vals }()
	for p := 0; p < rel.NumPages(); p++ {
		page, err := rel.Page(p)
		if err != nil {
			return digest{}, err
		}
		for _, t := range page {
			vals = append(vals[:0], t...)
			slices.Sort(vals)
			h := uint64(14695981039346656037)
			for _, v := range vals {
				h = (h ^ uint64(v)) * 1099511628211
			}
			h ^= h >> 31
			h *= 0x9e3779b97f4a7c15
			h ^= h >> 29
			d.sum += h
			d.rows++
		}
	}
	return d, nil
}

// servePhase runs windows until seconds have passed and the prefix is
// complete.
func (r *serveRun) phase(seed, base int64, seconds float64, tr *tracer) (*serveStats, error) {
	ps := &serveStats{prefix: servePrefix, v: newValidator()}
	st := r.stream(seed, base)
	ps.meter.begin(r.cache)
	ps.lat = newTimeline(latencyKeep, uint64(seed)*31+1)
	for ps.requests < servePrefix || since(ps.meter.start) < seconds {
		if err := r.window(st, ps, tr); err != nil {
			return nil, err
		}
	}
	ps.meter.finish(time.Now(), r.cache)
	ps.wholeAllocs = ps.meter.allocs
	ps.meter.allocs = ps.programAllocs
	r.hitMark += ps.hits
	return ps, nil
}

// uncountedHits is the responses marked CacheHit over the handle's life
// minus the hits the plan cache's own counter recorded.
func (r *serveRun) uncountedHits() int64 {
	return r.hitMark - int64(r.cache.Stats().Hits)
}
