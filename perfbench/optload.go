package main

import (
	"sync"
	"sync/atomic"
	"time"

	"lecopt"
)

// stream yields one caller's requests; request j depends only on the
// run seed, the caller and j.
type stream interface {
	next(j int) item
}

// dataset is the fixed data of an optimize-only workload.
type dataset interface {
	// stream returns a request stream for the run seed; base numbers the
	// stream, so each caller of each phase draws its own.
	stream(seed int64, base int64) stream
	// warm runs the untimed warm-up through the handle.
	warm(r *optRun, seed int64, tr *tracer) error
}

// optLoad describes an optimize-only workload: callers send requests
// through lecopt.Optimizer.Optimize in a closed loop.
type optLoad struct {
	callers   int
	cacheSize int
	prefix    int // requests per caller in the deterministic prefix
	// Every checkEvery-th request of the prefix and every
	// laterChecks·checkEvery-th request after it is checked in full. The
	// checks are kept until the phase ends; the sparser later checks keep
	// their memory small.
	checkEvery int
	expectHits bool
	build      func(seed int64) (dataset, error)
}

// optRun is one set-up instance of an optimize-only workload.
type optRun struct {
	load   *optLoad
	data   dataset
	cache  *lecopt.PlanCache
	shadow *lecopt.PlanCache // traced runs time Put here, never in cache
	opt    *lecopt.Optimizer
	orig   *origins

	hitMarks atomic.Int64 // responses marked CacheHit over the handle's life
	candSum  atomic.Int64 // Candidates over the handle's misses
	candN    atomic.Int64
}

func (l *optLoad) setup(seed int64, tr *tracer) (*optRun, error) {
	data, err := l.build(seed)
	if err != nil {
		return nil, err
	}
	cache := lecopt.NewPlanCache(l.cacheSize)
	r := &optRun{
		load:   l,
		data:   data,
		cache:  cache,
		shadow: lecopt.NewPlanCache(l.cacheSize),
		opt:    lecopt.New(nil, lecopt.WithSharedCache(cache)),
		orig:   newOrigins(),
	}
	if err := data.warm(r, seed, tr); err != nil {
		return nil, err
	}
	return r, nil
}

// serve sends one request to the handle on the warm-up path, keeping the
// origin and hit bookkeeping that checks rely on.
func (r *optRun) serve(it item) (lecopt.Response, error) {
	resp, err := r.opt.Optimize(it.request())
	if err == nil {
		if resp.CacheHit {
			r.hitMarks.Add(1)
			r.orig.alias(resp.Plan, it)
		}
		r.noteMiss(resp, it)
	}
	return resp, err
}

// noteMiss records where a computed plan came from, for the checks of
// later hits on it.
func (r *optRun) noteMiss(resp lecopt.Response, it item) {
	if resp.CacheHit {
		return
	}
	r.candSum.Add(int64(resp.Candidates))
	r.candN.Add(1)
	if r.load.expectHits {
		r.orig.put(resp.Plan, it)
	}
}

// laterChecks spaces the full checks after the prefix.
const laterChecks = 8

// latencyKeep is how many latencies one caller keeps per interval.
const latencyKeep = 1 << 13

// callerStats is what one caller measured in one phase.
type callerStats struct {
	requests int64
	failed   int64
	hits     int64
	end      time.Time
	lat      *timeline
	busy     time.Duration // program time: the untimed loop's handle calls
	latSum   time.Duration // handle calls, as timed by the benchmark
	elapsed  time.Duration // Response.Elapsed as the handle reports it
	ecSum    float64       // prefix requests only
	ecN      int64
	nodes    int64
	checks   []check
	tr       *tracer
}

// phaseStats aggregates one closed-loop phase over all callers.
type phaseStats struct {
	meter
	full     int // whole timeline intervals every caller ran through
	callers  []*callerStats
	requests int64
	failed   int64
}

// phase runs the closed loop: each caller sends its next request only
// after the previous one returned, until seconds have passed and it has
// completed the prefix.
func (r *optRun) phase(seed, base int64, seconds float64, traced bool, traceBase time.Time) *phaseStats {
	l := r.load
	ps := &phaseStats{callers: make([]*callerStats, l.callers)}
	ps.meter.begin(r.cache)
	for c := range ps.callers {
		cs := &callerStats{lat: newTimeline(latencyKeep, uint64(seed)*31+uint64(c)<<20+1)}
		if traced {
			cs.tr = newTracer(traceBase, 100_000, 16)
		}
		ps.callers[c] = cs
	}
	streams := make([]stream, l.callers)
	for c := range streams {
		streams[c] = r.data.stream(seed, base+int64(c))
	}
	dur := time.Duration(seconds * float64(time.Second))
	var wg sync.WaitGroup
	for c := 0; c < l.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.loop(c, streams[c], ps.callers[c], ps.start, dur)
		}(c)
	}
	wg.Wait()
	last := ps.start
	ps.full = -1
	for _, cs := range ps.callers {
		r.hitMarks.Add(cs.hits)
		ps.requests += cs.requests
		ps.failed += cs.failed
		if cs.end.After(last) {
			last = cs.end
		}
		ps.busy += cs.busy
		if f := fullIntervals(cs.busy); ps.full < 0 || f < ps.full {
			ps.full = f
		}
	}
	ps.meter.finish(last, r.cache)
	return ps
}

func (r *optRun) loop(c int, st stream, cs *callerStats, t0 time.Time, dur time.Duration) {
	l := r.load
	v := newValidator()
	keyBuf := newKeyBuf()
	for j := 0; ; j++ {
		it := st.next(j)
		req := it.request()
		var (
			resp lecopt.Response
			err  error
			d    time.Duration
			end  time.Time
		)
		if tr := cs.tr; tr != nil {
			id := uint32(c)<<28 | uint32(j)
			root := tr.root(lRequest, id)
			var lerr error
			keyBuf, _, lerr = layerCalls(tr, id, root, &it, keyBand, r.cache, r.shadow, keyBuf, nil)
			s := tr.begin(lOptimize, id, root)
			resp, err = r.opt.Optimize(req)
			d = tr.end(s)
			tr.end(root)
			end = time.Now()
			if lerr != nil {
				cs.failed++
			}
		} else {
			start := time.Now()
			resp, err = r.opt.Optimize(req)
			end = time.Now()
			d = end.Sub(start)
			cs.busy += d
			cs.lat.add(cs.busy, d, end)
		}
		cs.requests++
		cs.latSum += d
		cs.elapsed += resp.Elapsed
		if !v.ok(resp.PlanReport, err) {
			cs.failed++
		}
		if err == nil {
			r.noteMiss(resp, it)
			if resp.CacheHit {
				cs.hits++
			}
			inPrefix := j < l.prefix
			if inPrefix {
				cs.ecSum += resp.EC
				cs.ecN++
				cs.nodes += int64(planNodes(resp.Plan))
			}
			if j%l.checkEvery == 0 && (inPrefix || j%(laterChecks*l.checkEvery) == 0) {
				cs.checks = append(cs.checks, check{it: it, rep: resp.PlanReport, hit: resp.CacheHit, inPrefix: inPrefix})
			}
		}
		if j+1 >= l.prefix && end.Sub(t0) >= dur {
			cs.end = end
			return
		}
	}
}

// verifyPhase runs every caller's deferred checks, one goroutine per
// caller, and sums the results.
func (r *optRun) verifyPhase(ps *phaseStats) (failed int64, ratioMean float64) {
	type out struct {
		failed int
		sum    float64
		n      int
	}
	outs := make([]out, len(ps.callers))
	var wg sync.WaitGroup
	for c, cs := range ps.callers {
		wg.Add(1)
		go func(c int, cs *callerStats) {
			defer wg.Done()
			f, sum, n := verify(cs.checks, r.orig)
			outs[c] = out{f, sum, n}
		}(c, cs)
	}
	wg.Wait()
	var sum float64
	var n int
	for _, o := range outs {
		failed += int64(o.failed)
		sum += o.sum
		n += o.n
	}
	return failed, ratio(sum, float64(n))
}

// uncountedHits is the responses marked CacheHit over the handle's life
// minus the hits the plan cache's own counter recorded.
func (r *optRun) uncountedHits() int64 {
	return r.hitMarks.Load() - int64(r.cache.Stats().Hits)
}
