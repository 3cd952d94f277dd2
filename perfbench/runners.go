package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"lecopt/internal/core"
)

// setupTimes runs setup at least minRuns times and until the set-ups
// have taken minSetupSeconds in all, and returns the last instance with
// the median of the set-up times and their count. A set-up of a few milliseconds is then
// repeated often enough that its median is steady.
func setupTimes[T any](minRuns int, setup func() (T, error)) (T, float64, int, error) {
	var last T
	var times []float64
	total := 0.0
	for len(times) < minRuns || (minRuns > 1 && total < minSetupSeconds) {
		runtime.GC() // each set-up starts from a collected heap
		t := time.Now()
		inst, err := setup()
		if err != nil {
			return last, 0, 0, err
		}
		times = append(times, since(t))
		total += times[len(times)-1]
		last = inst
	}
	runtime.GC() // the timed phase starts without the set-ups' garbage
	return last, median(times), len(times), nil
}

// minSetupSeconds is the set-up time a full run spends at least.
const minSetupSeconds = 2

func p99(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.99)
}

func newOutcome(attempted, failed int64) *outcome {
	failed = min(failed, attempted)
	return &outcome{attempted: attempted, failed: failed, correct: failed == 0 && attempted > 0}
}

// common end-to-end figures of a timed phase.
func (o *outcome) endToEnd(setupS float64, m *meter, lat latencySummary) {
	o.values["setup_s"] = setupS
	o.values["requests_per_s"] = lat.rate
	o.values["latency_p50_us"] = lat.p50
	o.values["latency_p99_us"] = lat.p99
	o.values["ok_frac"] = 1 - ratio(float64(o.failed), float64(o.attempted))
	o.values["allocs_per_req"] = ratio(float64(m.allocs), float64(o.attempted))
	o.values["mem_mib"] = m.mem.meanMiB()
	o.note("requests_timed", lat.timed)
	o.note("latency_samples", lat.samples)
	o.note("intervals", lat.intervals)
	o.note("quiet_intervals", lat.quiet)
	o.note("interval_steal_share", fmt.Sprintf("%.3f", lat.steal))
	o.note("fewest_samples_in_an_interval", lat.minIntervalN)
	o.note("highest_supported_percentile", lat.tail)
	o.note("whole_phase_requests_per_s", fmt.Sprintf("%.6g", ratio(float64(o.attempted), m.duration)))
	o.note("whole_phase_latency_p50_p99_us", fmt.Sprintf("%.6g %.6g", lat.allP50, lat.allP99))
	o.note("interval_requests_per_s", fmt.Sprintf("%.0f", lat.rates))
	o.note("interval_latency_p50_us", fmt.Sprintf("%.4g", lat.p50s))
	o.note("interval_latency_p99_us", fmt.Sprintf("%.4g", lat.p99s))
	o.note("timed_seconds", fmt.Sprintf("%.3f", m.duration))
	o.note("program_seconds", fmt.Sprintf("%.3f", m.busy.Seconds()))
	o.note("cpu_seconds", fmt.Sprintf("%.4f", m.cpu))
	o.note("steal_seconds", fmt.Sprintf("%.2f", m.steal))
	o.note("peak_rss_mib", fmt.Sprintf("%.2f", m.rssMiB))
}

// zeroLayers starts a per-layer value set with every metric at 0, the
// reading of a layer the workload does not call.
func zeroLayers() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, l := range perLayer {
		v[l.name] = 0
	}
	return v
}

// layerFigures fills the span-derived per-layer medians.
func layerFigures(v map[string]float64, ts []*tracer) {
	lt := layerTimes(ts)
	v["sqlmini.parse_us"] = median(lt[lParse])
	v["query.canonical_us"] = median(lt[lCanonical])
	v["plancache.key_us"] = median(lt[lKey])
	v["plancache.probe_us"] = median(lt[lProbe])
	v["core.overhead_us"] = median(overheadPerRequest(ts))
	v["optimizer.dp_us"] = median(lt[lDP])
	v["optimizer.dp_p99_us"] = p99(lt[lDP])
	v["optimizer.lsc_dp_us"] = median(append(lt[lLSCDP], lt[lLSCRef]...))
	v["optimizer.lec_over_lsc"] = ratio(v["optimizer.dp_us"], v["optimizer.lsc_dp_us"])
	v["plan.clone_us"] = median(lt[lClone])
	v["plancache.put_us"] = median(lt[lPut])
	v["core.batch_us"] = median(lt[lBatch])
	v["envsim.sample_us"] = median(lt[lSample])
	v["storage.drop_us"] = median(lt[lDrop])
	v["engine.exec_us"] = median(lt[lExec])
	v["engine.exec_p99_us"] = p99(lt[lExec])
	v["feedback.observe_us"] = median(lt[lObserve])
}

// meterFigures fills the cache, collector and tracing-overhead figures:
// traced is the traced phase, plain the untraced phase that follows it.
func meterFigures(v map[string]float64, traced, plain *meter, tracedReqs, plainReqs int64) {
	dh := float64(traced.cache1.Hits - traced.cache0.Hits)
	dm := float64(traced.cache1.Misses - traced.cache0.Misses)
	v["plancache.hit_rate"] = ratio(dh, dh+dm)
	v["plancache.evictions"] = ratio(float64(traced.cache1.Evictions-traced.cache0.Evictions), float64(tracedReqs))
	kreq := float64(plainReqs) / 1000
	v["runtime.gc_cycles"] = ratio(float64(plain.gc1.cycles-plain.gc0.cycles), kreq)
	v["runtime.gc_pause_ms"] = ratio(float64(plain.gc1.pauseNs-plain.gc0.pauseNs)/1e6, kreq)
	v["trace.overhead_frac"] = ratio(float64(plainReqs)/plain.duration, float64(tracedReqs)/traced.duration) - 1
}

// microAllocs measures the heap objects of one cache-key build and of one
// optimizer run over the given scenarios, one goroutine, nothing else
// running.
func microAllocs(v map[string]float64, scs []*core.Scenario) {
	if len(scs) == 0 {
		return
	}
	buf := newKeyBuf()
	v["plancache.key_allocs"] = allocsPer(len(scs), func(i int) {
		buf, _ = scs[i].AppendCacheKey(buf[:0], core.AlgC, keyBand, 0)
	})
	n := min(len(scs), 64)
	v["optimizer.dp_allocs"] = allocsPer(n, func(i int) {
		_, _ = optimize(nil, 0, -1, scs[i], core.AlgC)
	})
}

func runOpt(l *optLoad, cfg config) (*outcome, error) {
	if cfg.traced {
		return traceOpt(l, cfg)
	}
	r, setupS, setups, err := setupTimes(cfg.setups(), func() (*optRun, error) { return l.setup(cfg.seed, nil) })
	if err != nil {
		return nil, err
	}
	ps := r.phase(cfg.seed, 0, cfg.seconds, false, time.Time{})
	checkFailed, ioRatio := r.verifyPhase(ps)
	o := newOutcome(ps.requests, ps.failed+checkFailed)
	o.values = map[string]float64{}
	var tls []*timeline
	var ecSum float64
	var ecN int64
	for _, cs := range ps.callers {
		tls = append(tls, cs.lat)
		ecSum += cs.ecSum
		ecN += cs.ecN
	}
	o.endToEnd(setupS, &ps.meter, summarize(tls, ps.full, ps.busy/time.Duration(l.callers), ps.mem))
	o.values["plan_ec_mean"] = ratio(ecSum, float64(ecN))
	o.values["lec_lsc_io_ratio"] = ioRatio
	o.note("setups", setups)
	o.note("callers", l.callers)
	o.note("prefix_requests_per_caller", l.prefix)
	o.note("checks", totalChecks(ps))
	o.note("check_failures", checkFailed)
	o.note("lec_lsc_io_ratio_scope", "mean over the checked prefix requests of the served plan's analytic expected I/O over the LSC plan's, under the request's own law")
	return o, nil
}

func totalChecks(ps *phaseStats) int {
	n := 0
	for _, cs := range ps.callers {
		n += len(cs.checks)
	}
	return n
}

func traceOpt(l *optLoad, cfg config) (*outcome, error) {
	base := time.Now()
	wtr := newTracer(base, 20_000, 16)
	r, err := l.setup(cfg.seed, wtr)
	if err != nil {
		return nil, err
	}
	ps := r.phase(cfg.seed, 0, cfg.seconds/2, true, base)
	uncounted := r.uncountedHits()
	pu := r.phase(cfg.seed, 10, cfg.seconds/2, false, time.Time{})
	f1, _ := r.verifyPhase(ps)
	f2, _ := r.verifyPhase(pu)
	o := newOutcome(ps.requests+pu.requests, ps.failed+pu.failed+f1+f2)
	v := zeroLayers()
	ts := []*tracer{wtr}
	var hits, nodes, ecN int64
	var elapsed, latSum time.Duration
	for _, cs := range ps.callers {
		ts = append(ts, cs.tr)
		hits += cs.hits
		nodes += cs.nodes
		ecN += cs.ecN
		elapsed += cs.elapsed
		latSum += cs.latSum
	}
	layerFigures(v, ts)
	meterFigures(v, &ps.meter, &pu.meter, ps.requests, pu.requests)
	v["optimizer.candidates"] = ratio(float64(r.candSum.Load()), float64(r.candN.Load()))
	v["plan.nodes"] = ratio(float64(nodes), float64(ecN))
	v["core.cache_hit_share"] = ratio(float64(hits), float64(ps.requests))
	v["core.uncounted_hits"] = float64(uncounted)
	v["core.elapsed_share"] = ratio(float64(elapsed), float64(latSum))
	st := r.data.stream(cfg.seed, 50)
	scs := make([]*core.Scenario, 256)
	for i := range scs {
		it := st.next(2 * i) // even positions: block requests
		scs[i] = it.scenario()
		_ = scs[i].Query.Canonical()
	}
	microAllocs(v, scs)
	o.values = v
	if err := traceOut(o, cfg, ts); err != nil {
		return nil, err
	}
	return o, nil
}

// traceOut writes the spans and notes their count.
func traceOut(o *outcome, cfg config, ts []*tracer) error {
	n := 0
	for _, t := range ts {
		if t != nil {
			n += len(t.spans)
		}
	}
	o.note("spans_kept", n)
	if p := spanPath(cfg); p != "" {
		if err := writeSpans(p, ts); err != nil {
			return err
		}
		o.note("spans_file", p)
	}
	return nil
}

// errAggregate marks a serve-feedback run whose LEC plans, summed over
// every request, did more engine I/O than the LSC plans.
var errAggregate = errors.New("aggregate realized LEC I/O exceeds LSC")

func runServe(cfg config) (*outcome, error) {
	if cfg.traced {
		return traceServe(cfg)
	}
	r, setupS, setups, err := setupTimes(cfg.setups(), func() (*serveRun, error) { return setupServe(cfg.seed) })
	if err != nil {
		return nil, err
	}
	ps, err := r.phase(cfg.seed, 0, cfg.seconds, nil)
	if err != nil {
		return nil, err
	}
	checkFailed := ps.checkFailed
	o := newOutcome(ps.requests, ps.failed+checkFailed)
	if ps.ioAllLEC > ps.ioAllLSC {
		o.correct = false
		o.note("aggregate_check", errAggregate)
	}
	o.values = map[string]float64{}
	o.endToEnd(setupS, &ps.meter, summarize([]*timeline{ps.lat}, fullIntervals(ps.busy), ps.busy, ps.mem))
	o.values["plan_ec_mean"] = ratio(ps.ecLEC, float64(min(ps.requests, int64(ps.prefix))))
	o.values["lec_lsc_io_ratio"] = ratio(float64(ps.ioLEC), float64(ps.ioLSC))
	o.note("setups", setups)
	o.note("callers", 1)
	o.note("window", serveWindow)
	o.note("prefix_requests", ps.prefix)
	o.note("checks", ps.checks)
	o.note("check_failures", checkFailed)
	o.note("realized_io_all_lsc_lec", fmt.Sprintf("%d %d", ps.ioAllLSC, ps.ioAllLEC))
	o.note("check_seconds", fmt.Sprintf("%.4f", ps.checkTime.Seconds()))
	o.note("whole_phase_allocs_per_req", fmt.Sprintf("%.6g", ratio(float64(ps.wholeAllocs), float64(ps.requests))))
	o.note("lec_lsc_io_ratio_scope", "engine-measured I/O of both plans, prefix requests")
	return o, nil
}

func traceServe(cfg config) (*outcome, error) {
	base := time.Now()
	r, err := setupServe(cfg.seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer(base, 200_000, 256)
	ps, err := r.phase(cfg.seed, 0, cfg.seconds/2, tr)
	if err != nil {
		return nil, err
	}
	uncounted := r.uncountedHits()
	pu, err := r.phase(cfg.seed, 10, cfg.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	failed := ps.failed + pu.failed + ps.checkFailed + pu.checkFailed
	o := newOutcome(ps.requests+pu.requests, failed)
	v := zeroLayers()
	ts := []*tracer{tr}
	layerFigures(v, ts)
	meterFigures(v, &ps.meter, &pu.meter, ps.requests, pu.requests)
	v["optimizer.candidates"] = ratio(float64(ps.candSum), float64(ps.candN))
	v["plan.nodes"] = ratio(float64(ps.nodes), float64(min(ps.requests, int64(ps.prefix))))
	v["core.cache_hit_share"] = ratio(float64(ps.hits), float64(ps.responses))
	v["core.uncounted_hits"] = float64(uncounted)
	v["core.batch_dedup_share"] = ratio(float64(ps.dups), float64(ps.responses))
	v["core.elapsed_share"] = ratio(float64(ps.elapsed), float64(ps.batchTime))
	v["engine.io_pages"] = float64(ps.ioLSC + ps.ioLEC)
	v["engine.grace_fallbacks"] = float64(ps.fallbacks)
	v["buffer.reads"] = float64(ps.bufReads)
	v["buffer.writes"] = float64(ps.bufWrites)
	v["buffer.hit_rate"] = ratio(float64(ps.bufHits), float64(ps.bufHits+ps.bufReads))
	v["feedback.queries"] = float64(ps.fbQueries)
	v["feedback.observations"] = float64(ps.fbObs)
	v["storage.build_s"] = r.buildS
	st := r.stream(cfg.seed, 50)
	var scs []*core.Scenario
	for i := 0; i < 256; i++ {
		s, err := r.nextSlot(st)
		if err != nil {
			return nil, err
		}
		it := item{blk: s.q.Block, cat: s.cat, env: r.mix.Tenants[s.tenant].Env, alg: core.AlgC, opts: &servingOpts}
		scs = append(scs, it.scenario())
	}
	microAllocs(v, scs)
	o.values = v
	if err := traceOut(o, cfg, ts); err != nil {
		return nil, err
	}
	return o, nil
}
