// Package resilience is the serving-policy layer between fleet traffic and
// the core.Optimizer service handle: per-tenant optimization budgets that
// gate cold-path plan computation under overload, hedged re-optimization
// for tail latency, circuit breakers that trip on drift churn (cache-miss
// + rank-flip rate) and serve degraded-but-cheap plans while open, and a
// timeline observer recording every attempt.
//
// Latency here is *modeled*: an injected LatencySpec prices each served
// path in virtual microseconds and an injected Clock supplies timestamps
// (decision logic never reads the wall clock), so a same-seed fleet run
// makes byte-identical decisions on any machine. The plans themselves are
// real — every path serves an executable plan from the wrapped handle.
package resilience

import (
	"sync"

	"lecopt/internal/core"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
)

// LatencySpec prices the serving paths in virtual microseconds of modeled
// optimizer work. The cold path scales with what the optimizer actually
// did (candidates enumerated, plan-space probes), so heavy queries cost
// proportionally more budget and hedge more often.
type LatencySpec struct {
	// Hit is a plan-cache hit (any path that serves a cached plan).
	Hit Micros
	// ColdBase + PerCandidate·Candidates + PerProbe·Probes is a cold
	// optimization's modeled duration; ColdBase is also the budget
	// admission floor.
	ColdBase     Micros
	PerCandidate Micros
	PerProbe     Micros
	// Degraded is a modal-point LSC fallback plan.
	Degraded Micros
	// Observe is a feedback fold.
	Observe Micros
}

// Config wires a Wrapper. Zero-valued specs disable their mechanism; a
// nil Clock gets a fresh VirtualClock at 0; a nil Observer records
// nothing.
type Config struct {
	Budget   BudgetSpec
	Breaker  BreakerSpec
	Hedge    HedgeSpec
	Latency  LatencySpec
	Clock    Clock
	Observer Observer
}

// Decision labels the policy that served a request.
type Decision string

const (
	// DecisionHit: served from the drift-banded plan cache on the fast
	// path (no budget or breaker involvement).
	DecisionHit Decision = "hit"
	// DecisionCold: admitted cold optimization, no hedge fired.
	DecisionCold Decision = "cold"
	// DecisionColdHedged: admitted cold optimization with a hedge fired.
	DecisionColdHedged Decision = "cold-hedged"
	// DecisionDeniedCache: over budget, served the nearest banded cached
	// plan from a widened band search.
	DecisionDeniedCache Decision = "denied-cache"
	// DecisionDeniedDegraded: over budget and nothing cached nearby,
	// served a degraded modal-point plan.
	DecisionDeniedDegraded Decision = "denied-degraded"
	// DecisionBreakerCache: breaker open, served a nearest cached plan.
	DecisionBreakerCache Decision = "breaker-cache"
	// DecisionBreakerDegraded: breaker open, served a degraded plan.
	DecisionBreakerDegraded Decision = "breaker-degraded"
	// DecisionBreakerTrial: half-open trial re-optimization.
	DecisionBreakerTrial Decision = "breaker-trial"
)

// nearestMargins is the widened band search (in band units, nearest
// first) used when a denied or breaker-open tenant must be served from
// cache: up to two full bands away — a plan optimized for statistics 4x
// off is degraded service, but it is *service*.
var nearestMargins = []float64{0.25, 0.5, 1, 2}

// Request is one tenant request through the wrapper.
type Request struct {
	// Tenant keys the budget, breaker, hedge and timeline state.
	Tenant string
	// Query labels the request in rank-flip tracking and the timeline
	// (typically the fleet's stable query ID).
	Query string
	// Core is the underlying optimization request.
	Core core.Request
	// PrimaryJitter and HedgeJitter scale the two attempts' modeled cold
	// durations (<= 0 means 1). The caller draws them from its own seeded
	// source — the wrapper owns no randomness.
	PrimaryJitter float64
	HedgeJitter   float64
}

// Outcome is the settled result of one request.
type Outcome struct {
	core.Response
	Decision Decision
	// Served is the modeled latency the caller experienced; Charged is
	// the modeled work billed to the tenant's budget; Wasted is the
	// loser's abandoned share of Charged when a hedge fired.
	Served  Micros
	Charged Micros
	Wasted  Micros
	// Hedge is the hedge outcome (HedgeNone when none fired).
	Hedge HedgeOutcome
	// Breaker is the tenant's breaker state at decision time.
	Breaker string
	// Degraded marks a modal-point fallback plan.
	Degraded bool
}

// tenantState is everything the wrapper remembers about one tenant.
type tenantState struct {
	budget   budget
	breaker  breaker
	hedge    hedger
	lastPlan map[string]string // query -> last normally-served plan signature

	requests   int
	denials    int
	openServed int
	degraded   int
	churn      int
}

// Wrapper applies the resilience policies around a core.Optimizer. It is
// concurrency-safe; the optimizer calls themselves run outside the
// wrapper's mutex, and the observer is invoked outside it too, so neither
// cold optimizations nor slow observers serialize other tenants.
type Wrapper struct {
	opt *core.Optimizer
	cfg Config

	mu      sync.Mutex
	tenants map[string]*tenantState
	seq     uint64

	requests     int
	errors       int
	decisions    map[Decision]int
	denials      int
	hedgesFired  int
	hedgeWins    int
	hedgeLosses  int
	hedgeCancels int
	observeCalls int
}

// New wraps opt with the configured policies.
func New(opt *core.Optimizer, cfg Config) *Wrapper {
	if cfg.Clock == nil {
		cfg.Clock = NewVirtualClock(0)
	}
	return &Wrapper{
		opt:       opt,
		cfg:       cfg,
		tenants:   make(map[string]*tenantState),
		decisions: make(map[Decision]int),
	}
}

func (w *Wrapper) tenant(name string) *tenantState {
	ts, ok := w.tenants[name]
	if !ok {
		ts = &tenantState{lastPlan: make(map[string]string)}
		ts.budget.spec = w.cfg.Budget
		ts.breaker.spec = w.cfg.Breaker
		ts.hedge.spec = w.cfg.Hedge
		w.tenants[name] = ts
	}
	return ts
}

// coldCost prices a cold optimization from the report's bookkeeping.
func (w *Wrapper) coldCost(resp core.Response) Micros {
	l := w.cfg.Latency
	return l.ColdBase + l.PerCandidate*Micros(resp.Candidates) + l.PerProbe*Micros(resp.Probes)
}

func jittered(d Micros, j float64) Micros {
	if j <= 0 {
		return d
	}
	return Micros(float64(d) * j)
}

// degraded serves the cheapest defensible plan: modal-point LSC — the
// least-specific-cost plan at the tenant's most likely memory level. It
// flows through the wrapped handle, so it is cached like any plan and
// costs real compute only once per band.
func (w *Wrapper) degraded(req Request) (core.Response, error) {
	deg := req.Core
	deg.Alg = core.AlgLSCMode
	deg.Env = envsim.Env{Mem: dist.Point(deg.Env.Mem.Mode())}
	return w.opt.Optimize(deg)
}

// Do serves one request under the tenant's budget, breaker and hedge
// state, and returns the settled outcome. Every path yields a plan (or an
// error in Outcome.Err); resilience means degraded service, not refusal.
func (w *Wrapper) Do(req Request) Outcome {
	now := w.cfg.Clock.Now()

	// Phase 1 — classify under the lock: breaker phase, budget admission,
	// and the rank-flip baseline. No optimizer work happens here.
	w.mu.Lock()
	ts := w.tenant(req.Tenant)
	ts.requests++
	w.requests++
	phase := ts.breaker.phase(now)
	lastSig := ts.lastPlan[req.Query]
	admitted := true
	if phase == breakerClosed {
		ts.budget.refill(now)
		admitted = ts.budget.admit(w.cfg.Latency.ColdBase)
	}
	w.mu.Unlock()

	// Phase 2 — serve outside the lock: cache probes, optimizations and
	// the degraded fallback are the expensive part and must not serialize
	// other tenants.
	var out Outcome
	var churn, recordChurn, isTrial, settlePlan, cold bool
	var primaryDur, hedgeDur Micros
	switch phase {
	case breakerOpen:
		if resp, ok := w.opt.Cached(req.Core, nearestMargins...); ok {
			out = Outcome{Response: resp, Decision: DecisionBreakerCache, Served: w.cfg.Latency.Hit}
		} else {
			resp, err := w.degraded(req)
			out = Outcome{Response: resp, Decision: DecisionBreakerDegraded, Served: w.cfg.Latency.Degraded, Degraded: err == nil}
		}
	case breakerHalfOpen:
		isTrial = true
		out.Decision = DecisionBreakerTrial
		resp, err := w.opt.Optimize(req.Core)
		out.Response = resp
		if err != nil {
			churn = true // an unoptimizable trial is not a recovery
		} else {
			sig := resp.Plan.Signature()
			churn = !resp.CacheHit || (lastSig != "" && lastSig != sig)
			settlePlan = true
			if resp.CacheHit {
				out.Served = w.cfg.Latency.Hit
			} else {
				primaryDur = jittered(w.coldCost(resp), req.PrimaryJitter)
				out.Served = primaryDur
				out.Charged = primaryDur
			}
		}
	default: // closed
		// An admitted request goes straight to Optimize, whose lookup step
		// serves a hit (band-edge hysteresis included) and computes a miss.
		// A denied request never starts cold work: the cache alone serves it.
		var resp core.Response
		var err error
		if admitted {
			resp, err = w.opt.Optimize(req.Core)
		} else {
			resp, _ = w.opt.Cached(req.Core)
		}
		out.Response = resp
		switch {
		case resp.CacheHit:
			out.Decision = DecisionHit
			out.Served = w.cfg.Latency.Hit
			churn = lastSig != "" && lastSig != resp.Plan.Signature()
			recordChurn, settlePlan = true, true
		case !admitted:
			// A denied request that misses its own band records as churn:
			// an overloaded tenant whose drift keeps missing converges to
			// the breaker's degraded serving instead of denying cold work
			// forever.
			churn, recordChurn = true, true
			if resp, ok := w.opt.Cached(req.Core, nearestMargins...); ok {
				out = Outcome{Response: resp, Decision: DecisionDeniedCache, Served: w.cfg.Latency.Hit}
				settlePlan = true
			} else {
				resp, err := w.degraded(req)
				out = Outcome{Response: resp, Decision: DecisionDeniedDegraded, Served: w.cfg.Latency.Degraded, Degraded: err == nil}
			}
		case err != nil:
			out.Decision = DecisionCold
		default:
			settlePlan = true
			cold, churn, recordChurn = true, true, true
			primaryDur = jittered(w.coldCost(resp), req.PrimaryJitter)
			hedgeDur = jittered(w.coldCost(resp), req.HedgeJitter)
		}
	}
	out.Breaker = phase.String()

	// Phase 3 — settle under the lock: hedge resolution (the delay
	// quantile reads tenant state), budget charge, breaker bookkeeping,
	// rank-flip baseline, counters, and the event sequence number.
	w.mu.Lock()
	if cold {
		hr := ts.hedge.resolve(primaryDur, hedgeDur)
		ts.hedge.record(primaryDur)
		out.Served, out.Charged, out.Wasted, out.Hedge = hr.served, hr.charged, hr.wasted, hr.outcome
		out.Decision = DecisionCold
		if hr.fired {
			out.Decision = DecisionColdHedged
			w.hedgesFired++
			switch hr.outcome {
			case HedgeWin:
				w.hedgeWins++
			case HedgeLoss:
				w.hedgeLosses++
			case HedgeCancel:
				w.hedgeCancels++
			}
		}
	}
	if isTrial {
		ts.breaker.trialResult(churn, now)
	} else if recordChurn {
		ts.breaker.record(churn, now)
	}
	if churn && (recordChurn || isTrial) {
		ts.churn++
	}
	ts.budget.charge(out.Charged)
	if settlePlan && out.Plan != nil {
		ts.lastPlan[req.Query] = out.Plan.Signature()
	}
	switch out.Decision {
	case DecisionDeniedCache, DecisionDeniedDegraded:
		ts.denials++
		w.denials++
	case DecisionBreakerCache, DecisionBreakerDegraded:
		ts.openServed++
	}
	if out.Degraded {
		ts.degraded++
	}
	if out.Err != nil {
		w.errors++
	}
	w.decisions[out.Decision]++
	w.seq++
	seq := w.seq
	tokens := ts.budget.tokens
	w.mu.Unlock()

	// Phase 4 — observe outside the lock: a slow observer delays only
	// this caller.
	if w.cfg.Observer != nil {
		ev := Event{
			Seq: seq, Kind: "optimize",
			Tenant: req.Tenant, Query: req.Query,
			Decision: out.Decision,
			Start:    now, Duration: out.Served,
			CacheHit: out.CacheHit, Degraded: out.Degraded,
			Hedge: out.Hedge, Breaker: out.Breaker,
			BudgetTokens: tokens,
		}
		if out.Err != nil {
			ev.Err = out.Err.Error()
		}
		w.cfg.Observer.Record(ev)
	}
	return out
}

// Observe forwards executed-size feedback to the wrapped handle and
// records the attempt on the timeline. It is priced by LatencySpec.Observe
// but charged to no budget — feedback is how plans get *better*; taxing it
// under overload would be self-defeating.
func (w *Wrapper) Observe(tenant, query string, fb core.Feedback) error {
	now := w.cfg.Clock.Now()
	err := w.opt.Observe(fb)
	w.mu.Lock()
	w.observeCalls++
	if err != nil {
		w.errors++
	}
	w.seq++
	seq := w.seq
	w.mu.Unlock()
	if w.cfg.Observer != nil {
		ev := Event{
			Seq: seq, Kind: "observe",
			Tenant: tenant, Query: query,
			Start: now, Duration: w.cfg.Latency.Observe,
		}
		if err != nil {
			ev.Err = err.Error()
		}
		w.cfg.Observer.Record(ev)
	}
	return err
}
