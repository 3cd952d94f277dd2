package fleet

import (
	"encoding/json"
	"math/rand"
	"testing"

	"lecopt/internal/resilience"
)

// smallSpec is a fast fleet for tests: few tenants, few groups, short
// streams, but every mechanism (Zipf traffic, shared-catalog drift,
// churn tenants, budgets, breakers, hedging) still engaged.
func smallSpec(t *testing.T) Spec {
	t.Helper()
	spec, err := DefaultSpec()
	if err != nil {
		t.Fatalf("DefaultSpec: %v", err)
	}
	spec.Tenants = 48
	spec.Groups = 3
	spec.TablesPerGroup = 4
	spec.QueriesPerGroup = 4
	spec.MinPages, spec.MaxPages = 6, 20
	spec.ChurnTenants = 2
	spec.LoadLevels = []float64{500, 5000}
	return spec
}

func newTestFleet(t *testing.T, spec Spec, seed int64) *Fleet {
	t.Helper()
	f, err := New(spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func TestNewFleetShape(t *testing.T) {
	spec := smallSpec(t)
	f := newTestFleet(t, spec, 7)

	if len(f.Tenants) != spec.Tenants {
		t.Fatalf("tenants: %d", len(f.Tenants))
	}
	if len(f.Groups) != spec.Groups {
		t.Fatalf("groups: %d", len(f.Groups))
	}
	if len(f.Queries) != spec.Groups*spec.QueriesPerGroup {
		t.Fatalf("queries: %d", len(f.Queries))
	}
	// Churn tenants are the reserved low IDs, homed in group 0, which is
	// the churn group.
	if !f.Groups[0].Churn {
		t.Fatal("group 0 should be the churn group")
	}
	for i := 0; i < spec.ChurnTenants; i++ {
		if f.Tenants[i].Group != 0 {
			t.Fatalf("churn tenant %d homed in group %d", i, f.Tenants[i].Group)
		}
	}
	for i := spec.ChurnTenants; i < len(f.Tenants); i++ {
		if f.Tenants[i].Group == 0 {
			t.Fatalf("regular tenant %d homed in churn group", i)
		}
	}
	// Query IDs are fleet-global and dense; every query stays inside its
	// group's table pool.
	for i, q := range f.Queries {
		if q.ID != i {
			t.Fatalf("query %d has ID %d", i, q.ID)
		}
		grp := f.Groups[q.Group]
		for _, tbl := range q.Block.Tables {
			if _, err := grp.Cat.Table(tbl); err != nil {
				t.Fatalf("query %d references %s outside group %d: %v", i, tbl, q.Group, err)
			}
		}
	}
}

func TestNewFleetValidates(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Tenants = 0 },
		func(s *Spec) { s.TenantZipfS = -1 },
		func(s *Spec) { s.Groups = 1 }, // churn tenants need a regular group too
		func(s *Spec) { s.QueriesPerGroup = 0 },
		func(s *Spec) { s.MaxTables = s.TablesPerGroup + 1 },
		func(s *Spec) { s.LoadLevels = nil },
		func(s *Spec) { s.LoadLevels = []float64{0} },
		func(s *Spec) { s.Archetypes = nil },
		func(s *Spec) { s.Drift.Factors = []float64{2, 4} }, // no neutral 1
	}
	for i, mutate := range bad {
		spec := smallSpec(t)
		mutate(&spec)
		if _, err := New(spec, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("case %d: bad spec accepted", i)
		}
	}
}

// TestRunDeterminism is the determinism satellite: same seed + spec give
// a byte-identical report across two independent runs and across worker
// counts.
func TestRunDeterminism(t *testing.T) {
	spec := smallSpec(t)
	run := func(workers int) []byte {
		f := newTestFleet(t, spec, 42)
		rep, err := f.Run(RunConfig{Requests: 300, Seed: 99, Workers: workers})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return buf
	}
	a, b, c := run(1), run(1), run(8)
	if string(a) != string(b) {
		t.Fatal("same seed, same workers: reports differ")
	}
	if string(a) != string(c) {
		t.Fatal("reports differ across worker counts")
	}
}

func TestRunReportShape(t *testing.T) {
	spec := smallSpec(t)
	f := newTestFleet(t, spec, 42)
	rep, err := f.Run(RunConfig{Requests: 300, Seed: 99})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors", rep.Errors)
	}
	if len(rep.Levels) != len(spec.LoadLevels) {
		t.Fatalf("levels: %d", len(rep.Levels))
	}
	for i, lvl := range rep.Levels {
		if lvl.QPS != spec.LoadLevels[i] {
			t.Fatalf("level %d qps %v", i, lvl.QPS)
		}
		if lvl.Requests != 300 {
			t.Fatalf("level %d requests %d", i, lvl.Requests)
		}
		// Every optimize attempt and every observe call is on the
		// timeline.
		if lvl.TimelineEvents != lvl.TimelineOptimize+lvl.TimelineObserve {
			t.Fatalf("level %d timeline %d != %d+%d",
				i, lvl.TimelineEvents, lvl.TimelineOptimize, lvl.TimelineObserve)
		}
		if lvl.TimelineOptimize < lvl.Requests {
			t.Fatalf("level %d optimize events %d < requests %d", i, lvl.TimelineOptimize, lvl.Requests)
		}
		// Hedge accounting identity.
		if lvl.HedgeWins+lvl.HedgeLosses+lvl.HedgeCancels != lvl.HedgesFired {
			t.Fatalf("level %d hedge identity: %+v", i, lvl)
		}
		if lvl.OptimizeLatency.Count != lvl.Requests-lvl.Errors {
			t.Fatalf("level %d histogram count %d", i, lvl.OptimizeLatency.Count)
		}
		if len(lvl.ChurnTenantStats) == 0 {
			t.Fatalf("level %d has no churn tenant stats", i)
		}
		if lvl.LSCIO <= 0 || lvl.LECIO <= 0 {
			t.Fatalf("level %d missing realized IO: lsc=%d lec=%d", i, lvl.LSCIO, lvl.LECIO)
		}
	}
	// Identical streams across levels: realized baseline I/O must match
	// level to level (only pacing differs).
	if rep.Levels[0].LSCIO != rep.Levels[1].LSCIO {
		t.Fatalf("baseline IO differs across levels: %d vs %d",
			rep.Levels[0].LSCIO, rep.Levels[1].LSCIO)
	}
	if rep.RealizedRatio <= 0 || rep.RealizedRatio > 1.5 {
		t.Fatalf("implausible realized ratio %v", rep.RealizedRatio)
	}
	// Higher offered load must not reduce pressure: the high level sees
	// at least as many budget denials as the low level.
	low, high := rep.Levels[0], rep.Levels[1]
	if high.BudgetDenials < low.BudgetDenials {
		t.Fatalf("denials fell with load: %d -> %d", low.BudgetDenials, high.BudgetDenials)
	}
}

// TestPlanCacheCountsHitDecisions: every request the wrapper serves as a
// "hit" was served by the plan cache's lookup step, so the cache's own hit
// counter can never fall below the level's hit decisions.
func TestPlanCacheCountsHitDecisions(t *testing.T) {
	f := newTestFleet(t, smallSpec(t), 42)
	rep, err := f.Run(RunConfig{Requests: 300, Seed: 99})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, lvl := range rep.Levels {
		hits := 0
		for _, d := range lvl.Decisions {
			if d.Decision == resilience.DecisionHit {
				hits = d.Count
			}
		}
		if hits == 0 {
			t.Fatalf("level %d served no hits", i)
		}
		if lvl.PlanCacheHits < uint64(hits) {
			t.Fatalf("level %d: plan cache counted %d hits for %d hit decisions", i, lvl.PlanCacheHits, hits)
		}
	}
}
