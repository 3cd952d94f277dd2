package histo

import (
	"reflect"
	"testing"
)

func TestEmptySummary(t *testing.T) {
	var h Histogram
	if got := h.Summary(); !reflect.DeepEqual(got, Summary{}) {
		t.Fatalf("empty histogram summarized to %+v", got)
	}
}

func TestQuantilesAndBuckets(t *testing.T) {
	var h Histogram
	// 1..100 in scrambled order: quantiles must not depend on insertion
	// order, only on the multiset.
	for i := 100; i >= 1; i-- {
		h.Observe(float64(i))
	}
	s := h.Summary()
	if s.Count != 100 || s.Max != 100 {
		t.Fatalf("count/max wrong: %+v", s)
	}
	if s.P50 != 50 || s.P90 != 90 || s.P99 != 99 {
		t.Fatalf("quantiles wrong: p50=%v p90=%v p99=%v", s.P50, s.P90, s.P99)
	}
	if s.Mean != 50.5 {
		t.Fatalf("mean %v", s.Mean)
	}
	total := 0
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 100 {
		t.Fatalf("buckets cover %d of 100 observations", total)
	}
	// Power-of-two edges: 1, 2, 4, ..., 128 covers max 100.
	if last := s.Buckets[len(s.Buckets)-1].Le; last != 128 {
		t.Fatalf("last bucket edge %v, want 128", last)
	}
}

func TestNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	s := h.Summary()
	if s.Count != 1 || s.Max != 0 {
		t.Fatalf("negative observation not clamped: %+v", s)
	}
}

func TestDeterministicSummary(t *testing.T) {
	build := func(order []float64) Summary {
		var h Histogram
		for _, v := range order {
			h.Observe(v)
		}
		return h.Summary()
	}
	a := build([]float64{3, 1, 7, 7, 2})
	b := build([]float64{7, 2, 3, 7, 1})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("summary depends on insertion order:\n%+v\nvs\n%+v", a, b)
	}
}
