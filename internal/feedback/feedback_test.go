package feedback

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestSetKeyCanonical(t *testing.T) {
	if SetKey("b", "a", "c") != "a+b+c" {
		t.Fatalf("got %q", SetKey("b", "a", "c"))
	}
	if SetKey("t0") != "t0" {
		t.Fatalf("single-table key: %q", SetKey("t0"))
	}
	if SetKey("a", "c") == SetKey("a", "b") {
		t.Fatal("different sets must not collide")
	}
}

func TestObserveAndHints(t *testing.T) {
	s := NewStore(0.5)
	if got := s.Hints("q"); got != nil {
		t.Fatalf("empty store returned hints: %v", got)
	}
	s.Observe("q", map[string]float64{"a+b": 100})
	if got := s.Hints("q")["a+b"]; got != 100 {
		t.Fatalf("first observation is the value: got %v", got)
	}
	// EWMA: 0.5*200 + 0.5*100 = 150.
	s.Observe("q", map[string]float64{"a+b": 200})
	if got := s.Hints("q")["a+b"]; got != 150 {
		t.Fatalf("ewma: got %v want 150", got)
	}
	// Repeated identical observations converge and stay put.
	for i := 0; i < 20; i++ {
		s.Observe("q", map[string]float64{"a+b": 150})
	}
	if got := s.Hints("q")["a+b"]; got != 150 {
		t.Fatalf("converged hint moved: %v", got)
	}
	if s.Queries() != 1 {
		t.Fatalf("queries: %d", s.Queries())
	}
	if s.Observations() == 0 {
		t.Fatal("observations not counted")
	}
}

func TestObserveIgnoresGarbage(t *testing.T) {
	s := NewStore(0)
	s.Observe("q", map[string]float64{"a": -1, "b": 0})
	if s.Hints("q") != nil {
		t.Fatal("garbage observations must be dropped")
	}
}

// TestGarbageOnlyObserveAddsNoQuery: a query none of whose sizes folds is
// not counted as a query with observations.
func TestGarbageOnlyObserveAddsNoQuery(t *testing.T) {
	s := NewStore(0)
	s.Observe("q", map[string]float64{"a": -1, "b": math.NaN(), "c": math.Inf(1)})
	if q, obs := s.Queries(), s.Observations(); q != 0 || obs != 0 {
		t.Fatalf("garbage-only Observe: queries %d observations %d, want 0 and 0", q, obs)
	}
}

func TestHintsRounded(t *testing.T) {
	s := NewStore(1)
	s.Observe("q", map[string]float64{"a+b": 1234.5})
	if got := s.Hints("q")["a+b"]; got != 1200 {
		t.Fatalf("rounding: got %v want 1200", got)
	}
}

func TestRoundSig(t *testing.T) {
	cases := map[float64]float64{1234: 1200, 96: 96, 0.0372: 0.037, 8: 8, 150: 150}
	for in, want := range cases {
		if got := RoundSig(in); got != want {
			t.Errorf("RoundSig(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestHintsPerQueryIsolation(t *testing.T) {
	s := NewStore(0)
	s.Observe("q1", map[string]float64{"a+b": 10})
	s.Observe("q2", map[string]float64{"a+b": 99})
	if s.Hints("q1")["a+b"] == s.Hints("q2")["a+b"] {
		t.Fatal("queries must not share observations")
	}
}

func TestConcurrentObserve(t *testing.T) {
	s := NewStore(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				q := fmt.Sprintf("q%d", g%4)
				s.Observe(q, map[string]float64{"a+b": 50})
				s.Hints(q)
			}
		}(g)
	}
	wg.Wait()
	if s.Queries() != 4 {
		t.Fatalf("queries: %d", s.Queries())
	}
}
