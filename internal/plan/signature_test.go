package plan

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"lecopt/internal/cost"
)

// sigTables includes names that are prefixes of one another, so byte-wise
// comparison has to order "t1" against "t10" and "t1[ix:…" exactly as the
// string comparison does.
var sigTables = []string{"t", "t1", "t10", "t2", "ta"}

// randSigScan returns a heap or index scan of a random table; both access
// paths of one table share the table name and differ only in the suffix.
func randSigScan(rng *rand.Rand) *Node {
	table := sigTables[rng.Intn(len(sigTables))]
	if rng.Intn(2) == 0 {
		return NewScan(table, AccessHeap, "", 1, 10)
	}
	ix := []string{"ix", "ix_" + table}[rng.Intn(2)]
	return NewScan(table, AccessIndex, ix, 1, 10)
}

// randSigTree builds a random tree of up to depth joins: left-deep or
// bushy, every join method, optionally under a sort root with a set or
// unset order.
func randSigTree(rng *rand.Rand, depth int) *Node {
	var rec func(d int) *Node
	rec = func(d int) *Node {
		if d == 0 || rng.Intn(4) == 0 {
			return randSigScan(rng)
		}
		right := randSigScan(rng)
		if rng.Intn(3) == 0 {
			right = rec(d - 1)
		}
		m := cost.Methods[rng.Intn(len(cost.Methods))]
		return NewJoin(m, rec(d-1), right, 10, Order{})
	}
	n := rec(depth)
	if rng.Intn(3) == 0 {
		ord := Order{}
		if rng.Intn(2) == 0 {
			ord = Order{Table: sigTables[rng.Intn(len(sigTables))], Column: "k"}
		}
		n = NewSort(n, ord)
	}
	return n
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// TestCompareSignatureMatchesStrings pins CompareSignature to the string
// ordering the optimizer's tie-break was defined by, on random trees and
// on hand-picked near-collisions, and checks AppendSignature renders
// Signature byte for byte.
func TestCompareSignatureMatchesStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trees := []*Node{
		NewScan("t1", AccessHeap, "", 1, 10),
		NewScan("t10", AccessHeap, "", 1, 10),
		NewScan("t1", AccessIndex, "ix", 1, 10),
		NewScan("t1", AccessIndex, "ix_t1", 1, 10),
		NewSort(NewScan("t1", AccessHeap, "", 1, 10), Order{}),
		NewSort(NewScan("t1", AccessHeap, "", 1, 10), Order{Table: "t1", Column: "k"}),
	}
	for _, m := range cost.Methods {
		trees = append(trees, NewJoin(m, NewScan("t1", AccessHeap, "", 1, 10), NewScan("t10", AccessHeap, "", 1, 10), 10, Order{}))
	}
	for i := 0; i < 300; i++ {
		trees = append(trees, randSigTree(rng, 1+rng.Intn(7)))
	}
	for _, a := range trees {
		if got := string(a.AppendSignature([]byte("x"))); got != "x"+a.Signature() {
			t.Fatalf("AppendSignature = %q, want %q", got, "x"+a.Signature())
		}
		for _, b := range trees {
			got := sign(CompareSignature(a, b))
			want := strings.Compare(a.Signature(), b.Signature())
			if got != want {
				t.Fatalf("CompareSignature(%s, %s) = %d, want %d", a.Signature(), b.Signature(), got, want)
			}
		}
	}
}

// TestCompareSignatureZeroAllocs holds the tie-break to its contract: two
// 8-table plans compare without touching the heap.
func TestCompareSignatureZeroAllocs(t *testing.T) {
	build := func(last cost.JoinMethod) *Node {
		n := NewScan("t0", AccessIndex, "ix_t0", 1, 10)
		for i := 1; i < 8; i++ {
			m := cost.Methods[i%len(cost.Methods)]
			if i == 7 {
				m = last
			}
			n = NewJoin(m, n, NewScan("t"+strconv.Itoa(i), AccessHeap, "", 1, 10), 10, Order{})
		}
		return NewSort(n, Order{Table: "t0", Column: "k"})
	}
	a, b := build(cost.GraceHash), build(cost.SortMerge)
	if len(a.Signature()) > 192 || len(b.Signature()) > 192 {
		t.Fatalf("test plans outgrow the stack buffers: %d, %d bytes", len(a.Signature()), len(b.Signature()))
	}
	if CompareSignature(a, b) >= 0 {
		t.Fatalf("want %s < %s", a.Signature(), b.Signature())
	}
	if allocs := testing.AllocsPerRun(100, func() { CompareSignature(a, b) }); allocs != 0 {
		t.Fatalf("CompareSignature allocates %.1f allocs/op, want 0", allocs)
	}
}
