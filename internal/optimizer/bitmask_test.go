package optimizer

import (
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/plan"
	"lecopt/internal/query"
	"lecopt/internal/workload"
)

// refGraph is the reference join-graph view the DP used before adjacency
// and ORDER BY became bitmasks: an edge matrix, and per-call scans of
// the block's predicates through query.Block.JoinsBetween.
type refGraph struct {
	c    *ctx
	edge [][]bool
}

func newRefGraph(c *ctx) refGraph {
	edge := make([][]bool, c.n)
	for i := range edge {
		edge[i] = make([]bool, c.n)
	}
	for _, j := range c.blk.Joins {
		li, ri := c.blk.TableIndex(j.Left.Table), c.blk.TableIndex(j.Right.Table)
		edge[li][ri], edge[ri][li] = true, true
	}
	return refGraph{c: c, edge: edge}
}

func (g refGraph) connects(j int, mask uint64) bool {
	for i := 0; i < g.c.n; i++ {
		if mask&(1<<uint(i)) != 0 && g.edge[i][j] {
			return true
		}
	}
	return false
}

func (g refGraph) candidates(mask uint64) []int {
	var out []int
	for j := 0; j < g.c.n; j++ {
		bit := uint64(1) << uint(j)
		if mask&bit == 0 {
			continue
		}
		if rest := mask &^ bit; rest == 0 || g.connects(j, rest) {
			out = append(out, j)
		}
	}
	if len(out) > 0 {
		return out
	}
	for j := 0; j < g.c.n; j++ {
		if mask&(1<<uint(j)) != 0 {
			out = append(out, j)
		}
	}
	return out
}

func (g refGraph) isCandidate(j int, mask uint64) bool {
	for _, cand := range g.candidates(mask) {
		if cand == j {
			return true
		}
	}
	return false
}

func (g refGraph) sigmaBetween(j int, mask uint64) float64 {
	s := 1.0
	for i := 0; i < g.c.n; i++ {
		if mask&(1<<uint(i)) != 0 {
			s *= g.c.sigma[i][j]
		}
	}
	return s
}

func (g refGraph) joinOrder(method cost.JoinMethod, j int, leftMask uint64) plan.Order {
	c := g.c
	if !method.OrdersOutput() || c.blk.OrderBy == nil {
		return plan.Order{}
	}
	for _, e := range c.blk.JoinsBetween(c.blk.Tables[j], leftMask) {
		side, _ := e.Side(c.blk.Tables[j])
		other, _ := e.Other(c.blk.Tables[j])
		for _, col := range []query.ColRef{side, other} {
			if c.orderCols[plan.Order{Table: col.Table, Column: col.Column}] {
				return plan.Order{Table: c.blk.OrderBy.Table, Column: c.blk.OrderBy.Column}
			}
		}
	}
	return plan.Order{}
}

// TestBitmaskGraphMatchesReference replays the differential corpus (seeds
// 7000+i, 2-4 tables, cycling shapes), each scenario also with half its
// join predicates dropped so forced cross products occur, and checks that
// the bitmask connects, candidates, isCandidate, sigmaBetween and
// joinOrder agree with the reference scans for every mask, member table
// and join method, and that joinOutput's derived slot is slotOf of its
// order.
func TestBitmaskGraphMatchesReference(t *testing.T) {
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	crossed, ordered := 0, 0
	for i := 0; i < 200; i++ {
		sc := wideScenario(t, 2+i%3, shapes[i%len(shapes)], int64(7000+i))
		cut := sc.Block.Clone()
		cut.Joins = cut.Joins[:len(cut.Joins)/2]
		for _, blk := range []*query.Block{sc.Block, cut} {
			x, o := checkBitmaskGraph(t, i, sc.Cat, blk)
			crossed += x
			ordered += o
		}
	}
	if crossed == 0 || ordered == 0 {
		t.Fatalf("corpus misses a path: %d cross-product masks, %d ORDER BY-satisfying joins", crossed, ordered)
	}
}

// checkBitmaskGraph compares one block's bitmask graph against the
// reference. It returns how many masks fell back to a cross product and
// how many joins produced the ORDER BY order.
func checkBitmaskGraph(t *testing.T, i int, cat *catalog.Catalog, blk *query.Block) (crossed, ordered int) {
	t.Helper()
	c, err := prepare(cat, blk, Options{Methods: cost.Methods})
	if err != nil {
		t.Fatalf("scenario %d: %v", i, err)
	}
	ref := newRefGraph(c)
	// Left inputs arrive unordered, in the ORDER BY order, or in a leaf's
	// index order.
	leftOrders := []plan.Order{{}, c.requiredOrder(), {Table: blk.Tables[0], Column: "k"}}
	for mask := uint64(1); mask <= fullMask(c.n); mask++ {
		want := ref.candidates(mask)
		got := c.candidates(mask)
		if len(got) != len(want) {
			t.Fatalf("scenario %d mask %b: candidates %v, want %v", i, mask, got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("scenario %d mask %b: candidates %v, want %v", i, mask, got, want)
			}
		}
		if len(want) > 1 && !ref.connects(want[0], mask&^(1<<uint(want[0]))) {
			crossed++
		}
		for j := 0; j < c.n; j++ {
			bit := uint64(1) << uint(j)
			if got, want := c.isCandidate(j, mask), ref.isCandidate(j, mask); got != want {
				t.Fatalf("scenario %d mask %b j %d: isCandidate %v, want %v", i, mask, j, got, want)
			}
			if mask&bit == 0 {
				continue
			}
			rest := mask &^ bit
			if got, want := c.connects(j, rest), ref.connects(j, rest); got != want {
				t.Fatalf("scenario %d mask %b j %d: connects %v, want %v", i, mask, j, got, want)
			}
			if got, want := c.sigmaBetween(j, rest), ref.sigmaBetween(j, rest); got != want {
				t.Fatalf("scenario %d mask %b j %d: sigmaBetween %v, want %v", i, mask, j, got, want)
			}
			for _, m := range c.opts.Methods {
				got, want := c.joinOrder(m, j, rest), ref.joinOrder(m, j, rest)
				if got != want {
					t.Fatalf("scenario %d mask %b j %d %s: joinOrder %v, want %v", i, mask, j, m, got, want)
				}
				if !got.IsNone() {
					ordered++
				}
				for _, lo := range leftOrders {
					order, slot := c.joinOutput(m, j, rest, lo, c.slotOf(lo))
					if want := c.slotOf(order); slot != want {
						t.Fatalf("scenario %d mask %b j %d %s left %v: joinOutput slot %d, want %d", i, mask, j, m, lo, slot, want)
					}
				}
			}
		}
	}
	return crossed, ordered
}
