package plancache

import (
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/query"
)

// edgeCatalog builds a two-table catalog whose "k" distinct counts can be
// scaled; the base values sit just below a floor(log2) band boundary
// (15.6 -> band 3) so a small upward factor step crosses it.
func edgeCatalog(t *testing.T, factor float64) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, spec := range []struct {
		name     string
		distinct float64
	}{{"a", 15.6}, {"b", 24}} {
		tab, err := catalog.NewTable(spec.name, 100, 10000,
			catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: spec.distinct * factor, Min: 0, Max: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func edgeBlock() *query.Block {
	return &query.Block{
		Tables: []string{"a", "b"},
		Joins: []query.Join{{
			Left:  query.ColRef{Table: "a", Column: "k"},
			Right: query.ColRef{Table: "b", Column: "k"},
		}},
	}
}

// TestSignatureMarginBridgesBandEdge is the band-edge hysteresis property:
// a factor step that crosses a floor(log2) band boundary changes the
// primary banded signature (the historical cache split), but the stepped
// catalog's -margin probe signature equals the original catalog's primary
// signature — the key equality the hysteresis probe in core relies on.
func TestSignatureMarginBridgesBandEdge(t *testing.T) {
	before := edgeCatalog(t, 1)    // a.k distinct 15.6: band 3
	after := edgeCatalog(t, 1.1)   // a.k distinct 17.16: band 4 (crossed)
	within := edgeCatalog(t, 1.01) // a.k distinct 15.756: still band 3
	blk := edgeBlock()
	env := envsim.Env{Mem: dist.Point(100)}
	sig := func(cat *catalog.Catalog, margin float64) string {
		return SignatureMargin(cat, blk, env, nil, nil, optimizer.Options{}, 0, "algorithm-c", 2, margin)
	}

	base := sig(before, 0)
	if sig(within, 0) != base {
		t.Fatal("in-band drift must not change the banded signature")
	}
	stepped := sig(after, 0)
	if stepped == base {
		t.Fatal("the factor step should cross a band boundary (test setup broken)")
	}
	if got := sig(after, -0.25); got != base {
		t.Fatal("-margin probe signature of the stepped catalog must equal the neighbor's primary signature")
	}
	// And symmetrically: stepping back down, the +margin probe bridges.
	if got := sig(before, 0.25); got != stepped {
		t.Fatal("+margin probe signature must bridge the boundary downward")
	}
	// Exact keys ignore the margin entirely.
	exact := SignatureMargin(after, blk, env, nil, nil, optimizer.Options{}, 0, "algorithm-c", 0, -0.25)
	if exact != Signature(after, blk, env, nil, nil, optimizer.Options{}, 0, "algorithm-c", 0) {
		t.Fatal("margin must be a no-op for exact keys")
	}
}

// TestProbeDoesNotCountStats: ProbeBytes finds entries and refreshes
// recency without moving the hit/miss counters.
func TestProbeDoesNotCountStats(t *testing.T) {
	c := New[int](64)
	c.Put("x", 1)
	if _, ok := c.ProbeBytes([]byte("x")); !ok {
		t.Fatal("probe missed a present key")
	}
	if _, ok := c.ProbeBytes([]byte("y")); ok {
		t.Fatal("probe found a missing key")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("probe moved counters: %+v", st)
	}
}
