// Package engine is a mini page-at-a-time execution engine: external merge
// sort, sort-merge join, Grace hash join, and nested-loop joins executing
// over the storage layer through an LRU buffer pool that counts physical
// page I/O.
//
// Its purpose in this reproduction is experiment E15: demonstrating that
// the paper's simplified three-case cost formulas (footnote 2, [Sha86])
// have the right *shape* — the same memory-threshold plateaus and
// crossovers — when compared against the measured I/O of real join
// algorithm implementations. Join results are materialized without I/O
// charge (pipelined-to-consumer convention, matching the formulas, which
// exclude result writes).
package engine

import (
	"errors"
	"fmt"
	"sort"

	"lecopt/internal/buffer"
	"lecopt/internal/cost"
	"lecopt/internal/storage"
)

// Errors.
var (
	ErrBadMemory = errors.New("engine: memory budget too small")
	ErrBadSpec   = errors.New("engine: invalid spec")
)

// Engine executes operators against one store.
type Engine struct {
	store *storage.Store
}

// New builds an engine over a store.
func New(store *storage.Store) *Engine { return &Engine{store: store} }

// Store exposes the underlying store (for loading inputs in callers).
func (e *Engine) Store() *storage.Store { return e.store }

// JoinSpec names an equi-join to execute.
type JoinSpec struct {
	Method   cost.JoinMethod
	Outer    string // relation names
	Inner    string
	OuterCol string
	InnerCol string
}

// JoinDetail reports execution-shape facts about one join beyond its I/O
// totals: how deep a grace-hash recursion went, and whether it hit the
// level cap and degenerated to block nested loop (with the I/O those
// fallbacks charged). Zero for every non-grace method.
type JoinDetail struct {
	// GraceLevels is the deepest partitioning level a grace-hash
	// recursion performed (0: the first call joined in memory).
	GraceLevels int
	// GraceFallbacks counts level-cap block-nested-loop fallbacks — a
	// degenerate key distribution, not a costing error.
	GraceFallbacks int
	// GraceFallbackIO is the physical I/O charged inside those fallbacks.
	GraceFallbackIO int64
}

// Join executes the spec with a fresh pool of mem pages, returning the
// materialized result and the physical I/O incurred. The result relation
// has the outer's columns followed by the inner's.
func (e *Engine) Join(spec JoinSpec, mem int) (*storage.Relation, buffer.Stats, error) {
	rel, st, _, err := e.JoinDetailed(spec, mem)
	return rel, st, err
}

// JoinDetailed is Join plus the execution-shape detail (grace-hash
// recursion depth and level-cap fallbacks).
func (e *Engine) JoinDetailed(spec JoinSpec, mem int) (*storage.Relation, buffer.Stats, JoinDetail, error) {
	var det JoinDetail
	if mem < 3 {
		return nil, buffer.Stats{}, det, fmt.Errorf("%w: %d pages", ErrBadMemory, mem)
	}
	outer, err := e.store.Get(spec.Outer)
	if err != nil {
		return nil, buffer.Stats{}, det, err
	}
	inner, err := e.store.Get(spec.Inner)
	if err != nil {
		return nil, buffer.Stats{}, det, err
	}
	oc, err := outer.ColIndex(spec.OuterCol)
	if err != nil {
		return nil, buffer.Stats{}, det, err
	}
	ic, err := inner.ColIndex(spec.InnerCol)
	if err != nil {
		return nil, buffer.Stats{}, det, err
	}
	pool, err := buffer.NewPool(e.store, mem)
	if err != nil {
		return nil, buffer.Stats{}, det, err
	}
	result, err := e.newResultRel(outer, inner)
	if err != nil {
		return nil, buffer.Stats{}, det, err
	}
	switch spec.Method {
	case cost.SortMerge:
		err = e.sortMergeJoin(pool, outer, inner, oc, ic, result)
	case cost.GraceHash:
		err = e.graceHashJoin(pool, outer, inner, oc, ic, result, 0, &det)
	case cost.PageNL:
		err = e.pageNLJoin(pool, outer, inner, oc, ic, result)
	case cost.BlockNL:
		err = e.blockNLJoin(pool, outer, inner, oc, ic, result)
	default:
		err = fmt.Errorf("%w: method %v", ErrBadSpec, spec.Method)
	}
	if err != nil {
		return nil, pool.Stats(), det, err
	}
	return result, pool.Stats(), det, nil
}

// newResultRel creates the output temp relation (outer cols ++ inner cols,
// disambiguated).
func (e *Engine) newResultRel(outer, inner *storage.Relation) (*storage.Relation, error) {
	cols := make([]string, 0, len(outer.Cols)+len(inner.Cols))
	for _, c := range outer.Cols {
		cols = append(cols, "o."+c)
	}
	for _, c := range inner.Cols {
		cols = append(cols, "i."+c)
	}
	tpp := outer.TuplesPerPage
	if inner.TuplesPerPage < tpp {
		tpp = inner.TuplesPerPage
	}
	return e.store.NewTemp("join", cols, tpp)
}

func emit(result *storage.Relation, o, i storage.Tuple) error {
	t := make(storage.Tuple, 0, len(o)+len(i))
	t = append(t, o...)
	t = append(t, i...)
	// Results bypass the pool: pipelined to the consumer, uncharged.
	return result.Append(t)
}

// --- nested loops ---------------------------------------------------------

// pageNLJoin: for each outer page, scan the inner. The pool's LRU makes an
// inner that fits in memory resident after the first pass; a larger inner
// floods the cache and pays the rescan product.
//
// The formula's cheap case keys on S = min(|A|,|B|): it assumes the
// *smaller* side can be made resident. An outer smaller than the inner
// with M ∈ [outer+2, inner+2) therefore takes the pinned path below — the
// residency fix for the historical miscalibration where that window paid
// a rescan product the model never charged (observed up to 9.35x
// measured/model on the serving agreement corpus; size feedback cannot
// help because both inputs are base tables with exact sizes). When
// nothing fits, the plan's outer drives, so the expensive case realizes
// the formula's |A| + |A|·|B| exactly. Output rows are in the outer's
// order and keep (outer, inner) column orientation on both paths.
func (e *Engine) pageNLJoin(pool *buffer.Pool, outer, inner *storage.Relation, oc, ic int, result *storage.Relation) error {
	if outer.NumPages() < inner.NumPages() && outer.NumPages()+2 <= pool.Capacity() {
		return e.pageNLJoinPinned(pool, outer, inner, oc, ic, result)
	}
	for op := 0; op < outer.NumPages(); op++ {
		opage, err := pool.Read(outer.Name, op)
		if err != nil {
			return err
		}
		for ip := 0; ip < inner.NumPages(); ip++ {
			ipage, err := pool.Read(inner.Name, ip)
			if err != nil {
				return err
			}
			for _, ot := range opage {
				for _, it := range ipage {
					if ot[oc] == it[ic] {
						if err := emit(result, ot, it); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	return nil
}

// pageNLJoinPinned realizes the cheap case with a small resident outer:
// the outer is read once (it fits the pool by the caller's check), the
// inner streams once — |A|+|B| physical reads — and matches are buffered
// per outer tuple so the output keeps the *outer's* row order. The order
// matters for correctness, not just accounting: the optimizer's order
// propagation says nested loops preserve the outer's order (dp.go
// joinOutput), and an index-ordered outer may be satisfying the
// query's ORDER BY with no sort enforcer above.
func (e *Engine) pageNLJoinPinned(pool *buffer.Pool, outer, inner *storage.Relation, oc, ic int, result *storage.Relation) error {
	var outerTuples []storage.Tuple
	byKey := make(map[int64][]int)
	for op := 0; op < outer.NumPages(); op++ {
		opage, err := pool.Read(outer.Name, op)
		if err != nil {
			return err
		}
		for _, ot := range opage {
			byKey[ot[oc]] = append(byKey[ot[oc]], len(outerTuples))
			outerTuples = append(outerTuples, ot)
		}
	}
	matches := make([][]storage.Tuple, len(outerTuples))
	for ip := 0; ip < inner.NumPages(); ip++ {
		ipage, err := pool.Read(inner.Name, ip)
		if err != nil {
			return err
		}
		for _, it := range ipage {
			for _, pos := range byKey[it[ic]] {
				matches[pos] = append(matches[pos], it)
			}
		}
	}
	for pos, ot := range outerTuples {
		for _, it := range matches[pos] {
			if err := emit(result, ot, it); err != nil {
				return err
			}
		}
	}
	return nil
}

// blockNLJoin reads blocks of M-2 outer pages, then scans the inner once
// per block: |A| + ⌈|A|/(M-2)⌉·|B| by construction. Matches are buffered
// per outer tuple within each block so the output keeps the outer's row
// order — the property the optimizer's order propagation assigns to
// nested loops (dp.go joinOutput), which an index-ordered outer may
// be relying on to satisfy the query's ORDER BY without a sort.
func (e *Engine) blockNLJoin(pool *buffer.Pool, outer, inner *storage.Relation, oc, ic int, result *storage.Relation) error {
	blockPages := pool.Capacity() - 2
	if blockPages < 1 {
		blockPages = 1
	}
	for start := 0; start < outer.NumPages(); start += blockPages {
		end := start + blockPages
		if end > outer.NumPages() {
			end = outer.NumPages()
		}
		// Build an in-memory hash table over the block, keeping the
		// block's tuples in arrival order.
		var blockTuples []storage.Tuple
		byKey := make(map[int64][]int)
		for op := start; op < end; op++ {
			opage, err := pool.Read(outer.Name, op)
			if err != nil {
				return err
			}
			for _, ot := range opage {
				byKey[ot[oc]] = append(byKey[ot[oc]], len(blockTuples))
				blockTuples = append(blockTuples, ot)
			}
		}
		matches := make([][]storage.Tuple, len(blockTuples))
		for ip := 0; ip < inner.NumPages(); ip++ {
			ipage, err := pool.Read(inner.Name, ip)
			if err != nil {
				return err
			}
			for _, it := range ipage {
				for _, pos := range byKey[it[ic]] {
					matches[pos] = append(matches[pos], it)
				}
			}
		}
		for pos, ot := range blockTuples {
			for _, it := range matches[pos] {
				if err := emit(result, ot, it); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// --- external sort --------------------------------------------------------

// makeRuns splits rel into sorted runs of up to mem pages, written through
// the pool (charged). Returns the run relations.
func (e *Engine) makeRuns(pool *buffer.Pool, rel *storage.Relation, col int) ([]*storage.Relation, error) {
	var runs []*storage.Relation
	capPages := pool.Capacity()
	for start := 0; start < rel.NumPages(); start += capPages {
		end := start + capPages
		if end > rel.NumPages() {
			end = rel.NumPages()
		}
		var buf []storage.Tuple
		for p := start; p < end; p++ {
			page, err := pool.Read(rel.Name, p)
			if err != nil {
				return nil, err
			}
			buf = append(buf, page...)
		}
		sort.SliceStable(buf, func(i, j int) bool { return buf[i][col] < buf[j][col] })
		run, err := e.store.NewTemp("run", rel.Cols, rel.TuplesPerPage)
		if err != nil {
			return nil, err
		}
		if err := writePages(pool, run, buf); err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// writePages flushes tuples into rel as full pages through the pool.
func writePages(pool *buffer.Pool, rel *storage.Relation, tuples []storage.Tuple) error {
	tpp := rel.TuplesPerPage
	for start := 0; start < len(tuples); start += tpp {
		end := start + tpp
		if end > len(tuples) {
			end = len(tuples)
		}
		if err := pool.AppendPage(rel.Name, tuples[start:end]); err != nil {
			return err
		}
	}
	return nil
}

// runCursor streams a sorted run page by page through the pool.
type runCursor struct {
	pool *buffer.Pool
	rel  *storage.Relation
	page int
	pos  int
	cur  []storage.Tuple
}

func newRunCursor(pool *buffer.Pool, rel *storage.Relation) *runCursor {
	return &runCursor{pool: pool, rel: rel}
}

// peek returns the current tuple without advancing, or nil at EOF.
func (c *runCursor) peek() (storage.Tuple, error) {
	for c.cur == nil || c.pos >= len(c.cur) {
		if c.page >= c.rel.NumPages() {
			return nil, nil
		}
		page, err := c.pool.Read(c.rel.Name, c.page)
		if err != nil {
			return nil, err
		}
		c.cur = page
		c.pos = 0
		c.page++
	}
	return c.cur[c.pos], nil
}

func (c *runCursor) next() (storage.Tuple, error) {
	t, err := c.peek()
	if err != nil || t == nil {
		return t, err
	}
	c.pos++
	return t, nil
}

// mergeRuns merges sorted runs until at most maxRuns remain, with merge
// fan-in M-1. Each step merges only as many runs as needed to close the
// gap (merging k runs reduces the count by k-1), so memory increases can
// never increase total merge I/O. Intermediate merged runs are written
// through the pool (charged). The shortest runs merge first, the classic
// polyphase-style policy that minimizes pages rewritten.
func (e *Engine) mergeRuns(pool *buffer.Pool, runs []*storage.Relation, col int, maxRuns int) ([]*storage.Relation, error) {
	fanIn := pool.Capacity() - 1
	if fanIn < 2 {
		fanIn = 2
	}
	if maxRuns < 1 {
		maxRuns = 1
	}
	for len(runs) > maxRuns {
		k := len(runs) - maxRuns + 1
		if k > fanIn {
			k = fanIn
		}
		sortRunsByPages(runs)
		group := runs[:k]
		merged, err := e.store.NewTemp("merge", group[0].Cols, group[0].TuplesPerPage)
		if err != nil {
			return nil, err
		}
		w := &pageWriter{pool: pool, rel: merged}
		if err := e.mergeInto(pool, group, col, w.add); err != nil {
			return nil, err
		}
		if err := w.flush(); err != nil {
			return nil, err
		}
		for _, g := range group {
			pool.Invalidate(g.Name)
			e.store.Drop(g.Name)
		}
		runs = append(runs[k:], merged)
	}
	return runs, nil
}

// sortRunsByPages orders runs ascending by size (insertion sort: run
// counts are small).
func sortRunsByPages(runs []*storage.Relation) {
	for i := 1; i < len(runs); i++ {
		for j := i; j > 0 && runs[j].NumPages() < runs[j-1].NumPages(); j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}
}

// pageWriter batches tuples into full pages written through the pool
// (each flushed page is one charged write).
type pageWriter struct {
	pool *buffer.Pool
	rel  *storage.Relation
	buf  []storage.Tuple
}

func (w *pageWriter) add(t storage.Tuple) error {
	w.buf = append(w.buf, t)
	if len(w.buf) >= w.rel.TuplesPerPage {
		return w.flush()
	}
	return nil
}

func (w *pageWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	err := w.pool.AppendPage(w.rel.Name, w.buf)
	w.buf = w.buf[:0]
	return err
}

// mergeInto k-way merges the runs on col, invoking out per tuple in order.
func (e *Engine) mergeInto(pool *buffer.Pool, runs []*storage.Relation, col int, out func(storage.Tuple) error) error {
	cursors := make([]*runCursor, len(runs))
	for i, r := range runs {
		cursors[i] = newRunCursor(pool, r)
	}
	for {
		bestIdx := -1
		var bestTuple storage.Tuple
		for i, c := range cursors {
			t, err := c.peek()
			if err != nil {
				return err
			}
			if t == nil {
				continue
			}
			if bestIdx < 0 || t[col] < bestTuple[col] {
				bestIdx, bestTuple = i, t
			}
		}
		if bestIdx < 0 {
			return nil
		}
		if _, err := cursors[bestIdx].next(); err != nil {
			return err
		}
		if err := out(bestTuple); err != nil {
			return err
		}
	}
}

// SortRelation externally sorts a stored relation on col with a fresh pool
// of mem pages, returning the materialized sorted relation (final output
// uncharged — pipelined) and the I/O incurred.
func (e *Engine) SortRelation(name, col string, mem int) (*storage.Relation, buffer.Stats, error) {
	if mem < 3 {
		return nil, buffer.Stats{}, fmt.Errorf("%w: %d pages", ErrBadMemory, mem)
	}
	rel, err := e.store.Get(name)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	ci, err := rel.ColIndex(col)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	pool, err := buffer.NewPool(e.store, mem)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	out, err := e.store.NewTemp("sorted", rel.Cols, rel.TuplesPerPage)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	runs, err := e.makeRuns(pool, rel, ci)
	if err != nil {
		return nil, pool.Stats(), err
	}
	fanIn := mem - 1
	if fanIn < 2 {
		fanIn = 2
	}
	runs, err = e.mergeRuns(pool, runs, ci, fanIn)
	if err != nil {
		return nil, pool.Stats(), err
	}
	// Final merge pipelines into the materialized output (uncharged).
	err = e.mergeInto(pool, runs, ci, func(t storage.Tuple) error {
		return out.Append(t)
	})
	if err != nil {
		return nil, pool.Stats(), err
	}
	for _, r := range runs {
		pool.Invalidate(r.Name)
		e.store.Drop(r.Name)
	}
	return out, pool.Stats(), nil
}

// Scan reads a relation fully through a fresh pool, returning the tuple
// count and I/O (exactly NumPages reads).
func (e *Engine) Scan(name string, mem int) (int, buffer.Stats, error) {
	rel, err := e.store.Get(name)
	if err != nil {
		return 0, buffer.Stats{}, err
	}
	pool, err := buffer.NewPool(e.store, mem)
	if err != nil {
		return 0, buffer.Stats{}, err
	}
	n := 0
	for p := 0; p < rel.NumPages(); p++ {
		page, err := pool.Read(name, p)
		if err != nil {
			return 0, pool.Stats(), err
		}
		n += len(page)
	}
	return n, pool.Stats(), nil
}
