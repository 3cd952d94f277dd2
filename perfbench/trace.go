package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// layer names one span kind: a benchmark-side call into one module's
// public function, or a grouping span (request, window).
type layer uint8

const (
	lRequest layer = iota
	lWindow
	lParse
	lCanonical
	lKey
	lProbe
	lDP
	lLSCDP
	lLSCRef
	lClone
	lPut
	lOptimize
	lBatch
	lSample
	lExec
	lDrop
	lObserve
	nLayers
)

var layerNames = [nLayers]string{
	lRequest:   "request",
	lWindow:    "window",
	lParse:     "sqlmini.ParseAndValidate",
	lCanonical: "query.Block.Canonical",
	lKey:       "core.Scenario.AppendCacheKey",
	lProbe:     "plancache.Cache.ProbeBytes",
	lDP:        "optimizer.AlgorithmC",
	lLSCDP:     "optimizer.LSC",
	lLSCRef:    "optimizer.LSC",
	lClone:     "plan.Node.Clone",
	lPut:       "plancache.Cache.Put",
	lOptimize:  "lecopt.Optimizer.Optimize",
	lBatch:     "lecopt.Optimizer.OptimizeBatch",
	lSample:    "envsim.Env.Sample",
	lExec:      "engine.Engine.ExecutePlan",
	lDrop:      "storage.Store.Drop",
	lObserve:   "lecopt.Optimizer.Observe",
}

// span is one timed call. Times are nanoseconds since the tracer's base;
// parent indexes the same tracer's spans (-1 for a root).
type span struct {
	start, end int64
	req        uint32
	parent     int32
	name       layer
}

// tracer records the spans of one caller in memory. Once fewer than
// reserve slots are left, new roots (and their children) go to a scratch
// slot, so every request pays the same tracing cost whether or not its
// spans are kept.
type tracer struct {
	base    time.Time
	spans   []span
	reserve int
	keep    bool
	scratch span
}

func newTracer(base time.Time, limit, reserve int) *tracer {
	return &tracer{base: base, spans: make([]span, 0, limit), reserve: reserve}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// root opens a root span and decides whether this request's spans are
// kept. Like begin and end it does nothing on a nil tracer, so untraced
// runs share the traced code path.
func (t *tracer) root(name layer, req uint32) int32 {
	if t == nil {
		return -1
	}
	t.keep = len(t.spans)+t.reserve <= cap(t.spans)
	return t.begin(name, req, -1)
}

func (t *tracer) begin(name layer, req uint32, parent int32) int32 {
	if t == nil {
		return -1
	}
	s := span{start: t.now(), end: -1, req: req, parent: parent, name: name}
	if !t.keep || len(t.spans) == cap(t.spans) {
		t.scratch = s
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// end closes span i and returns its duration.
func (t *tracer) end(i int32) time.Duration {
	if t == nil {
		return 0
	}
	now := t.now()
	if i < 0 {
		t.scratch.end = now
		return time.Duration(now - t.scratch.start)
	}
	t.spans[i].end = now
	return time.Duration(now - t.spans[i].start)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by the union of its children's intervals. Children
// may overlap each other (pool workers) or stick out of the parent; only
// the covered part inside the parent counts once.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		iv := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		for j, v := range iv {
			if j == 0 || v[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
				continue
			}
			curHi = max(curHi, v[1])
		}
		covered += curHi - curLo
		self[i] -= covered
	}
	return self
}

// layerTimes collects the self times, in microseconds, of every kept
// span of each layer across the tracers.
func layerTimes(ts []*tracer) [nLayers][]float64 {
	var out [nLayers][]float64
	for _, t := range ts {
		if t == nil {
			continue
		}
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			out[s.name] = append(out[s.name], float64(self[i])/1e3)
		}
	}
	return out
}

// overheadPerRequest returns, for each kept handle span (Optimize or
// OptimizeBatch), the handle's duration minus the durations of the layer
// spans of the same request IDs, divided by the requests the handle
// call served — the time the handle spends outside the layers the
// benchmark replays. The replayed plan.Node.Clone is not subtracted: the
// optimizer already returns a clone out of its arena, so the handle
// makes no clone of its own and the optimizer span covers that one.
func overheadPerRequest(ts []*tracer) []float64 {
	var out []float64
	for _, t := range ts {
		if t == nil {
			continue
		}
		type acc struct {
			handle, layers int64
			n              int
			seen           bool
		}
		byParent := make(map[int32]*acc)
		get := func(p int32) *acc {
			a := byParent[p]
			if a == nil {
				a = &acc{}
				byParent[p] = a
			}
			return a
		}
		for _, s := range t.spans {
			d := s.end - s.start
			switch s.name {
			case lOptimize, lBatch:
				a := get(s.parent)
				a.handle += d
				a.seen = true
			case lParse, lCanonical, lKey, lProbe, lDP, lLSCDP, lPut:
				get(s.parent).layers += d
			case lRequest:
				if s.parent >= 0 {
					get(s.parent).n++
				}
			}
		}
		keys := make([]int32, 0, len(byParent))
		for k := range byParent {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		for _, k := range keys {
			a := byParent[k]
			if !a.seen {
				continue
			}
			n := max(a.n, 1)
			out = append(out, float64(a.handle-a.layers)/float64(n)/1e3)
		}
	}
	return out
}

// writeSpans writes every kept span as one tab-separated line: span ID,
// parent ID (-1 for roots), request ID, layer, start and end in
// nanoseconds since the run's base time.
func writeSpans(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span\tparent\trequest\tlayer\tstart_ns\tend_ns")
	offset := 0
	for _, t := range ts {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = int64(offset) + int64(s.parent)
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", offset+i, parent, s.req, layerNames[s.name], s.start, s.end)
		}
		offset += len(t.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
