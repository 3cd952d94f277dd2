package optimizer

import (
	"sort"
)

// TopCCombine implements the Proposition 3.1 frontier. Given two lists of
// candidate scores, each sorted ascending, the combined plan (i, k) costs
// left[i] + right[k] (plus a constant that cancels), and (i, k) is
// dominated by every (i', k') with i' ≤ i, k' ≤ k. The proposition shows
// the true top-c combinations all satisfy (i+1)·(k+1) ≤ c (1-based ranks),
// so at most c + c·ln c pairs need probing.
//
// Returns the top-c pairs as index tuples ordered by combined score (ties
// by (k, i) for determinism), and the number of pairs probed.
func TopCCombine(left, right []float64, c int) (pairs [][2]int, probes int) {
	if c <= 0 || len(left) == 0 || len(right) == 0 {
		return nil, 0
	}
	type cand struct {
		score float64
		i, k  int
	}
	var cands []cand
	for k := 0; k < len(right) && k < c; k++ {
		// 1-based ranks: probe i while (i+1)(k+1) ≤ c.
		iMax := c/(k+1) - 1
		if iMax >= len(left) {
			iMax = len(left) - 1
		}
		for i := 0; i <= iMax; i++ {
			cands = append(cands, cand{left[i] + right[k], i, k})
			probes++
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score < cands[b].score
		}
		if cands[a].k != cands[b].k {
			return cands[a].k < cands[b].k
		}
		return cands[a].i < cands[b].i
	})
	if len(cands) > c {
		cands = cands[:c]
	}
	pairs = make([][2]int, len(cands))
	for idx, cd := range cands {
		pairs[idx] = [2]int{cd.i, cd.k}
	}
	return pairs, probes
}

// topList is a bounded ascending list of entries used by the top-c DP.
type topList struct {
	cap     int
	entries []entry
}

func newTopList(c int) *topList { return &topList{cap: c} }

// add inserts e keeping the list sorted ascending by score (signature
// tie-break) and bounded at cap. Duplicate signatures keep the cheaper.
func (l *topList) add(e entry) {
	sig := e.node.Signature()
	for i, cur := range l.entries {
		if cur.node.Signature() == sig {
			if e.score < cur.score {
				l.entries[i] = e
				l.resort()
			}
			return
		}
	}
	l.entries = append(l.entries, e)
	l.resort()
	if len(l.entries) > l.cap {
		l.entries = l.entries[:l.cap]
	}
}

func (l *topList) resort() {
	sort.Slice(l.entries, func(a, b int) bool {
		return better(l.entries[a].score, l.entries[a].node, l.entries[b].score, l.entries[b].node)
	})
}

// scores returns the ascending score slice (for TopCCombine).
func (l *topList) scores() []float64 {
	out := make([]float64, len(l.entries))
	for i, e := range l.entries {
		out[i] = e.score
	}
	return out
}
