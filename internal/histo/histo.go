// Package histo is the per-request latency histogram of BENCH_fleet.json,
// which records virtual (modeled) optimize latency through it, and the home
// of the repository's one sample-quantile rule (Quantile), shared with the
// Monte-Carlo summaries and the serving report. Values are exact (every
// observation is kept), quantiles follow Quantile, and the bucketed view is
// power-of-two, so a Summary is a pure function of the observed multiset —
// byte-identical across runs of a deterministic workload.
package histo

import (
	"math"
	"sort"
)

// Histogram accumulates observations. The zero value is ready to use. It
// is not concurrency-safe: callers observe from one goroutine (both
// benchmark modes fold results after their pipelines complete).
type Histogram struct {
	vals []float64
}

// Observe records one value. Units are the caller's (the artifacts use
// microseconds); negative values are clamped to zero so a degenerate
// timing can never corrupt the bucket layout.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	h.vals = append(h.vals, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int { return len(h.vals) }

// Bucket is one power-of-two histogram bucket: Count observations fell in
// (previous Le, Le].
type Bucket struct {
	Le    float64 `json:"le"`
	Count int     `json:"count"`
}

// Summary is the JSON form of a histogram: Quantile's quantiles plus the
// power-of-two bucket counts. The artifact unit is documented per field
// site (microseconds in BENCH_fleet.json).
type Summary struct {
	Count   int      `json:"count"`
	Mean    float64  `json:"mean"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
	Max     float64  `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Summary computes the histogram's summary. An empty histogram summarizes
// to the zero Summary.
func (h *Histogram) Summary() Summary {
	if len(h.vals) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), h.vals...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return Summary{
		Count:   len(s),
		Mean:    sum / float64(len(s)),
		P50:     Quantile(s, 0.50),
		P90:     Quantile(s, 0.90),
		P99:     Quantile(s, 0.99),
		Max:     s[len(s)-1],
		Buckets: bucketize(s),
	}
}

// Quantile returns the q-quantile of an ascending-sorted sample of n values:
// the element at 0-based index ⌊q·(n−1)⌋, the lower of the two order
// statistics that linear interpolation would blend (it is not nearest-rank,
// which picks the ⌈q·n⌉-th value). q outside [0, 1] is clamped; an empty
// sample has no quantile and yields NaN.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(q * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// bucketize counts a sorted sample into power-of-two buckets: the first
// bucket is (‑∞, 1], then (1, 2], (2, 4], … up to the bucket covering the
// maximum. Power-of-two edges keep the layout independent of the sample,
// so bucket rows are comparable across artifact generations.
func bucketize(sorted []float64) []Bucket {
	var out []Bucket
	le, i := 1.0, 0
	for i < len(sorted) {
		n := 0
		for i < len(sorted) && sorted[i] <= le {
			n++
			i++
		}
		if n > 0 || len(out) > 0 {
			out = append(out, Bucket{Le: le, Count: n})
		}
		if i < len(sorted) {
			le *= 2
		}
	}
	return out
}
