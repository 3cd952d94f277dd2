package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a latency tail may be reported at,
// ascending. tailPercentile picks the highest one the sample supports.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder with at
// least minBeyond of n samples beyond it, or 0 when not even the median
// has that many.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rank(p/100, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// small tolerance keeps q*n from rounding up past a whole rank
// (0.999*10000 is 9990.000000000002 in floating point).
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// quantile returns the nearest-rank q-quantile (q in [0,1]) of an
// ascending sample, or 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := rank(q, len(sorted)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts xs in place and returns its median (0 when empty).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reservoir keeps a uniform random sample of at most limit latencies
// (Vitter's algorithm R), so a run of millions of requests keeps a
// bounded, unbiased sample for its percentiles. The replacement choice
// uses its own xorshift state: it never touches the workload's inputs.
type reservoir struct {
	xs    []float64 // microseconds
	limit int
	seen  int64
	state uint64
}

func newReservoir(limit int, seed uint64) *reservoir {
	return &reservoir{limit: limit, state: seed | 1}
}

func (r *reservoir) add(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	r.seen++
	if len(r.xs) < r.limit {
		r.xs = append(r.xs, us)
		return
	}
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	if j := r.state % uint64(r.seen); j < uint64(len(r.xs)) {
		r.xs[j] = us
	}
}

// timeline books each request into the interval of program time in
// which it ended: a count, a latency reservoir and the wall times of the
// first and last end per interval. Program time runs only while the
// program works on a caller's requests and stands still while the
// benchmark does its own bookkeeping and checks, so the benchmark's work
// shows in no timed figure.
type timeline struct {
	width       time.Duration
	counts      []int64
	lats        []*reservoir
	first, last []time.Time
	cap         int
	seed        uint64
}

// interval is the width of one timeline interval.
const interval = time.Second

func newTimeline(capacity int, seed uint64) *timeline {
	return &timeline{width: interval, cap: capacity, seed: seed}
}

// add books a request of latency d that ended at program time at and at
// wall time end.
func (tl *timeline) add(at, d time.Duration, end time.Time) {
	k := int(at / tl.width)
	for len(tl.counts) <= k {
		tl.counts = append(tl.counts, 0)
		tl.lats = append(tl.lats, newReservoir(tl.cap, tl.seed+uint64(len(tl.lats))))
		tl.first = append(tl.first, end)
		tl.last = append(tl.last, end)
	}
	tl.counts[k]++
	tl.lats[k].add(d)
	tl.last[k] = end
}

// latencySummary reports the request rate and each interval's p50 and
// p99 latency as medians over the quiet full intervals, with the whole
// phase's p50 and p99 and the samples they rest on.
type latencySummary struct {
	rate         float64 // requests per second of program time, median over intervals
	p50, p99     float64 // microseconds, median over intervals
	allP50       float64 // over every kept sample of the phase
	allP99       float64
	samples      int
	timed        int64   // requests timed, of which samples were kept
	intervals    int     // full intervals
	quiet        int     // of which the medians use
	minIntervalN int     // fewest samples any full interval's percentiles rest on
	tail         float64 // highest percentile the fewest samples support
	rates        []float64
	p50s, p99s   []float64
	steal        []float64 // share of a CPU stolen from the host in each
}

// summarize merges the callers' timelines over the first full intervals
// (the phase's last, partial interval is left out). The medians use the
// quiet intervals: those in which the hypervisor took no more CPU time
// from the machine than in the median interval. Stolen time lengthens
// whatever request is running, and it comes in episodes of seconds that
// differ from run to run, so the quiet intervals measure the program and
// the rest mostly the host's other guests. A phase shorter than one
// interval is summarized whole, its rate over callerBusy, the program
// time of one caller.
func summarize(tls []*timeline, full int, callerBusy time.Duration, m *memSampler) latencySummary {
	var all []float64
	var sum latencySummary
	for k := 0; ; k++ {
		var xs []float64
		var n int64
		var first, last time.Time
		any := false
		for _, tl := range tls {
			if k >= len(tl.counts) {
				continue
			}
			if !any || tl.first[k].Before(first) {
				first = tl.first[k]
			}
			if !any || tl.last[k].After(last) {
				last = tl.last[k]
			}
			any = true
			n += tl.counts[k]
			xs = append(xs, tl.lats[k].xs...)
		}
		if !any {
			break
		}
		all = append(all, xs...)
		sum.timed += n
		if k >= full {
			continue
		}
		sort.Float64s(xs)
		sum.rates = append(sum.rates, float64(n)/interval.Seconds())
		sum.p50s = append(sum.p50s, quantile(xs, 0.5))
		sum.p99s = append(sum.p99s, quantile(xs, 0.99))
		sum.steal = append(sum.steal, m.stealShare(first, last))
		if k == 0 || len(xs) < sum.minIntervalN {
			sum.minIntervalN = len(xs)
		}
	}
	sort.Float64s(all)
	sum.allP50, sum.allP99 = quantile(all, 0.5), quantile(all, 0.99)
	sum.samples = len(all)
	sum.intervals = len(sum.rates)
	limit := median(append([]float64(nil), sum.steal...))
	var rates, p50s, p99s []float64
	for k, st := range sum.steal {
		if st <= limit {
			rates = append(rates, sum.rates[k])
			p50s = append(p50s, sum.p50s[k])
			p99s = append(p99s, sum.p99s[k])
		}
	}
	sum.quiet = len(rates)
	sum.rate, sum.p50, sum.p99 = median(rates), median(p50s), median(p99s)
	if len(rates) == 0 {
		sum.rate = ratio(float64(sum.timed), callerBusy.Seconds())
		sum.p50, sum.p99 = sum.allP50, sum.allP99
		sum.minIntervalN = sum.samples
	}
	sum.tail = tailPercentile(max(sum.minIntervalN, 0))
	return sum
}

// fullIntervals is how many whole intervals fit in program time busy.
func fullIntervals(busy time.Duration) int {
	return int(busy / interval)
}
