package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"lecopt/internal/core"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90},
		{999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
		{100000, 99.99}, {1000000, 99.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(xs, 0.5); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := quantile(xs, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestSummarizeUsesQuietIntervals checks that the medians skip the
// intervals in which the host stole CPU time from the machine.
func TestSummarizeUsesQuietIntervals(t *testing.T) {
	base := time.Now()
	at := func(s float64) time.Time { return base.Add(time.Duration(s * float64(time.Second))) }
	m := &memSampler{}
	stolen := 0.0
	for i := 0; i <= 10; i++ {
		s := float64(i) / 2
		if prev := s - 0.5; (prev >= 1 && prev < 2) || (prev >= 3 && prev < 4) {
			stolen += 0.4 // intervals 1 and 3 lose 80% of a CPU
		}
		m.at = append(m.at, at(s))
		m.steal = append(m.steal, stolen)
	}
	tl := newTimeline(100, 1)
	for k := 0; k < 5; k++ { // interval 4 stays partial
		lat := 100 * time.Microsecond
		if k%2 == 1 {
			lat = 1000 * time.Microsecond
		}
		for j := 1; j <= 10+k; j++ {
			end := float64(k) + float64(j)/100
			tl.add(time.Duration(end*float64(time.Second)), lat, at(end))
		}
	}
	sum := summarize([]*timeline{tl}, 4, 0, m)
	if sum.intervals != 4 || sum.quiet != 2 {
		t.Fatalf("intervals %d, quiet %d; want 4 and 2 (steal %v)", sum.intervals, sum.quiet, sum.steal)
	}
	if sum.p50 != 100 || sum.p99 != 100 || sum.rate != 10 {
		t.Errorf("p50 %v p99 %v rate %v; want 100, 100 and 10 from intervals 0 and 2", sum.p50, sum.p99, sum.rate)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root
		{start: 10, end: 40, parent: 0},    // 1
		{start: 30, end: 60, parent: 0},    // 2 overlaps 1
		{start: 90, end: 120, parent: 0},   // 3 sticks out of the root
		{start: 35, end: 38, parent: 2},    // 4 inside 2
		{start: 200, end: 210, parent: -1}, // 5: root without children
	}
	got := selfTimes(spans)
	// Root: children cover [10,60] and [90,100], 60 of its 100.
	want := []int64{40, 30, 27, 30, 3, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestVerifyRejectsForeignHit checks the hit check: a hit that serves
// the plan computed for its own request passes, one that serves another
// template's plan fails even though that plan re-optimizes exactly.
func TestVerifyRejectsForeignHit(t *testing.T) {
	ds, err := buildHit(1)
	if err != nil {
		t.Fatal(err)
	}
	d := ds.(*hitData)
	req := func(ti int) item {
		tm := &d.tmpl[ti]
		return item{blk: tm.blk, cat: tm.cats[2], env: tm.env, alg: core.AlgC}
	}
	own, other := req(0), req(5)
	rep, err := own.scenario().Optimize(core.AlgC)
	if err != nil {
		t.Fatal(err)
	}
	orig := newOrigins()
	orig.put(rep.Plan, own)
	if f, _, _ := verify([]check{{it: own, rep: rep, hit: true}}, orig); f != 0 {
		t.Errorf("own hit: %d failures, want 0", f)
	}
	if f, _, _ := verify([]check{{it: other, rep: rep, hit: true}}, orig); f != 1 {
		t.Errorf("foreign hit: %d failures, want 1", f)
	}
}

func TestTracerKeepsWholeRequests(t *testing.T) {
	tr := newTracer(time.Now(), 5, 3)
	for req := uint32(0); req < 3; req++ {
		r := tr.root(lRequest, req)
		tr.end(tr.begin(lKey, req, r))
		tr.end(r)
	}
	// Two requests of two spans fit; the third would leave fewer than
	// the reserve and goes to scratch.
	if len(tr.spans) != 4 {
		t.Fatalf("kept %d spans, want 4", len(tr.spans))
	}
	var none *tracer
	if none.root(lRequest, 1) != -1 || none.end(-1) != 0 {
		t.Error("a nil tracer must do nothing")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	all := append([]metricSpec(nil), endToEnd...)
	for _, l := range perLayer {
		all = append(all, l.metricSpec)
		if l.moves == "" || l.on == "" {
			t.Errorf("per-layer metric %s does not say what it should move, on which workload", l.name)
		}
		if _, ok := workloads[l.on]; !ok && l.on != "all" {
			t.Errorf("per-layer metric %s names workload %q", l.name, l.on)
		}
	}
	for _, s := range all {
		if !nameRE.MatchString(s.name) {
			t.Errorf("metric name %q does not match %s", s.name, nameRE)
		}
		if !unitRE.MatchString(s.unit) {
			t.Errorf("unit %q of %s does not match %s", s.unit, s.name, unitRE)
		}
		if seen[s.name] {
			t.Errorf("metric %s is listed twice", s.name)
		}
		seen[s.name] = true
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "command end_to_end paths per_layer run_seconds workloads"; strings.Join(got, " ") != want {
		t.Errorf("BENCHMARK.json keys %v, want %s", got, want)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the program has %s", names, workloadNames())
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmokeEveryWorkload runs every workload briefly, untraced and
// traced, and checks that the last output line is a correct result
// carrying every metric BENCHMARK.json names, with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.2", "--trace", trace}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res jsonResult
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
					}
					if !strings.Contains(out.String(), name) {
						t.Errorf("metric %s is not printed by name", name)
					}
				}
			})
		}
	}
}
