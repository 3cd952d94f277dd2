// Command perfbench is the repository's benchmark. It drives the public
// lecopt.Optimizer handle with one of three closed-loop workloads and
// prints every metric by name with its unit, then one JSON result line:
//
//	perfbench --workload hit-heavy --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays each
// request's module calls inside spans and reports the per-layer metrics.
// BENCHMARK.json at the repository root records why each workload and
// metric was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
}

// setupRuns is how many times an untraced run sets its workload up at
// least; setup_s is the median. A timed phase shorter than a second is a
// smoke run and sets up once.
const setupRuns = 5

func (c config) setups() int {
	if c.seconds < 1 {
		return 1
	}
	return setupRuns
}

// outcome is one run's result: the request counts, the metric values and
// the run record printed and stored with them.
type outcome struct {
	attempted, failed int64
	correct           bool
	values            map[string]float64
	record            [][2]string
}

func (o *outcome) note(key string, value any) {
	o.record = append(o.record, [2]string{key, fmt.Sprint(value)})
}

type workloadFunc func(cfg config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"hit-heavy":      func(cfg config) (*outcome, error) { return runOpt(hitHeavy, cfg) },
	"miss-heavy":     func(cfg config) (*outcome, error) { return runOpt(missHeavy, cfg) },
	"serve-feedback": runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "hit-heavy, miss-heavy or serve-feedback")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the request stream")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", "", "directory for the result record and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	cfg.traced = trace == 1
	o, err := wf(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(o, cfg, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the run record and every metric of the run's kind, one
// per line, then the JSON result as the last line, and stores both.
func report(o *outcome, cfg config, w io.Writer) error {
	specs := endToEnd
	if cfg.traced {
		specs = make([]metricSpec, len(perLayer))
		for i, l := range perLayer {
			specs[i] = l.metricSpec
		}
	}
	res := jsonResult{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
	for _, s := range specs {
		v, ok := o.values[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.name, v)
		}
		res.Metrics[s.name] = jsonMetric{Value: v, Unit: s.unit}
	}
	record := append([][2]string{
		{"workload", cfg.workload},
		{"seed", fmt.Sprint(cfg.seed)},
		{"held_out_seed", fmt.Sprint(heldOutSeed)},
		{"data_seed", fmt.Sprint(dataSeed)},
		{"run_seconds", fmt.Sprint(cfg.seconds)},
		{"trace", fmt.Sprint(cfg.traced)},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"go_version", runtime.Version()},
		{"cpu_model", cpuModel()},
	}, o.record...)
	for _, kv := range record {
		fmt.Fprintf(w, "# %s: %s\n", kv[0], kv[1])
	}
	for _, s := range specs {
		fmt.Fprintf(w, "%-26s %16.6g %s\n", s.name, res.Metrics[s.name].Value, s.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if cfg.outDir != "" {
		rec := make(map[string]string, len(record))
		for _, kv := range record {
			rec[kv[0]] = kv[1]
		}
		stored, err := json.MarshalIndent(struct {
			Record map[string]string `json:"record"`
			Result jsonResult        `json:"result"`
		}{rec, res}, "", "  ")
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, boolInt(cfg.traced))
		if err := os.WriteFile(filepath.Join(cfg.outDir, name), append(stored, '\n'), 0o644); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// spanPath is where a traced run writes its spans, or "" for none.
func spanPath(cfg config) string {
	if cfg.outDir == "" {
		return ""
	}
	return filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.tsv", cfg.workload, cfg.seed))
}
