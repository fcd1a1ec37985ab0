// Command dwmperf is the repository's benchmark: it runs one workload
// against freshly built binaries, checks every output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 12.3, "unit": "s"}, ...}}
//
// Run it through run.sh, which builds dwmserved, dwmbench and this
// benchmark program first:
//
//	bash dwmperf/run.sh --workload serve-hot --seed 1 --seconds 12 --trace 0
//
// Workloads: suite, serve-place, serve-hot. The streaming layer has no
// end-to-end workload; its traced pass (serve-stream) runs inside
// serve-hot's traced run. README.md in this directory says why each
// exists and which layer metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding dwmserved and dwmbench
	work     string // scratch directory for journals, reports, traces
	golden   string // expected dwmbench output at seed 1
	repo     string // checkout root (for the source stamp)
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, cfg *config) (*outcome, error){
	"suite":       runSuite,
	"serve-place": func(ctx context.Context, cfg *config) (*outcome, error) { return runServe(ctx, cfg, placeSpec) },
	"serve-hot": func(ctx context.Context, cfg *config) (*outcome, error) {
		return runServe(ctx, cfg, hotSpec, streamSpec)
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dwmperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: suite, serve-place or serve-hot")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 12, "intended length of the timed phase, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.bin, "bin", "", "directory holding the dwmserved and dwmbench binaries")
	fs.StringVar(&cfg.work, "work", "", "scratch directory (emptied per run)")
	fs.StringVar(&cfg.repo, "repo", ".", "checkout root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "dwmperf: unknown workload %q\n", cfg.workload)
		return 2
	case cfg.seconds < 1:
		fmt.Fprintln(stderr, "dwmperf: -seconds must be at least 1")
		return 2
	case traceFlag != 0 && traceFlag != 1:
		fmt.Fprintln(stderr, "dwmperf: -trace must be 0 or 1")
		return 2
	case cfg.bin == "" || cfg.work == "":
		fmt.Fprintln(stderr, "dwmperf: -bin and -work are required (use run.sh)")
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.golden = filepath.Join(cfg.repo, "dwmperf", "testdata", "dwmbench_seed1.txt")
	cfg.work = filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "dwmperf:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, line := range stamp(cfg) {
		fmt.Fprintln(stdout, "# "+line)
	}
	// Write back what the build and earlier runs left dirty, so that it
	// is not flushed during this run's set-up.
	syscall.Sync()
	o, err := runner(ctx, cfg)
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("interrupted: %w", ctx.Err())
	}
	if err != nil {
		fmt.Fprintf(stderr, "dwmperf: %s: %v\n", cfg.workload, err)
		return 1
	}
	res, err := buildResult(cfg, o)
	if err != nil {
		fmt.Fprintf(stderr, "dwmperf: %s: %v\n", cfg.workload, err)
		return 1
	}
	report(stdout, cfg, o, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "dwmperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// buildResult assembles the result line: every metric the mode owes,
// in BENCHMARK.json's units.
func buildResult(cfg *config, o *outcome) (*resultLine, error) {
	defs, vals := endToEnd, o.e2e
	if cfg.trace {
		defs, vals = perLayer, o.layer
	}
	res := &resultLine{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("workload did not measure %s", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("workload measured %s, which the mode does not list", name)
		}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return res, nil
}

// report prints the human-readable summary above the result line.
func report(w io.Writer, cfg *config, o *outcome, res *resultLine) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%d %s: %d attempted, %d failed\n",
		cfg.workload, cfg.seed, cfg.seconds, mode, res.Attempted, res.Failed)
	for _, n := range o.notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, p := range o.problems {
		fmt.Fprintln(w, "# FAIL "+p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "# %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
