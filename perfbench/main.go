// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the real entry points (the harness behind
// `bsbench -exp paper`, and an in-process bsimd reached over loopback
// HTTP), checks every output, and prints every metric by name and unit.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper|serve-hot|serve-cold \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md for the metric, layer and workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// params sizes the workloads. defaultParams is the benchmark; tests use a
// tiny copy.
type params struct {
	setups     int // set-ups per run; setup_s is their median
	coldSetups int // serve-cold's set-up is only a server start: take more

	paperScale float64
	goldenFile string // relative to the root; "" skips the golden check

	hotScale     float64
	hotRate      float64 // open-loop arrivals per second
	hotCapacity  float64 // closed-loop req/s used to size the closed phase
	hotOpenShare float64 // share of --seconds given to the open loop

	coldScale    float64
	coldCapacity float64 // closed-loop req/s used to size the run

	clients     int     // senders, connections and closed-loop callers
	lateLimitMs float64 // open-loop p99 generator lateness that voids a run
}

func defaultParams() params {
	return params{
		setups:       3,
		coldSetups:   21,
		paperScale:   1.0,
		goldenFile:   "bench_results.txt",
		hotScale:     0.05,
		hotRate:      14,
		hotCapacity:  40,
		hotOpenShare: 0.4,
		coldScale:    0.02,
		coldCapacity: 12,
		clients:      runtime.NumCPU(),
		lateLimitMs:  50,
	}
}

// runCtx is one run's settings and tracing state.
type runCtx struct {
	p        params
	workload string
	seed     int64
	seconds  int
	root     string // repository root
	work     string // scratch directory for stores, removed after the run
	tr       *tracer
	rootSpan int
}

var workloads = map[string]func(*runCtx) (*outcome, error){
	"paper":      runPaper,
	"serve-hot":  func(rc *runCtx) (*outcome, error) { return runServe(rc, true) },
	"serve-cold": func(rc *runCtx) (*outcome, error) { return runServe(rc, false) },
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "paper, serve-hot or serve-cold")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "repository root")
	outDir := fs.String("out", ".bench_build/perfbench-out", "directory for span dumps and reports")
	loadgen := fs.String("loadgen", "", "internal: run as the load generator for this plan file")
	loadgenOut := fs.String("loadgen-out", "", "internal: where the load generator writes its samples")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *loadgen != "" {
		if err := loadgenMain(*loadgen, *loadgenOut); err != nil {
			fmt.Fprintln(stderr, "perfbench loadgen:", err)
			return 1
		}
		return 0
	}
	if _, ok := workloads[*wl]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload paper|serve-hot|serve-cold, --seconds >= 1, --trace 0|1")
		return 2
	}
	rc := &runCtx{p: defaultParams(), workload: *wl, seed: *seed, seconds: *seconds, root: *root}
	res, err := execute(rc, *trace, *outDir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// execute runs one workload, prints the metric lines and the run stamp,
// writes the report (and, traced, the spans) under outDir, and returns the
// result the last output line carries.
func execute(rc *runCtx, trace int, outDir string, stdout io.Writer) (*result, error) {
	traced := trace == 1
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	rc.work = work
	tag := fmt.Sprintf("%s-seed%d-trace%d", rc.workload, rc.seed, trace)
	if traced {
		rc.tr = newTracer()
		rc.rootSpan = rc.tr.start(0, "bench", rc.workload, 0)
	}

	out, err := workloads[rc.workload](rc)
	if err != nil {
		return nil, err
	}
	if out.invalid != "" {
		return nil, fmt.Errorf("run not scored: %s", out.invalid)
	}

	defs, values := endToEnd, out.e2e
	if traced {
		rc.tr.end(rc.rootSpan)
		spans := rc.tr.snapshot()
		defs = perLayer
		values = mergeMetrics(mergeMetrics(libraryMetrics(spans, out.weight), paperLayerMetrics(spans)), out.layer)
		if err := rc.tr.write(filepath.Join(outDir, "spans-"+tag+".json")); err != nil {
			return nil, err
		}
	}
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
		fmt.Fprintf(stdout, "%-40s %14.4f %s\n", d.Name, values[d.Name], d.Unit)
	}
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(stdout, "%-40s %14.4f %s (%d of %d)\n", "error_rate", errRate, "ratio", out.failed, out.attempted)
	var noteKeys []string
	for k := range out.notes {
		noteKeys = append(noteKeys, k)
	}
	sort.Strings(noteKeys)
	for _, k := range noteKeys {
		b, _ := json.Marshal(out.notes[k])
		fmt.Fprintf(stdout, "note %s: %s\n", k, b)
	}
	st := newStamp(rc.root, rc.workload, rc.seed, rc.seconds, traced)
	sb, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "host %s\n", sb)

	report, err := json.MarshalIndent(map[string]any{
		"stamp": st, "result": res, "error_rate": errRate, "notes": out.notes,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "report-"+tag+".json"), report, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}
