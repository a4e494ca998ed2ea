// Command perfbench is the repository benchmark. It builds the RoVista
// system in-process from its packages and runs one named workload per
// invocation, so each workload's memory and GC state belong to it alone:
//
//	perfbench --workload stream-400|days-10k|reads-10k --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 it runs the same workload with spans
// around every call into a layer and reports the per-layer metrics instead,
// writing the spans to .bench_build/spans/. Either way the last line of
// standard output is one JSON result object; the lines before it carry the
// run metadata and a report under the metric names of README.md.
//
//	perfbench compare -parent DIR -change DIR [-bench BENCHMARK.json]
//
// reads two sets of saved outputs and judges every workload × metric (see
// compare.go). Run it through perfbench/run.sh from the repository root,
// which builds the binary into .bench_build first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// fixtureSeed seeds the system each workload runs on — the simulated world
// and the served archive — so that every run measures the same system;
// --seed seeds the inputs: the churn, the measurement runner, the query
// mix and the appended rounds. It is rovistad's default -seed.
const fixtureSeed = 1

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke scales every workload down for the tests.
	smoke bool
	// workDir holds the run's stores; spanDir the traced run's span files.
	workDir, spanDir string
	// corruptRef alters each workload's reference answer, so tests can
	// show the output checks reject a wrong one.
	corruptRef bool
}

// workloads maps each name to the function that runs it, which returns
// the result with its metrics filled for the mode it ran in.
var workloads = map[string]func(opts options) (*result, error){
	"stream-400": runStream,
	"days-10k":   runDays,
	"reads-10k":  runReads,
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opts options
	var trace int
	fs.StringVar(&opts.workload, "workload", "", "workload: stream-400, days-10k or reads-10k")
	fs.Int64Var(&opts.seed, "seed", 1, "input seed")
	fs.Float64Var(&opts.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass")
	fs.StringVar(&opts.workDir, "workdir", ".bench_build", "directory for stores and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[opts.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", opts.workload)
	}
	if opts.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	opts.trace = trace == 1
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		return err
	}
	opts.spanDir = filepath.Join(opts.workDir, "spans")
	tmp, err := os.MkdirTemp(opts.workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	meta := collectMeta(opts)
	res, err := runWorkload(drive, opts, tmp)
	if err != nil {
		return err
	}
	return res.print(os.Stdout, meta)
}

// runWorkload runs one workload with its stores under dir and completes the
// metric list for the mode it ran in.
func runWorkload(drive func(options) (*result, error), opts options, dir string) (*result, error) {
	opts.workDir = dir
	res, err := drive(opts)
	if err != nil {
		return nil, err
	}
	res.finish(opts.trace)
	return res, nil
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	// checks lists the output checks that failed, for the report.
	checks []string
	// metrics are the values printed on the last line; report holds the
	// README's named metrics, printed on the line before.
	metrics map[string]metric
	report  map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, report: map[string]metric{}}
}

// fail records a failed output check; each one counts as a failed
// operation.
func (r *result) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN records n failed operations under one message.
func (r *result) failN(n int, format string, args ...any) {
	r.failed += n
	if len(r.checks) < 20 {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// stderr receives diagnostics; the result goes to standard output.
var stderr io.Writer = os.Stderr

// durationsMs and durationsUs convert durations to float samples.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func (r *result) set(name string, v float64, unit string)  { r.metrics[name] = metric{v, unit} }
func (r *result) note(name string, v float64, unit string) { r.report[name] = metric{v, unit} }

func (r *result) print(w io.Writer, meta map[string]any) error {
	if r.attempted < 1 {
		r.attempted = 1
		r.fail("no operation was attempted")
	}
	r.note("failed_frac", float64(r.failed)/float64(r.attempted), "ratio")
	for _, c := range r.checks {
		fmt.Fprintln(stderr, "check failed:", c)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		return err
	}
	if err := enc.Encode(map[string]any{"report": r.report, "failed_checks": r.checks}); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
}
