package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The comparator judges a change against its parent from saved benchmark
// outputs (each file one run's standard output), with the rule of the
// choosing-metrics guide, §8: runs are paired by seed (make them
// alternating, parent and change in turn); a metric improved when the
// change wins at least nine tenths of at least ten pairs, ties counting
// for neither, and the medians differ by more than the parent's
// interquartile spread. It regressed when the change's median is worse
// than the parent's by more than the metric's bound in BENCHMARK.json. When
// the parent's own spread is wider than the bound it is unresolved, unless
// every change run reads better than every parent run.

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runFile is one saved run.
type runFile struct {
	path     string
	workload string
	seed     int64
	trace    bool
	failed   int
	metrics  map[string]float64
}

func parseRun(path string, r io.Reader) (runFile, error) {
	rf := runFile{path: path, metrics: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		var m struct {
			Meta *struct {
				Workload string `json:"workload"`
				Seed     int64  `json:"seed"`
				Trace    bool   `json:"trace"`
			} `json:"meta"`
		}
		if json.Unmarshal([]byte(line), &m) == nil && m.Meta != nil {
			rf.workload, rf.seed, rf.trace = m.Meta.Workload, m.Meta.Seed, m.Meta.Trace
		}
	}
	if err := sc.Err(); err != nil {
		return rf, err
	}
	var res struct {
		Failed  *int              `json:"failed"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Failed == nil {
		return rf, fmt.Errorf("%s: last line is not a result", path)
	}
	if rf.workload == "" {
		return rf, fmt.Errorf("%s: no meta line", path)
	}
	rf.failed = *res.Failed
	for k, v := range res.Metrics {
		rf.metrics[k] = v.Value
	}
	return rf, nil
}

func loadRuns(dir string) ([]runFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []runFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		rf, err := parseRun(path, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, rf)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", dir)
	}
	return out, nil
}

// verdict is the comparator's judgement of one workload × metric.
type verdict struct {
	parentMed, changeMed float64
	parentQ1, parentQ3   float64
	wins, pairs          int
	outcome              string
}

// judge applies the decision rule to values paired index by index.
func judge(parent, change []float64, lowerBetter bool, bound float64, moreFailures bool) verdict {
	v := verdict{parentMed: median(parent), changeMed: median(change)}
	v.parentQ1, v.parentQ3 = quartiles(parent)
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	v.pairs = min(len(parent), len(change))
	for i := 0; i < v.pairs; i++ {
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	gap := v.changeMed - v.parentMed
	if gap < 0 {
		gap = -gap
	}
	spread := v.parentQ3 - v.parentQ1
	worse := v.changeMed - v.parentMed
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case v.pairs >= 10 && !moreFailures && 10*v.wins >= 9*v.pairs &&
		better(v.changeMed, v.parentMed) && gap > spread:
		v.outcome = "improved"
	case v.parentMed != 0 && spread/abs(v.parentMed) > bound && !allBetter:
		v.outcome = "unresolved"
	case worse > bound*abs(v.parentMed):
		v.outcome = "regressed"
	default:
		v.outcome = "no worse"
	}
	return v
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func runCompare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parentDir := fs.String("parent", "", "directory of the parent commit's saved runs")
	changeDir := fs.String("change", "", "directory of the change's saved runs")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parentDir == "" || *changeDir == "" {
		return errors.New("need -parent and -change")
	}
	b, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	parent, err := loadRuns(*parentDir)
	if err != nil {
		return err
	}
	change, err := loadRuns(*changeDir)
	if err != nil {
		return err
	}
	return compareRuns(w, spec, parent, change)
}

// bySeed orders runs of one workload by seed, then by file name, so the
// i-th parent and i-th change run form a pair.
func bySeed(runs []runFile, workload string, trace bool) []runFile {
	var out []runFile
	for _, r := range runs {
		if r.workload == workload && r.trace == trace {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].seed != out[j].seed {
			return out[i].seed < out[j].seed
		}
		return out[i].path < out[j].path
	})
	return out
}

func compareRuns(w io.Writer, spec benchSpec, parent, change []runFile) error {
	workloadSet := map[string]bool{}
	for _, r := range append(append([]runFile(nil), parent...), change...) {
		workloadSet[r.workload] = true
	}
	var names []string
	for n := range workloadSet {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-11s %-17s %14s %25s %14s %6s  %s\n", "workload", "metric", "parent median", "parent [q1, q3]", "change median", "wins", "verdict")
	for _, wl := range names {
		p, c := bySeed(parent, wl, false), bySeed(change, wl, false)
		if len(p) == 0 || len(c) == 0 {
			fmt.Fprintf(w, "%-11s (untraced runs missing on one side)\n", wl)
			continue
		}
		n := min(len(p), len(c))
		for i := 0; i < n; i++ {
			if p[i].seed != c[i].seed {
				return fmt.Errorf("%s: pair %d has seeds %d and %d; run both sides on the same seeds", wl, i, p[i].seed, c[i].seed)
			}
		}
		moreFailures := totalFailed(c) > totalFailed(p)
		for _, m := range spec.EndToEnd {
			pv, cv := values(p[:n], m.Name), values(c[:n], m.Name)
			v := judge(pv, cv, m.Better == "lower", m.Bound, moreFailures)
			fmt.Fprintf(w, "%-11s %-17s %14.6g [%11.6g, %11.6g] %14.6g %3d/%-3d %s\n",
				wl, m.Name, v.parentMed, v.parentQ1, v.parentQ3, v.changeMed, v.wins, v.pairs, v.outcome)
		}
		if moreFailures {
			fmt.Fprintf(w, "%-11s more failed operations in the change (%d) than the parent (%d): no gain counts\n", wl, totalFailed(c), totalFailed(p))
		}
		for _, side := range []struct {
			name string
			runs []runFile
		}{{"parent", parent}, {"change", change}} {
			traced := bySeed(side.runs, wl, true)
			if len(traced) == 0 {
				continue
			}
			plain := median(values(bySeed(side.runs, wl, false), "latency_ms"))
			with := median(values(traced, "trace.latency_ms"))
			if plain > 0 {
				fmt.Fprintf(w, "%-11s tracing overhead (%s): latency_ms %.6g traced vs %.6g untraced (%+.1f%%)\n",
					wl, side.name, with, plain, 100*(with/plain-1))
			}
		}
	}
	return nil
}

func values(runs []runFile, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.metrics[name])
	}
	return out
}

func totalFailed(runs []runFile) int {
	n := 0
	for _, r := range runs {
		n += r.failed
	}
	return n
}
