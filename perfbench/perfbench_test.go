package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{100_000, 0.99},
		{1000, 0.99}, // exactly ten samples beyond p99
		{999, 0.95},  // nine beyond p99
		{200, 0.95},
		{100, 0.90},
		{40, 0.75},
		{20, 0.50},
		{19, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tc.want; p > 0 && beyond(tc.n, p) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond(tc.n, p), p*100)
		}
	}
}

func TestSummarizeReportsMedianAndSupportedTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200 … 1, unsorted
	}
	s := summarize(xs)
	if s.n != 200 || s.p50 != 100 || s.tailPct != 0.95 || s.tail != 190 {
		t.Fatalf("summarize = %+v, want n=200 p50=100 p95=190", s)
	}
}

func TestWindowedTailIsMedianOfWindowTails(t *testing.T) {
	var xs, at []float64
	for w := 0; w < 3; w++ {
		for i := 1; i <= 100; i++ {
			xs = append(xs, float64(100*w+i))
			at = append(at, float64(w)+float64(i)/200)
		}
	}
	// Each window of 100 samples supports p90: 90, 190 and 290.
	if got := windowedTail(xs, at, time.Second); got != 190 {
		t.Fatalf("windowedTail = %v, want 190", got)
	}
}

func TestTrimmedMeanAveragesTheMiddle(t *testing.T) {
	xs := []float64{1000, 7, 1, 2, 3, 5, 2000, 4, 6, 8} // 1…8 and two renders
	// The middle 60% of ten samples is the 3rd to the 8th: 3 … 8.
	if got := trimmedMean(xs, 0.2, 0.8); got != 5.5 {
		t.Fatalf("trimmedMean = %v, want 5.5", got)
	}
	if xs[0] != 1000 {
		t.Fatal("trimmedMean reordered its input")
	}
	if got := trimmedMean(nil, 0.2, 0.8); got != 0 {
		t.Fatalf("trimmedMean(nil) = %v, want 0", got)
	}
}

// The quartiles must be Python's statistics.quantiles(xs, n=4), the
// definition the stability rule is stated in (values computed there).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2.5, 0.5}, 0, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, p := range parent {
			out[i] = p * f
		}
		return out
	}
	nineOfTen := scaled(0.9)
	nineOfTen[3] = 101 // loses one pair: still nine tenths
	eightOfTen := scaled(0.9)
	eightOfTen[3], eightOfTen[4] = 101, 103
	for _, tc := range []struct {
		name         string
		change       []float64
		lower        bool
		moreFailures bool
		want         string
	}{
		{"faster on every pair", scaled(0.9), true, false, "improved"},
		{"nine of ten pairs", nineOfTen, true, false, "improved"},
		{"eight of ten pairs", eightOfTen, true, false, "no worse"},
		{"gain with more failures", scaled(0.9), true, true, "no worse"},
		{"higher is better", scaled(1.1), false, false, "improved"},
		{"same", scaled(1), true, false, "no worse"},
		{"slower within the bound", scaled(1.04), true, false, "no worse"},
		{"slower beyond the bound", scaled(1.2), true, false, "regressed"},
		{"too few pairs", scaled(0.9)[:5], true, false, "no worse"},
	} {
		v := judge(parent, tc.change, tc.lower, 0.05, tc.moreFailures)
		if v.outcome != tc.want {
			t.Errorf("%s: %s (wins %d/%d), want %s", tc.name, v.outcome, v.wins, v.pairs, tc.want)
		}
	}
	// A parent spread wider than the bound leaves a small move unresolved,
	// but not a change whose every run beats every parent run.
	noisy := []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}
	if v := judge(noisy, scaled(1.01), true, 0.05, false); v.outcome != "unresolved" {
		t.Errorf("noisy parent: %s, want unresolved", v.outcome)
	}
	if v := judge(noisy, scaled(0.5), true, 0.05, false); v.outcome != "improved" {
		t.Errorf("noisy parent, change far better: %s, want improved", v.outcome)
	}
}

func TestSelfTimesAndLayerSums(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "stream.batch", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "bgp.apply", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "core.measure", Start: 20, End: 50},   // overlaps apply
		{ID: 4, Parent: 3, Name: "pipeline.score", Start: 40, End: 60}, // runs past its parent
		{ID: 5, Parent: 1, Name: "hub.publish", Start: 60, End: 70},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 20, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
	layers := selfByLayer(spans)
	if got := layers["core"] * float64(time.Millisecond); got != 20 {
		t.Errorf("core self time %vns, want 20", got)
	}
}

// batchSpansForTest is one batch as the traced stream sink records it: due
// at 0, received at 10, published by 100, and two subscribers' SSE writes
// arriving at 120 and 130.
func batchSpansForTest() []span {
	return []span{
		{ID: 1, Name: "stream.batch", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "stream.batch_wait", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "bgp.apply", Start: 10, End: 30},
		{ID: 4, Parent: 1, Name: "core.measure", Start: 30, End: 80},
		{ID: 5, Parent: 4, Name: "pipeline.measure-pairs", Start: 30, End: 60},
		{ID: 6, Parent: 4, Name: "pipeline.score", Start: 60, End: 75},
		{ID: 7, Parent: 1, Name: "store.append", Start: 80, End: 90},
		{ID: 8, Parent: 1, Name: "hub.publish", Start: 90, End: 100},
		{ID: 9, Parent: 1, Name: "api.sse_write", Start: 100, End: 120},
		{ID: 10, Parent: 1, Name: "api.sse_write", Start: 100, End: 130},
	}
}

func TestLayerSumRatio(t *testing.T) {
	ratio, orphans := layerSumRatio(batchSpansForTest())
	if ratio != 1 || orphans != 0 {
		t.Fatalf("complete spans: ratio %v, %d orphans; want 1, 0", ratio, orphans)
	}
	edit := func(f func([]span) []span) []span { return f(batchSpansForTest()) }
	for _, tc := range []struct {
		name    string
		spans   []span
		ok      bool
		orphans int
	}{
		{"missing apply span", edit(func(s []span) []span { return append(s[:2], s[3:]...) }), false, 0},
		{"apply span under no batch", edit(func(s []span) []span { s[2].Parent = 0; return s }), false, 0},
		{"stage overlapping the next", edit(func(s []span) []span { s[5].Start = 40; return s }), false, 0},
		{"SSE write starting inside publish", edit(func(s []span) []span { s[8].Start, s[9].Start = 80, 80; return s }), false, 0},
		{"SSE write under apply", edit(func(s []span) []span { s[9].Parent = 3; return s }), true, 1},
		{"gap of 2 before the SSE writes", edit(func(s []span) []span { s[7].End = 98; return s }), true, 0},
	} {
		ratio, orphans := layerSumRatio(tc.spans)
		if ok := ratio >= 0.95 && ratio <= 1.05; ok != tc.ok || orphans != tc.orphans {
			t.Errorf("%s: ratio %.3f, %d orphans; want within 5%% = %v, %d orphans", tc.name, ratio, orphans, tc.ok, tc.orphans)
		}
	}
}

// runSmoke runs a workload at smoke size and returns its printed lines.
func runSmoke(t *testing.T, workload string, trace, corrupt bool) []map[string]any {
	t.Helper()
	opts := options{
		workload: workload, seed: 3, seconds: 2, trace: trace, smoke: true,
		spanDir: t.TempDir(), corruptRef: corrupt,
	}
	res, err := runWorkload(workloads[workload], opts, t.TempDir())
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var out bytes.Buffer
	stderr = io.Discard
	if err := res.print(&out, collectMeta(opts)); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("%s: output line %q: %v", workload, l, err)
		}
		lines = append(lines, m)
	}
	return lines
}

// Every workload, traced and not, prints every metric of its mode with
// its unit, and passes its output checks.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds worlds")
	}
	for _, workload := range []string{"stream-400", "days-10k", "reads-10k"} {
		for _, trace := range []bool{false, true} {
			lines := runSmoke(t, workload, trace, false)
			last := lines[len(lines)-1]
			if len(last) != 4 || last["correct"] != true || last["failed"] != 0.0 || last["attempted"].(float64) < 1 {
				t.Errorf("%s trace=%v: result %v", workload, trace, last)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			metrics := last["metrics"].(map[string]any)
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", workload, trace, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.name].(map[string]any)
				if !ok || got["unit"] != m.unit {
					t.Errorf("%s trace=%v: metric %s = %v, want unit %s", workload, trace, m.name, got, m.unit)
				}
			}
			if !trace && metrics["latency_ms"].(map[string]any)["value"].(float64) <= 0 {
				t.Errorf("%s: latency_ms is not positive", workload)
			}
		}
	}
}

// The output checks reject a run whose reference was corrupted.
func TestSmokeChecksRejectCorruptedReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds worlds")
	}
	for _, workload := range []string{"stream-400", "days-10k", "reads-10k"} {
		lines := runSmoke(t, workload, false, true)
		last := lines[len(lines)-1]
		if last["correct"] != false || last["failed"].(float64) < 1 {
			t.Errorf("%s with a corrupted reference: correct=%v failed=%v", workload, last["correct"], last["failed"])
		}
	}
}

// BENCHMARK.json must list exactly the metrics the program prints.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workload {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
}
