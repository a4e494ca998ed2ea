package main

import (
	"os"
	"path/filepath"
	"time"
)

// endToEnd lists the metrics a run with --trace 0 prints. Every workload
// prints every one; README.md says what each means on each workload. The
// tail latency each workload sets, latency_ms_tail, goes to the report
// line instead: on stream-400 and days-10k it equals the median, and on
// reads-10k it was not steady enough to gate. So does the append time,
// append_ms_p50, which on reads-10k was not steady enough either
// (README.md, "Left out").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"latency_ms", "ms"},
}

// perLayer lists the metrics a run with --trace 1 prints. A layer that
// does no work on a workload reports 0 there.
var perLayer = []metricDef{
	{"stream.batch_wait_ms_p50", "ms"},
	{"stream.events_per_batch", "count"},
	{"stream.generator_lag_ms_max", "ms"},
	{"stream.diff_us_p50", "us"},
	{"bgp.apply_ms_p50", "ms"},
	{"bgp.apply_ms_p99", "ms"},
	{"bgp.ases_touched", "count"},
	{"bgp.dirty_prefixes", "count"},
	{"bgp.events_applied", "count"},
	{"rpki.validate_ms_p50", "ms"},
	{"core.advance_ms_p50", "ms"},
	{"core.measure_ms_p50", "ms"},
	{"core.measure_ms_p99", "ms"},
	{"pipeline.test-prefixes_ms", "ms"},
	{"pipeline.qualify-tnodes_ms", "ms"},
	{"pipeline.discover-vvps_ms", "ms"},
	{"pipeline.measure-pairs_ms", "ms"},
	{"pipeline.score_ms", "ms"},
	{"pipeline.pairs_remeasured", "count"},
	{"pipeline.pairs_reused", "count"},
	{"pipeline.reuse_ratio", "ratio"},
	{"pipeline.full_rounds", "count"},
	{"store.from_snapshot_us_p50", "us"},
	{"store.append_us_p50", "us"},
	{"store.append_us_p99", "us"},
	{"store.bytes_per_round", "B"},
	{"store.open_s", "s"},
	{"hub.publish_us_p50", "us"},
	{"hub.publish_us_p99", "us"},
	{"hub.delivered", "count"},
	{"hub.evictions", "count"},
	{"api.sse_write_ms_p50", "ms"},
	{"api.sse_write_ms_p99", "ms"},
	{"api.sse_bytes_per_update", "B"},
	{"api.query_us_p50.as", "us"},
	{"api.query_us_p50.timeseries", "us"},
	{"api.query_us_p50.top", "us"},
	{"api.query_us_p50.diff", "us"},
	{"api.query_us_p50.export", "us"},
	{"api.query_us_p50.rounds", "us"},
	{"api.query_us_p99.as", "us"},
	{"api.query_us_p99.timeseries", "us"},
	{"api.query_us_p99.top", "us"},
	{"api.query_us_p99.diff", "us"},
	{"api.query_us_p99.export", "us"},
	{"api.query_us_p99.rounds", "us"},
	{"api.cache_hit_ratio", "ratio"},
	{"api.cache_shard_resets", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"trace.latency_ms", "ms"},
	{"trace.latency_ms_tail", "ms"},
	{"trace.layer_sum_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

// finish fills in what the mode's metric list needs: the end-to-end list
// in an untraced run, the per-layer list in a traced one. A per-layer
// metric the workload did not set is 0, its layer having done no work.
// The traced run's own end-to-end latency moves to trace.* so it can be
// set against an untraced run's to give the tracing overhead.
func (r *result) finish(trace bool) {
	all := r.metrics
	r.metrics = map[string]metric{}
	r.note("latency_ms_tail", all["latency_ms_tail"].Value, "ms")
	list := endToEnd
	if trace {
		list = perLayer
		r.set("trace.latency_ms", all["latency_ms"].Value, "ms")
		r.set("trace.latency_ms_tail", all["latency_ms_tail"].Value, "ms")
	}
	for _, m := range list {
		if _, ok := r.metrics[m.name]; !ok {
			r.metrics[m.name] = metric{all[m.name].Value, m.unit}
		}
	}
}

// setStages sets the per-stage medians of Measure's own stage timings.
func setStages(r *result, stages map[string][]time.Duration) {
	for name, ds := range stages {
		r.set("pipeline."+name+"_ms", percentile(durationsMs(ds), 0.5), "ms")
	}
}

// setPairs sets the pair-result cache counters summed over the rounds;
// reuse_ratio's base is pairs measured.
func setPairs(r *result, remeasured, reused, measured, full int) {
	r.set("pipeline.pairs_remeasured", float64(remeasured), "count")
	r.set("pipeline.pairs_reused", float64(reused), "count")
	if measured > 0 {
		r.set("pipeline.reuse_ratio", float64(reused)/float64(measured), "ratio")
	}
	r.set("pipeline.full_rounds", float64(full), "count")
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
