package main

import (
	"fmt"
	"maps"
	"time"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/store"
	"github.com/netsec-lab/rovista/internal/stream"
)

// The days-10k workload: rovistad's day-advance loop over a 10k-AS world,
// flat out in a closed loop, with no HTTP. Day 0 is set-up; rounds run on
// days 5, 10, … up to the timeline's end (day 100). The world is the
// fixture; the input seed seeds the measurement runner.
const (
	daysASes = 10_000
	// daysStep is rovistad's default -interval.
	daysStep = 5
	// daysFullEvery is rovistad's default -full-every: every 10th round
	// bypasses the pair-result cache.
	daysFullEvery = 10
	// daysValidatePasses bounds the traced run's separate relying-party
	// pass to a few of the rounds' days, spread over the timeline; each
	// pass costs as much as most of a round.
	daysValidatePasses = 4
)

func daysWorldConfig(seed int64, smoke bool) core.WorldConfig {
	if smoke {
		return core.LargeWorldConfig(seed, 300)
	}
	return core.LargeWorldConfig(seed, daysASes)
}

func runDays(opts options) (*result, error) {
	res := newResult()
	cfg := daysWorldConfig(fixtureSeed, opts.smoke)
	lv, setupS, err := setupTimed(opts.workDir,
		func(dir string) (*live, error) { return setupLive(cfg, opts.seed, dir) },
		func(lv *live) { lv.st.Close() })
	if err != nil {
		return nil, err
	}
	defer lv.st.Close()
	res.set("setup_s", setupS, "s")
	res.set("store.open_s", lv.openTime.Seconds(), "s")

	// rovistad publishes every round's movement; one in-process
	// subscriber drains the hub so publication does real work.
	hub := stream.NewHub()
	sub := hub.Subscribe(stream.SubFilter{}, 64)
	drained := make(chan int)
	go func() {
		n := 0
		for range sub.C {
			n++
		}
		drained <- n
	}()

	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	graph := lv.w.Graph.Stats()
	bgp0 := [3]uint64{graph.EventsApplied.Load(), graph.DirtyPrefixes.Load(), graph.ASesTouched.Load()}
	segBytes0 := dirSize(lv.st.Dir())
	if err := resetPeakRSS(); err != nil { // drop the earlier set-ups' memory
		return nil, err
	}
	rt := readRuntime()

	var roundT, advanceT, measureT, fromSnapT, appendT, diffT, publishT []time.Duration
	stages := map[string][]time.Duration{}
	var remeasured, reused, measured, full int
	var days []int
	prev := lv.baseline.Scores()
	pubRound := uint32(1)
	var last *core.Snapshot
	budget := time.Duration(opts.seconds * float64(time.Second))
	start := time.Now()
	for r := 1; r*daysStep <= cfg.Days && time.Since(start) < budget; r++ {
		res.attempted++
		day := r * daysStep
		t0 := time.Now()
		if err := lv.w.AdvanceTo(day); err != nil {
			res.fail("round %d: %v", r, err)
			break
		}
		t1 := time.Now()
		if r%daysFullEvery == 0 {
			lv.runner.ForceFullRound()
		}
		snap := lv.runner.Measure()
		t2 := time.Now()
		rec := store.FromSnapshot(snap)
		t3 := time.Now()
		if err := lv.st.Append(rec); err != nil {
			res.fail("round %d: %v", r, err)
			break
		}
		t4 := time.Now()
		cur := snap.Scores()
		deltas := stream.DiffScores(prev, cur)
		prev = cur
		t5 := time.Now()
		if len(deltas) > 0 {
			pubRound++
			hub.Publish(stream.Update{Round: pubRound, Day: snap.Day, Deltas: deltas})
		}
		t6 := time.Now()
		last = snap
		days = append(days, day)

		roundT = append(roundT, t6.Sub(t0))
		advanceT = append(advanceT, t1.Sub(t0))
		measureT = append(measureT, t2.Sub(t1))
		fromSnapT = append(fromSnapT, t3.Sub(t2))
		appendT = append(appendT, t4.Sub(t3))
		diffT = append(diffT, t5.Sub(t4))
		if len(deltas) > 0 {
			publishT = append(publishT, t6.Sub(t5))
		}
		mt := snap.Metrics
		remeasured += mt.PairsRemeasured
		reused += mt.PairsReused
		measured += mt.PairsMeasured
		if mt.FullRound {
			full++
		}
		if tr != nil {
			root := tr.add("days.round", 0, r, t0, t6)
			tr.add("core.advance", root, r, t0, t1)
			m := tr.add("core.measure", root, r, t1, t2)
			at := t1
			for _, st := range mt.Stages {
				tr.add("pipeline."+st.Name, m, r, at, at.Add(st.Duration))
				at = at.Add(st.Duration)
				stages[st.Name] = append(stages[st.Name], st.Duration)
			}
			tr.add("store.from_snapshot", root, r, t2, t3)
			tr.add("store.append", root, r, t3, t4)
			tr.add("stream.diff", root, r, t4, t5)
			tr.add("hub.publish", root, r, t5, t6)
		}
	}
	elapsed := time.Since(start)
	sub.Close()
	delivered := <-drained
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	if opts.trace {
		rt.since(res)
	}

	// The last round must score exactly what a from-scratch runner scores
	// on the same world state: incremental equals from-scratch.
	if last != nil {
		res.attempted++
		rcfg := core.DefaultRunnerConfig(opts.seed)
		rcfg.Incremental = false
		want := core.NewRunner(lv.w, rcfg).Measure().Scores()
		if opts.corruptRef {
			for asn := range want {
				want[asn]++
				break
			}
		}
		if !maps.Equal(last.Scores(), want) {
			res.fail("day %d: incremental scores differ from a from-scratch round (%s)", last.Day, scoreDiff(last.Scores(), want))
		}
	}

	rounds := summarize(durationsMs(roundT))
	appendMs := durationsMs(appendT)
	res.set("latency_ms", rounds.p50, "ms")
	res.set("latency_ms_tail", rounds.tail, "ms")
	res.note("setup_s", setupS, "s")
	res.note("round_ms_p50", rounds.p50, "ms")
	res.note("rounds_per_s", float64(len(roundT))/elapsed.Seconds(), "1/s")
	res.note("rounds", float64(len(roundT)), "count")
	res.note("append_ms_p50", percentile(appendMs, 0.5), "ms")
	if !opts.trace {
		return res, nil
	}

	res.set("core.advance_ms_p50", percentile(durationsMs(advanceT), 0.5), "ms")
	measure := durationsMs(measureT)
	res.set("core.measure_ms_p50", percentile(measure, 0.50), "ms")
	res.set("core.measure_ms_p99", percentile(measure, 0.99), "ms")
	setStages(res, stages)
	setPairs(res, remeasured, reused, measured, full)
	res.set("bgp.events_applied", float64(graph.EventsApplied.Load()-bgp0[0]), "count")
	res.set("bgp.dirty_prefixes", float64(graph.DirtyPrefixes.Load()-bgp0[1]), "count")
	res.set("bgp.ases_touched", float64(graph.ASesTouched.Load()-bgp0[2]), "count")
	res.set("store.from_snapshot_us_p50", percentile(durationsUs(fromSnapT), 0.5), "us")
	appendUs := durationsUs(appendT)
	res.set("store.append_us_p50", percentile(appendUs, 0.50), "us")
	res.set("store.append_us_p99", percentile(appendUs, 0.99), "us")
	if len(roundT) > 0 {
		res.set("store.bytes_per_round", float64(dirSize(lv.st.Dir())-segBytes0)/float64(len(roundT)), "B")
	}
	res.set("stream.diff_us_p50", percentile(durationsUs(diffT), 0.5), "us")
	publish := durationsUs(publishT)
	res.set("hub.publish_us_p50", percentile(publish, 0.50), "us")
	res.set("hub.publish_us_p99", percentile(publish, 0.99), "us")
	res.set("hub.delivered", float64(delivered), "count")
	res.set("hub.evictions", float64(hub.Evictions.Load()), "count")

	// Relying-party validation, timed in its own pass outside the round
	// spans: Validate on the world's repositories at some of the rounds'
	// days.
	repos := make([]*rpki.Repository, 0, len(lv.w.Authorities))
	for _, rir := range rpki.AllRIRs {
		repos = append(repos, lv.w.Authorities[rir].Repo)
	}
	var validate []float64
	step := max(len(days)/daysValidatePasses, 1)
	for i := 0; i < len(days); i += step {
		t0 := time.Now()
		(&rpki.RelyingParty{Day: days[i]}).Validate(repos)
		t1 := time.Now()
		tr.add("rpki.validate", 0, 0, t0, t1)
		validate = append(validate, ms(t1.Sub(t0)))
	}
	res.set("rpki.validate_ms_p50", percentile(validate, 0.5), "ms")
	path, err := tr.write(opts.spanDir, opts.workload, opts.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stderr, "spans:", path)
	return res, nil
}

// scoreDiff names the first ASes whose scores differ, for the report.
func scoreDiff(got, want map[inet.ASN]float64) string {
	var out []string
	for asn, w := range want {
		if g, ok := got[asn]; !ok || g != w {
			out = append(out, fmt.Sprintf("AS%d %v≠%v", asn, g, w))
		}
	}
	for asn := range got {
		if _, ok := want[asn]; !ok {
			out = append(out, fmt.Sprintf("AS%d extra", asn))
		}
	}
	if len(out) > 3 {
		out = append(out[:3], "…")
	}
	return fmt.Sprint(out)
}
