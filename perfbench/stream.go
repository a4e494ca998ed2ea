package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsec-lab/rovista/internal/api"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/store"
	"github.com/netsec-lab/rovista/internal/stream"
	"github.com/netsec-lab/rovista/internal/topology"
)

// The stream-400 workload: the composition `rovistad -size medium -stream
// synth` builds (synthetic churn → coalesce → live sink → store, hub and
// /v1/stream), fed in an open loop whose wall pacing equals the virtual
// clock, with push subscribers on the far end. The world and the churn
// sequence are the fixture (README.md says why); the input seed seeds the
// measurement runner.
const (
	// streamRate is the churn rate in events per second, virtual and wall.
	streamRate = 20.0
	// streamWindow is the coalesce window in virtual seconds: about 20
	// events per batch, one batch a second. The slowest batches take most
	// of a second to measure, so at this pace a batch rarely waits for
	// the one before it; at one batch per 200ms they queued behind each
	// other and the delivery tail hung on how each queue happened to form.
	streamWindow = 1.0
	// streamMemSubs in-process /v1/stream subscribers ride beside the two
	// loopback SSE clients, so the fan-out cost shows.
	streamMemSubs = 1000
	// streamMinDelta is the filtered loopback client's ?min_delta=.
	streamMinDelta = 10.0
	// streamDrain bounds the wait for the last frames after the source
	// ends; a frame not in by then counts as never arrived.
	streamDrain = 10 * time.Second
)

// streamWorldConfig is rovistad's -size medium world: ~400 ASes; for the
// smoke tests, a ~60-AS world.
func streamWorldConfig(seed int64, smoke bool) core.WorldConfig {
	cfg := core.DefaultWorldConfig(seed)
	cfg.Topology = topology.Config{
		Seed: seed, NumTier1: 6, NumTier2: 24, NumTier3: 90, NumStub: 280,
		PrefixesPerAS: 1.3, Tier2PeerProb: 0.3, Tier3PeerProb: 0.03, MultihomeProb: 0.45,
	}
	if smoke {
		cfg.Topology = topology.Config{
			Seed: seed, NumTier1: 3, NumTier2: 6, NumTier3: 15, NumStub: 40,
			PrefixesPerAS: 1.2, Tier2PeerProb: 0.3, Tier3PeerProb: 0.04, MultihomeProb: 0.4,
		}
	}
	return cfg
}

// streamExpect is the reference the subscribers' frames are checked
// against: the SSE frame of every update, keyed by SSE id.
type streamExpect struct {
	frames, filtered       map[uint32][]byte
	ids, filteredIDs       []uint32
	lastEvent              map[uint32]int // id → index of its batch's last event
	batches, bytesUnfilter int
}

// sseFrame renders an update the way /v1/stream writes it.
func sseFrame(u stream.Update) ([]byte, error) {
	b, err := json.Marshal(u)
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, "id: %d\nevent: scores\ndata: %s\n\n", u.Round, b), nil
}

// keepDelta is the reference for a ?min_delta= subscription: appear and
// vanish transitions always pass, moves pass when at least minDelta.
func keepDelta(d stream.ScoreDelta, minDelta float64) bool {
	if d.Appeared || d.Vanished {
		return true
	}
	diff := d.New - d.Old
	if diff < 0 {
		diff = -diff
	}
	return diff >= minDelta
}

// streamReference applies the coalesced plan directly — ApplyEvents then
// Measure, no pipeline — on a second world built from the same seed, and
// renders the frames every subscriber must receive. The sink numbers its
// rounds on from the baseline round 1, one per batch, and publishes only
// non-empty diffs, so ids have gaps.
func streamReference(cfg core.WorldConfig, runnerSeed int64, plan []stream.Msg) (*streamExpect, error) {
	w, err := core.BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.AdvanceTo(0); err != nil {
		return nil, err
	}
	runner := core.NewRunner(w, core.DefaultRunnerConfig(runnerSeed))
	prev := runner.Measure().Scores()
	ex := &streamExpect{frames: map[uint32][]byte{}, filtered: map[uint32][]byte{}, lastEvent: map[uint32]int{}}
	round := uint32(1)
	for _, b := range stream.CoalescePlan(plan, streamWindow) {
		ex.batches++
		if _, err := w.Graph.ApplyEvents(b.Events); err != nil {
			return nil, err
		}
		snap := runner.Measure()
		round++
		cur := snap.Scores()
		deltas := stream.DiffScores(prev, cur)
		prev = cur
		if len(deltas) == 0 {
			continue
		}
		u := stream.Update{Round: round, Day: snap.Day, Deltas: deltas}
		f, err := sseFrame(u)
		if err != nil {
			return nil, err
		}
		ex.frames[round], ex.ids = f, append(ex.ids, round)
		ex.bytesUnfilter += len(f)
		ex.lastEvent[round] = int(b.Seq) + len(b.Events) - 1
		var kept []stream.ScoreDelta
		for _, d := range deltas {
			if keepDelta(d, streamMinDelta) {
				kept = append(kept, d)
			}
		}
		if len(kept) > 0 {
			u.Deltas = kept
			if ex.filtered[round], err = sseFrame(u); err != nil {
				return nil, err
			}
			ex.filteredIDs = append(ex.filteredIDs, round)
		}
	}
	return ex, nil
}

// pacedSource emits the synthetic churn plan in an open loop: event i is
// due at start + i/streamRate whatever the pipeline is doing, so a stall
// shows as lateness rather than as a slower offered rate.
type pacedSource struct {
	plan     []stream.Msg
	interval time.Duration
	// start and lateness are written by Run and read after the pipeline
	// returns.
	start    time.Time
	lateness []time.Duration
}

func (p *pacedSource) Name() string { return "paced-synth" }

func (p *pacedSource) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

func (p *pacedSource) Run(ctx context.Context, _ <-chan stream.Msg, out chan<- stream.Msg) error {
	p.start = time.Now()
	for i, m := range p.plan {
		due := p.due(i)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
		p.lateness = append(p.lateness, time.Since(due))
		select {
		case out <- m:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// arrival is one SSE frame as a subscriber saw it.
type arrival struct {
	id uint32
	at time.Time
	ok bool // byte-identical to the reference frame
}

// subLog is what one subscriber received. Only its own goroutine writes
// it; it is read after that goroutine ends.
type subLog struct {
	expect   map[uint32][]byte
	lastID   uint32 // the last id this subscriber should receive
	done     func() // called once the lastID frame is in
	frames   []arrival
	status   int
	evicted  bool
	err      error
	finished bool
}

// record takes one complete SSE frame (a comment, keepalive or event).
func (l *subLog) record(frame []byte, at time.Time) {
	switch {
	case bytes.HasPrefix(frame, []byte("id: ")):
		end := bytes.IndexByte(frame, '\n')
		if end < 0 {
			end = len(frame)
		}
		n, err := strconv.ParseUint(string(frame[4:end]), 10, 32)
		if err != nil {
			l.frames = append(l.frames, arrival{at: at})
			return
		}
		id := uint32(n)
		l.frames = append(l.frames, arrival{id: id, at: at, ok: bytes.Equal(frame, l.expect[id])})
		if id == l.lastID && !l.finished {
			l.finished = true
			l.done()
		}
	case bytes.HasPrefix(frame, []byte("event: evicted")):
		l.evicted = true
	}
}

// memSub is an in-process /v1/stream client: a ResponseWriter whose Flush
// hands each completed frame to its log.
type memSub struct {
	hdr http.Header
	buf []byte
	log *subLog
}

func (m *memSub) Header() http.Header { return m.hdr }
func (m *memSub) WriteHeader(code int) {
	m.log.status = code
}
func (m *memSub) Write(p []byte) (int, error) {
	if m.log.status == 0 {
		m.log.status = http.StatusOK
	}
	m.buf = append(m.buf, p...)
	return len(p), nil
}
func (m *memSub) Flush() {
	m.log.record(m.buf, time.Now())
	m.buf = m.buf[:0]
}

// readSSE is a loopback SSE client: it reads frames off the connection
// until the body ends, time-stamping each on its closing blank line.
// ready is closed once the server's preamble shows the subscription is
// registered.
func readSSE(ctx context.Context, client *http.Client, url string, l *subLog, ready func()) {
	defer ready()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		l.err = err
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		l.err = err
		return
	}
	defer resp.Body.Close()
	l.status = resp.StatusCode
	r := bufio.NewReaderSize(resp.Body, 1<<16)
	var frame []byte
	first := true
	for {
		line, err := r.ReadSlice('\n')
		frame = append(frame, line...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return
		}
		if len(line) == 1 {
			l.record(frame, time.Now())
			frame = frame[:0]
			if first {
				first = false
				ready()
			}
		}
	}
}

// streamSink is what the run puts at the end of the pipeline: LiveSink in
// an untraced run, tracedSink in a traced one.
type streamSink interface {
	stream.Stage
	appends() []time.Duration
}

// liveSink wraps stream.LiveSink, rovistad's sink, timing only the store
// append its Append hook makes.
type liveSink struct {
	*stream.LiveSink
	appendTimes []time.Duration
}

func (s *liveSink) appends() []time.Duration { return s.appendTimes }

func newLiveSink(lv *live, hub *stream.Hub) *liveSink {
	s := &liveSink{}
	s.LiveSink = &stream.LiveSink{
		W:      lv.w,
		Runner: lv.runner,
		Mu:     &sync.Mutex{},
		Append: func(snap *core.Snapshot) error {
			rec := store.FromSnapshot(snap)
			t := time.Now()
			err := lv.st.Append(rec)
			s.appendTimes = append(s.appendTimes, time.Since(t))
			return err
		},
		Hub: hub,
	}
	s.SeedScores(1, lv.baseline.Scores())
	return s
}

func runStream(opts options) (*result, error) {
	res := newResult()
	cfg := streamWorldConfig(fixtureSeed, opts.smoke)
	lv, setupS, err := setupTimed(opts.workDir,
		func(dir string) (*live, error) { return setupLive(cfg, opts.seed, dir) },
		func(lv *live) { lv.st.Close() })
	if err != nil {
		return nil, err
	}
	defer lv.st.Close()
	res.set("setup_s", setupS, "s")
	res.set("store.open_s", lv.openTime.Seconds(), "s")

	n := int(opts.seconds * streamRate)
	synth := &stream.SynthSource{Seed: fixtureSeed, Origins: stream.WorldOrigins(lv.w), Rate: streamRate}
	plan := synth.Plan(n)
	ex, err := streamReference(cfg, opts.seed, plan)
	if err != nil {
		return nil, err
	}
	// The reference world and the set-up repetitions are garbage now;
	// keep them out of the run and out of its peak memory.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	if opts.corruptRef && len(ex.ids) > 0 {
		f := ex.frames[ex.ids[0]]
		f[len(f)-3]++ // a byte inside the JSON of the first update
	}

	hub := stream.NewHub()
	handler := api.New(lv.st, api.Config{RateBurst: 0, Stream: hub}).Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-serveDone
	}()

	// Subscribers: two loopback clients (unfiltered, ?min_delta=) on one
	// connection each, then the in-process ones.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var pending atomic.Int64
	allIn := make(chan struct{})
	doneOne := func() {
		if pending.Add(-1) == 0 {
			close(allIn)
		}
	}
	newLog := func(filtered bool) *subLog {
		l := &subLog{expect: ex.frames, done: doneOne}
		ids := ex.ids
		if filtered {
			l.expect, ids = ex.filtered, ex.filteredIDs
		}
		if len(ids) > 0 {
			l.lastID = ids[len(ids)-1]
			pending.Add(1)
		}
		return l
	}
	var logs []*subLog
	var filteredLog *subLog
	var wg sync.WaitGroup
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, DisableCompression: true}}
	defer client.CloseIdleConnections()
	base := "http://" + ln.Addr().String() + "/v1/stream"
	for _, filtered := range []bool{false, true} {
		l := newLog(filtered)
		logs = append(logs, l)
		url := base
		if filtered {
			url += "?min_delta=" + strconv.FormatFloat(streamMinDelta, 'g', -1, 64)
			filteredLog = l
		}
		ready := make(chan struct{})
		var once sync.Once
		wg.Add(1)
		go func() {
			defer wg.Done()
			readSSE(ctx, client, url, l, func() { once.Do(func() { close(ready) }) })
		}()
		<-ready
	}
	subs := streamMemSubs
	if opts.smoke {
		subs = 20
	}
	for i := 0; i < subs; i++ {
		l := newLog(false)
		logs = append(logs, l)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "/v1/stream", nil)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			handler.ServeHTTP(&memSub{hdr: http.Header{}, log: l}, req)
		}()
	}
	stopSubs := func() {
		cancel()
		srv.Close()
		wg.Wait()
	}
	// A subscriber the handler refused never registers; its log carries
	// the status, so wait for the rest only a bounded time.
	for deadline := time.Now().Add(streamDrain); hub.Subscribers.Load() < int64(len(logs)) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if pending.Load() == 0 {
		close(allIn)
	}

	src := &pacedSource{plan: plan, interval: time.Duration(float64(time.Second) / streamRate)}
	var sink streamSink
	var ts *tracedSink
	if opts.trace {
		ts = newTracedSink(lv, hub, src)
		sink = ts
	} else {
		sink = newLiveSink(lv, hub)
	}
	graph := lv.w.Graph.Stats()
	bgp0 := [3]uint64{graph.EventsApplied.Load(), graph.DirtyPrefixes.Load(), graph.ASesTouched.Load()}
	hub0 := [2]uint64{hub.Delivered.Load(), hub.Evictions.Load()}
	segBytes0 := dirSize(lv.st.Dir())
	rt := readRuntime()

	start := time.Now()
	pipe := stream.NewPipeline(0, src, &stream.CoalesceStage{Window: streamWindow}, sink)
	pipeErr := pipe.Run(context.Background())
	elapsed := time.Since(start)
	select {
	case <-allIn:
	case <-time.After(streamDrain):
	}
	stopSubs()
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	if opts.trace {
		rt.since(res)
	}

	res.attempted += ex.batches
	if pipeErr != nil {
		res.failN(ex.batches, "pipeline: %v", pipeErr)
	}
	checkStream(res, ex, logs, filteredLog)
	if ev := hub.Evictions.Load() - hub0[1]; ev > 0 {
		res.failN(int(ev), "%d subscribers evicted", ev)
	}

	// End-to-end: delivery latency per (update, subscriber), from when the
	// last event of the update's batch was due to the frame's arrival.
	var delivery []float64
	for _, l := range logs {
		for _, a := range l.frames {
			if a.ok {
				delivery = append(delivery, ms(a.at.Sub(src.due(ex.lastEvent[a.id]))))
			}
		}
	}
	d := summarize(delivery)
	// The gated tail counts updates, not samples: the ~1,000 samples of
	// one update share its batch, so a p99 over samples is the slowest
	// update of the run alone, and over two sets of ten seeds it spread
	// 0.11 and 0.29. A run's ~30 updates support only the median.
	tail := percentile(delivery, max(tailPercentile(len(ex.ids)), 0.5))
	res.set("latency_ms", d.p50, "ms")
	res.set("latency_ms_tail", tail, "ms")
	res.note("events_per_s", float64(len(plan))/elapsed.Seconds(), "1/s")
	appendMs := durationsMs(sink.appends())
	res.note("setup_s", setupS, "s")
	res.note("delivery_ms_p50", d.p50, "ms")
	res.note(fmt.Sprintf("delivery_ms_p%g", d.tailPct*100), d.tail, "ms")
	res.note("delivery_samples", float64(d.n), "count")
	res.note("updates", float64(len(ex.ids)), "count")
	res.note("batches", float64(ex.batches), "count")
	res.note("append_ms_p50", percentile(appendMs, 0.5), "ms")

	if !opts.trace {
		return res, nil
	}
	// Per-layer metrics of the traced run.
	res.set("bgp.events_applied", float64(graph.EventsApplied.Load()-bgp0[0]), "count")
	res.set("bgp.dirty_prefixes", float64(graph.DirtyPrefixes.Load()-bgp0[1]), "count")
	res.set("bgp.ases_touched", float64(graph.ASesTouched.Load()-bgp0[2]), "count")
	res.set("hub.delivered", float64(hub.Delivered.Load()-hub0[0]), "count")
	res.set("hub.evictions", float64(hub.Evictions.Load()-hub0[1]), "count")
	if ts.batches > 0 {
		res.set("store.bytes_per_round", float64(dirSize(lv.st.Dir())-segBytes0)/float64(ts.batches), "B")
	}
	if len(ex.ids) > 0 {
		res.set("api.sse_bytes_per_update", float64(ex.bytesUnfilter)/float64(len(ex.ids)), "B")
	}
	lag := 0.0
	for _, l := range src.lateness {
		lag = max(lag, ms(l))
	}
	res.set("stream.generator_lag_ms_max", lag, "ms")
	ts.report(res, logs)
	path, err := ts.tr.write(opts.spanDir, opts.workload, opts.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stderr, "spans:", path)
	return res, nil
}

// checkStream compares what every subscriber received with the reference:
// the exact id sequence (strictly increasing, gaps allowed, the filtered
// client seeing exactly the filtered subset) and byte-identical frames.
func checkStream(res *result, ex *streamExpect, logs []*subLog, filteredLog *subLog) {
	for i, l := range logs {
		want := ex.ids
		if l == filteredLog {
			want = ex.filteredIDs
		}
		res.attempted += len(want)
		if l.err != nil || l.status != http.StatusOK {
			res.failN(len(want), "subscriber %d: status %d, err %v", i, l.status, l.err)
			continue
		}
		if l.evicted {
			res.fail("subscriber %d evicted", i)
		}
		got := map[uint32]bool{}
		var last uint32
		for j, a := range l.frames {
			if j > 0 && a.id <= last {
				res.fail("subscriber %d: id %d after %d", i, a.id, last)
			}
			last = a.id
			if _, expected := l.expect[a.id]; !expected {
				res.fail("subscriber %d: unexpected id %d", i, a.id)
				continue
			}
			if !a.ok {
				res.fail("subscriber %d: frame %d differs from the reference", i, a.id)
			}
			got[a.id] = true
		}
		if missing := len(want) - len(got); missing > 0 {
			res.failN(missing, "subscriber %d: %d updates never arrived", i, missing)
		}
	}
}

// tracedSink stands in for LiveSink in a traced run. It makes the same
// calls in the same order — ApplyEvents, Measure, FromSnapshot and Append,
// Scores and DiffScores, Publish — and records a span around each.
type tracedSink struct {
	lv  *live
	hub *stream.Hub
	src *pacedSource
	mu  sync.Mutex
	tr  *tracer

	prev  map[inet.ASN]float64
	round uint32

	batches int
	events  int
	// published maps an SSE id to its batch span and the end of Publish.
	published                                              map[uint32]batchSpans
	apply, measure, fromSnap, appendT, diff, publish, wait []time.Duration
	stages                                                 map[string][]time.Duration
	pairsRemeasured, pairsReused, pairsMeasured, full      int
}

// batchSpans is what the SSE-write spans of one published batch need: the
// batch's root span and group, and when Publish returned.
type batchSpans struct {
	root, group int
	publishEnd  time.Time
}

func newTracedSink(lv *live, hub *stream.Hub, src *pacedSource) *tracedSink {
	return &tracedSink{
		lv: lv, hub: hub, src: src, tr: newTracer(),
		prev: lv.baseline.Scores(), round: 1,
		published: map[uint32]batchSpans{},
		stages:    map[string][]time.Duration{},
	}
}

func (s *tracedSink) Name() string { return "traced-sink" }

func (s *tracedSink) appends() []time.Duration { return s.appendT }

func (s *tracedSink) Run(ctx context.Context, in <-chan stream.Msg, _ chan<- stream.Msg) error {
	for {
		select {
		case m, ok := <-in:
			if !ok {
				return nil
			}
			if err := s.handle(m); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (s *tracedSink) handle(m stream.Msg) error {
	recv := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(m.Events) == 0 {
		return nil
	}
	group := s.batches + 1
	dueLast := s.src.due(int(m.Seq) + len(m.Events) - 1)

	t0 := time.Now()
	if _, err := s.lv.w.Graph.ApplyEvents(m.Events); err != nil {
		return err
	}
	t1 := time.Now()
	snap := s.lv.runner.Measure()
	t2 := time.Now()
	s.batches++
	s.events += len(m.Events)
	s.round++
	rec := store.FromSnapshot(snap)
	t3 := time.Now()
	if err := s.lv.st.Append(rec); err != nil {
		return err
	}
	t4 := time.Now()
	cur := snap.Scores()
	deltas := stream.DiffScores(s.prev, cur)
	s.prev = cur
	t5 := time.Now()
	if len(deltas) > 0 {
		s.hub.Publish(stream.Update{Round: s.round, Day: snap.Day, Deltas: deltas})
	}
	t6 := time.Now()

	// Spans: the batch root runs from the due time of its last event to
	// the end of Publish; SSE writes are added per subscriber afterwards.
	tr := s.tr
	root := tr.add("stream.batch", 0, group, dueLast, t6)
	tr.add("stream.batch_wait", root, group, dueLast, recv)
	tr.add("bgp.apply", root, group, t0, t1)
	// Measure's stages run one after another; the program times them
	// (Snapshot.Metrics.Stages), so their spans are laid end to end from
	// the start of Measure.
	measure := tr.add("core.measure", root, group, t1, t2)
	at := t1
	for _, st := range snap.Metrics.Stages {
		tr.add("pipeline."+st.Name, measure, group, at, at.Add(st.Duration))
		at = at.Add(st.Duration)
		s.stages[st.Name] = append(s.stages[st.Name], st.Duration)
	}
	tr.add("store.from_snapshot", root, group, t2, t3)
	tr.add("store.append", root, group, t3, t4)
	tr.add("stream.diff", root, group, t4, t5)
	if len(deltas) > 0 {
		tr.add("hub.publish", root, group, t5, t6)
		s.published[s.round] = batchSpans{root: root, group: group, publishEnd: t6}
		s.publish = append(s.publish, t6.Sub(t5))
	}
	s.wait = append(s.wait, recv.Sub(dueLast))
	s.apply = append(s.apply, t1.Sub(t0))
	s.measure = append(s.measure, t2.Sub(t1))
	s.fromSnap = append(s.fromSnap, t3.Sub(t2))
	s.appendT = append(s.appendT, t4.Sub(t3))
	s.diff = append(s.diff, t5.Sub(t4))
	mt := snap.Metrics
	s.pairsRemeasured += mt.PairsRemeasured
	s.pairsReused += mt.PairsReused
	s.pairsMeasured += mt.PairsMeasured
	if mt.FullRound {
		s.full++
	}
	return nil
}

// report adds the SSE-write spans and sets the sink's per-layer metrics,
// including the layer-sum check (layerSumRatio): along the blocking path,
// the recorded layers' self times must add up to the delivery span.
func (s *tracedSink) report(res *result, logs []*subLog) {
	var sse []float64
	for _, l := range logs {
		for _, a := range l.frames {
			b, ok := s.published[a.id]
			if !ok || !a.ok {
				continue
			}
			s.tr.add("api.sse_write", b.root, b.group, b.publishEnd, a.at)
			sse = append(sse, ms(a.at.Sub(b.publishEnd)))
		}
	}
	s.tr.mu.Lock()
	ratio, orphans := layerSumRatio(s.tr.spans)
	s.tr.mu.Unlock()
	res.set("trace.layer_sum_ratio", ratio, "ratio")
	res.attempted++
	if ratio < 0.95 || ratio > 1.05 || orphans > 0 {
		res.fail("layer self times sum to %.3f of the delivery span (want within 5%%), %d SSE writes outside a batch", ratio, orphans)
	}
	res.set("api.sse_write_ms_p50", percentile(sse, 0.50), "ms")
	res.set("api.sse_write_ms_p99", percentile(sse, 0.99), "ms")
	res.set("stream.batch_wait_ms_p50", percentile(durationsMs(s.wait), 0.5), "ms")
	if s.batches > 0 {
		res.set("stream.events_per_batch", float64(s.events)/float64(s.batches), "count")
	}
	res.set("stream.diff_us_p50", percentile(durationsUs(s.diff), 0.5), "us")
	apply := durationsMs(s.apply)
	res.set("bgp.apply_ms_p50", percentile(apply, 0.50), "ms")
	res.set("bgp.apply_ms_p99", percentile(apply, 0.99), "ms")
	measure := durationsMs(s.measure)
	res.set("core.measure_ms_p50", percentile(measure, 0.50), "ms")
	res.set("core.measure_ms_p99", percentile(measure, 0.99), "ms")
	setStages(res, s.stages)
	setPairs(res, s.pairsRemeasured, s.pairsReused, s.pairsMeasured, s.full)
	res.set("store.from_snapshot_us_p50", percentile(durationsUs(s.fromSnap), 0.5), "us")
	appendUs := durationsUs(s.appendT)
	res.set("store.append_us_p50", percentile(appendUs, 0.50), "us")
	res.set("store.append_us_p99", percentile(appendUs, 0.99), "us")
	publish := durationsUs(s.publish)
	res.set("hub.publish_us_p50", percentile(publish, 0.50), "us")
	res.set("hub.publish_us_p99", percentile(publish, 0.99), "us")
}
