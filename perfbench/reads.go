package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsec-lab/rovista/internal/api"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/store"
)

// The reads-10k workload: the query API over a 10k-AS × 100-round archive,
// served in-process through ServeHTTP (no sockets), with a writer
// appending one synthesized 10k-AS round every 100ms beside the reads.
const (
	readsASes   = 10_000
	readsRounds = 100
	// readsAppendEvery is the writer's period.
	readsAppendEvery = 100 * time.Millisecond
	// readsConns is how many requests the generator keeps in flight: one
	// per CPU of the 2-CPU reference host, as that many client
	// connections would.
	readsConns = 2
	// readsRefRate is the reference rate the query latency is reported
	// at, in requests per second: well below what the host sustains. Every
	// append empties the response cache, and with no coalescing of
	// concurrent misses both workers may render the same /v1/export or
	// /v1/diff at once, so requests queue for a share of each 100ms, more
	// of them the higher the rate (README.md, "Left out").
	readsRefRate = 500.0
	// readsRefShare is the share of the run the reference step takes; the
	// rate search has the rest.
	readsRefShare = 0.6
	// readsLimit is the latency limit on the tail percentile that defines
	// the sustainable rate. Every append empties the response cache, and
	// the first /v1/export, /v1/diff and /v1/top after it each take 5–25ms
	// to render, so the tail at low rates already sits at a few tens of
	// milliseconds; the limit is set above that floor.
	readsLimit = 100 * time.Millisecond
	// readsProbeStep is the length of each coarse step of the rate search;
	// readsBisections finer steps then share what is left of the run.
	readsProbeStep  = time.Second
	readsBisections = 3
	// readsWindow is the window a step's tail latency is taken over.
	readsWindow = 250 * time.Millisecond
	// readsTrimLo and readsTrimHi bound the requests the gated latency
	// averages, as quantiles of the reference step's service times: about
	// 8% of requests are the renders after each append, so the upper bound
	// stays clear of them.
	readsTrimLo, readsTrimHi = 0.2, 0.8
	// readsRefWindow is the window of the reference step's tail: two
	// seconds hold 1000 requests at the reference rate, enough for a p99.
	readsRefWindow = 2 * time.Second
	// readsSearchFrom is the rate of the search's first coarse step when
	// the reference step is within the limit; readsGrowth is the ratio
	// between coarse steps.
	readsSearchFrom = 2000.0
	readsGrowth     = 1.5
	// readsSampleEvery: about one /v1/as and /v1/top answer in this many is
	// checked against the store's view.
	readsSampleEvery = 32
)

// query classes, in the order their metrics are named.
var queryClasses = []string{"as", "timeseries", "top", "diff", "export", "rounds"}

// classWeights is the share of each class in the mix: the repository's own
// statement of its query traffic, the mix internal/loadharness draws from
// (pickOp: 50% hot /v1/as, 20% cold timeseries, 15% top, 5% rounds, 5%
// diff, 5% export), restated here so that editing the harness does not
// change this benchmark's load. /v1/as lookups are Zipf-skewed over the
// ASes with the harness's exponent; timeseries are drawn uniformly, so
// they are mostly cache misses; the whole-round classes use the harness's
// fixed keys, so every seed asks for the same expensive renders after
// each append and the seed moves only which ASes are asked for.
var classWeights = []float64{0.50, 0.20, 0.15, 0.05, 0.05, 0.05}

// query is one generated request.
type query struct {
	class int
	url   *url.URL
	asn   inet.ASN // kept for the answer checks
	check bool
}

// readsTopN is the n of every /v1/top query, the harness's key; the
// ranking is the default, most protected first.
const readsTopN = 25

// queryGen draws a seeded, Zipf-skewed query mix over the archive's ASes
// (1000 … 1000+ases-1, as store.Synthesize numbers them).
type queryGen struct {
	rng    *rand.Rand
	asZipf *rand.Zipf
	ases   int
}

func newQueryGen(seed int64, ases int) *queryGen {
	rng := rand.New(rand.NewSource(seed))
	return &queryGen{
		rng:    rng,
		asZipf: rand.NewZipf(rng, 1.1, 1, uint64(ases-1)),
		ases:   ases,
	}
}

func (g *queryGen) next() query {
	x := g.rng.Float64()
	class := 0
	for ; class < len(classWeights)-1; class++ {
		if x < classWeights[class] {
			break
		}
		x -= classWeights[class]
	}
	q := query{class: class}
	var path string
	switch queryClasses[class] {
	case "as":
		// Zipf rank → ASN through a fixed stride, so the hot ASes are
		// spread over the archive rather than its first entries.
		rank := int(g.asZipf.Uint64())
		q.asn = inet.ASN(1000 + (rank*7919)%g.ases)
		path = fmt.Sprintf("/v1/as/%d", q.asn)
		q.check = g.rng.Intn(readsSampleEvery) == 0
	case "timeseries":
		q.asn = inet.ASN(1000 + g.rng.Intn(g.ases))
		path = fmt.Sprintf("/v1/as/%d/timeseries", q.asn)
	case "top":
		path = fmt.Sprintf("/v1/top?n=%d", readsTopN)
		q.check = g.rng.Intn(readsSampleEvery) == 0
	case "diff":
		path = "/v1/diff?from=0&to=latest"
	case "export":
		path = "/v1/export?format=json"
	case "rounds":
		path = "/v1/rounds"
	}
	u, err := url.ParseRequestURI(path)
	if err != nil {
		panic(err) // the generator only builds valid paths
	}
	q.url = u
	return q
}

// recorder is a reusable in-memory ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}
func (r *recorder) reset() {
	clear(r.hdr)
	r.status = 0
	r.body.Reset()
}

// stepStats is what one fixed-rate step measured.
type stepStats struct {
	rate      float64
	latency   []float64   // ms from due to done
	dueAt     []float64   // when each request was due, seconds into the step
	serviceMs []float64   // ms inside ServeHTTP, in the order of latency
	service   [][]float64 // µs inside ServeHTTP, per class
	scheduled int
	// lag is how late the last request started, the backlog at the end;
	// late is how late each request started, in ms.
	lag     time.Duration
	late    []float64
	non2xx  int
	checked int
	wrong   []string
}

// reads holds the running system the steps query.
type reads struct {
	st      *store.Store
	handler http.Handler
	queries []query // a seeded pool the steps cycle through
	tr      *tracer
	// corrupt makes the answer checks expect a wrong score (tests).
	corrupt bool
}

// step offers rate requests per second for dur in an open loop: request i
// is due at start + i/rate; readsConns workers each take the next request,
// wait for its due time, serve it and time it from when it was due. A
// worker stops taking requests once the step is over by readsLimit.
//
// The search steps (spin) wait out the last milliseconds before a due
// time by yielding the processor, so that at high rates a request starts
// on time. The reference step sleeps instead, leaving the CPUs to the
// server and its writer (two yielding workers kept both CPUs busy at the
// reference rate). Each request's time inside ServeHTTP is kept too. A
// sleeping worker wakes up to a millisecond late, and that lateness is
// the generator's, not the server's: a request whose worker was idle when
// it fell due is timed from when it started. One that waited behind the
// worker's previous request is still timed from when it was due.
func (rd *reads) step(rate float64, dur time.Duration, offset int, spin, traced bool) stepStats {
	ss := stepStats{rate: rate, service: make([][]float64, len(queryClasses))}
	var mu sync.Mutex
	var next atomic.Int64
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < readsConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &recorder{hdr: http.Header{}}
			var lat, dueAt, serviceMs, late []float64
			service := make([][]float64, len(queryClasses))
			var lastLag time.Duration
			var non2xx, checked int
			var wrong []string
			var prevDone time.Time
			for {
				i := next.Add(1) - 1
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if !due.Before(end) || time.Since(end) > readsLimit {
					break
				}
				idle := prevDone.Before(due)
				waitUntil(due, spin)
				q := rd.queries[(offset+int(i))%len(rd.queries)]
				req := &http.Request{Method: http.MethodGet, URL: q.url, RequestURI: q.url.RequestURI(),
					Header: http.Header{}, RemoteAddr: "127.0.0.1:1", Host: "bench"}
				rec.reset()
				t0 := time.Now()
				rd.handler.ServeHTTP(rec, req)
				t1 := time.Now()
				prevDone = t1
				lastLag = t0.Sub(due)
				late = append(late, ms(lastLag))
				from := due
				if idle && !spin {
					from = t0
				}
				lat = append(lat, ms(t1.Sub(from)))
				dueAt = append(dueAt, due.Sub(start).Seconds())
				serviceMs = append(serviceMs, ms(t1.Sub(t0)))
				service[q.class] = append(service[q.class], us(t1.Sub(t0)))
				if traced {
					rd.tr.add("api.query."+queryClasses[q.class], 0, int(i), t0, t1)
				}
				if rec.status < 200 || rec.status > 299 {
					non2xx++
					continue
				}
				if q.check {
					if ok, why := rd.checkAnswer(q, rec); ok {
						checked++
					} else if why != "" {
						wrong = append(wrong, why)
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			ss.latency = append(ss.latency, lat...)
			ss.dueAt = append(ss.dueAt, dueAt...)
			ss.serviceMs = append(ss.serviceMs, serviceMs...)
			ss.late = append(ss.late, late...)
			for c := range service {
				ss.service[c] = append(ss.service[c], service[c]...)
			}
			ss.lag = max(ss.lag, lastLag)
			ss.non2xx += non2xx
			ss.checked += checked
			ss.wrong = append(ss.wrong, wrong...)
		}()
	}
	wg.Wait()
	ss.scheduled = int(rate * dur.Seconds())
	return ss
}

// waitUntil returns at or after t. With spin it sleeps while t is far off
// and yields the processor in the last few milliseconds, so a request
// starts on time without the timer's wake-up slack; without, it sleeps.
func waitUntil(t time.Time, spin bool) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		switch {
		case !spin:
			time.Sleep(d)
		case d > 3*time.Millisecond:
			time.Sleep(d - 2*time.Millisecond)
		default:
			runtime.Gosched()
		}
	}
}

// checkAnswer compares a /v1/as or /v1/top answer with the store's view.
// It reports ok=false with an empty reason when the view has moved past
// the answer's generation, so there is nothing to compare with.
func (rd *reads) checkAnswer(q query, rec *recorder) (bool, string) {
	view := rd.st.View()
	gen, _ := strconv.ParseUint(rec.hdr.Get("X-Rovista-Generation"), 10, 64)
	if gen != view.Generation() {
		return false, ""
	}
	switch queryClasses[q.class] {
	case "as":
		var got struct {
			Round          uint32  `json:"round"`
			Score          float64 `json:"rov_protection_score"`
			VVPs           int     `json:"vvps"`
			TNodesMeasured int     `json:"tnodes_measured"`
			TNodesFiltered int     `json:"tnodes_filtered"`
		}
		if err := json.Unmarshal(rec.body.Bytes(), &got); err != nil {
			return false, fmt.Sprintf("%s: %v", q.url, err)
		}
		p, ok := view.Current(q.asn)
		if !ok {
			return false, fmt.Sprintf("%s: AS not in the view", q.url)
		}
		e, _ := view.Round(int(p.Round)).Entry(q.asn)
		if rd.corrupt {
			e.Centi++
		}
		if got.Round != p.Round || got.Score != e.Score() || got.VVPs != e.VVPs ||
			got.TNodesMeasured != e.TNodesMeasured || got.TNodesFiltered != e.TNodesFiltered {
			return false, fmt.Sprintf("%s at generation %d: %+v, view has round %d score %v", q.url, gen, got, p.Round, e.Score())
		}
	case "top":
		var got struct {
			Round   uint32 `json:"round"`
			Records []struct {
				ASN   uint32  `json:"asn"`
				Score float64 `json:"rov_protection_score"`
			} `json:"records"`
		}
		if err := json.Unmarshal(rec.body.Bytes(), &got); err != nil {
			return false, fmt.Sprintf("%s: %v", q.url, err)
		}
		want := view.TopN(readsTopN, true)
		if rd.corrupt && len(want) > 0 {
			want[0].Centi++
		}
		if got.Round != view.Latest().Round || len(got.Records) != len(want) {
			return false, fmt.Sprintf("%s at generation %d: round %d with %d records, view has round %d with %d",
				q.url, gen, got.Round, len(got.Records), view.Latest().Round, len(want))
		}
		for i, e := range want {
			if got.Records[i].ASN != uint32(e.ASN) || got.Records[i].Score != e.Score() {
				return false, fmt.Sprintf("%s at generation %d: record %d is AS%d, view has AS%d", q.url, gen, i, got.Records[i].ASN, e.ASN)
			}
		}
	}
	return true, ""
}

// readsArchive synthesizes the archive the workload serves, and a few more
// synthesized rounds, seeded by appendSeed, for the writer to append.
func readsArchive(dir string, appendSeed int64, ases, rounds int) ([]*store.RoundRecord, error) {
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		return nil, err
	}
	if err := store.Synthesize(st, store.SynthConfig{ASes: ases, Rounds: rounds, Seed: fixtureSeed}); err != nil {
		st.Close()
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	extra, err := store.Open(filepath.Join(filepath.Dir(dir), "appends"), store.Config{})
	if err != nil {
		return nil, err
	}
	defer extra.Close()
	if err := store.Synthesize(extra, store.SynthConfig{ASes: ases, Rounds: 8, Seed: appendSeed}); err != nil {
		return nil, err
	}
	view := extra.View()
	out := make([]*store.RoundRecord, view.Rounds())
	for i := range out {
		out[i] = view.Round(i)
	}
	return out, nil
}

func runReads(opts options) (*result, error) {
	res := newResult()
	ases, rounds := readsASes, readsRounds
	if opts.smoke {
		ases, rounds = 500, 20
	}
	archive := filepath.Join(opts.workDir, "archive")
	templates, err := readsArchive(archive, opts.seed, ases, rounds)
	if err != nil {
		return nil, err
	}
	runtime.GC() // the synthesis's garbage stays out of set-up and the run
	type served struct {
		st  *store.Store
		srv *api.Server
	}
	var openTimes []float64
	sv, setupS, err := setupTimed(opts.workDir, func(string) (served, error) {
		t := time.Now()
		st, err := store.Open(archive, store.Config{})
		if err != nil {
			return served{}, err
		}
		openTimes = append(openTimes, time.Since(t).Seconds())
		return served{st, api.New(st, api.Config{RateBurst: 0})}, nil
	}, func(s served) { s.st.Close() })
	if err != nil {
		return nil, err
	}
	defer sv.st.Close()
	res.set("setup_s", setupS, "s")
	res.set("store.open_s", median(openTimes), "s")
	if sv.st.Rounds() != rounds {
		res.fail("reopened archive has %d rounds, want %d", sv.st.Rounds(), rounds)
	}

	gen := newQueryGen(opts.seed, ases)
	rd := &reads{st: sv.st, handler: sv.srv.Handler(), queries: make([]query, 1<<16), corrupt: opts.corruptRef}
	for i := range rd.queries {
		rd.queries[i] = gen.next()
	}
	if opts.trace {
		rd.tr = newTracer()
	}

	// The writer appends one synthesized round every readsAppendEvery for
	// as long as the reads run.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	stopWriter := make(chan struct{})
	writerDone := make(chan struct{})
	var appendT []time.Duration
	var appendAt []time.Time
	var appendErr error
	segBytes0 := dirSize(archive)
	go func() {
		defer close(writerDone)
		tick := time.NewTicker(readsAppendEvery)
		defer tick.Stop()
		day := sv.st.Latest().Day
		for i := 0; ; i++ {
			select {
			case <-stopWriter:
				return
			case <-tick.C:
			}
			tpl := templates[i%len(templates)]
			day += 5
			rec := *tpl
			rec.Day = day
			rec.Entries = append([]store.Entry(nil), tpl.Entries...)
			t0 := time.Now()
			err := sv.st.Append(&rec)
			t1 := time.Now()
			appendT = append(appendT, t1.Sub(t0))
			appendAt = append(appendAt, t0)
			if rd.tr != nil {
				rd.tr.add("store.append", 0, i, t0, t1)
			}
			if err != nil {
				appendErr = err
				return
			}
		}
	}()

	m := sv.srv.Metrics
	hits0, misses0, resets0 := m.CacheHits.Load(), m.CacheMisses.Load(), m.CacheShardResets.Load()
	rt := readRuntime()
	total := time.Duration(opts.seconds * float64(time.Second))
	refStart := time.Now()
	refDur := time.Duration(float64(total) * readsRefShare)
	ref := rd.step(readsRefRate, refDur, 0, false, opts.trace)
	refEnd := time.Now()
	steps, sustainable := rd.search(total-refDur, ref)
	steps = append(steps, ref)
	close(stopWriter)
	<-writerDone
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	if opts.trace {
		rt.since(res)
	}

	for _, s := range steps {
		res.attempted += len(s.latency)
		if s.non2xx > 0 {
			res.failN(s.non2xx, "%d non-2xx responses at %.0f/s", s.non2xx, s.rate)
		}
		res.attempted += s.checked + len(s.wrong)
		for _, w := range s.wrong {
			res.fail("wrong answer: %s", w)
		}
	}
	if appendErr != nil {
		res.fail("append: %v", appendErr)
	}
	res.attempted += len(appendT)
	// Appends are reported from the reference step only: the rate search
	// offers load up to saturation, and appends beside it would mix two
	// loads into one figure.
	var refAppends []time.Duration
	for i, at := range appendAt {
		if !at.Before(refStart) && at.Before(refEnd) {
			refAppends = append(refAppends, appendT[i])
		}
	}

	// The gated latency is the server's own time per request, the time
	// inside ServeHTTP, and not the time from when each request was due:
	// that also holds the wait behind the client's own previous request on
	// each of its two connections, which grows steeply with the host's
	// speed (README.md, "Left out"). It is the mean over the middle 60% of
	// requests, not their median: the median falls where cached answers
	// meet uncached ones, and a small shift in that mix moved it by a
	// quarter between runs. The trimmed mean moves with the mix in
	// proportion, and leaves out the cache hits below and the renders
	// after each append above.
	svc := summarize(append([]float64(nil), ref.serviceMs...))
	svc.tail = windowedTail(ref.serviceMs, ref.dueAt, readsRefWindow)
	lat := summarize(append([]float64(nil), ref.latency...))
	lat.tail = windowedTail(ref.latency, ref.dueAt, readsRefWindow)
	appendMs := durationsMs(refAppends)
	res.set("latency_ms", trimmedMean(ref.serviceMs, readsTrimLo, readsTrimHi), "ms")
	res.set("latency_ms_tail", svc.tail, "ms")
	res.note("setup_s", setupS, "s")
	res.note("service_ms_p50", svc.p50, "ms")
	res.note("query_us_p50", lat.p50*1000, "us")
	res.note("query_us_p99", lat.tail*1000, "us")
	res.note("query_samples", float64(lat.n), "count")
	res.note("generator_late_ms_max", percentile(ref.late, 1), "ms")
	res.note("sustainable_qps", sustainable, "1/s")
	res.note("append_ms_p50", percentile(appendMs, 0.5), "ms")
	for _, s := range steps {
		t := summarize(append([]float64(nil), s.latency...))
		fmt.Fprintf(stderr, "step %6.0f/s: served %d of %d, p50 %.3fms p%g %.3fms, start late p50 %.3fms, end lag %v\n",
			s.rate, len(s.latency), s.scheduled, t.p50, t.tailPct*100, t.tail, percentile(s.late, 0.5), s.lag.Round(time.Microsecond))
	}
	if !opts.trace {
		return res, nil
	}

	for c, name := range queryClasses {
		res.set("api.query_us_p50."+name, percentile(ref.service[c], 0.50), "us")
		res.set("api.query_us_p99."+name, percentile(ref.service[c], 0.99), "us")
	}
	hits, misses := m.CacheHits.Load()-hits0, m.CacheMisses.Load()-misses0
	if hits+misses > 0 {
		res.set("api.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	}
	res.set("api.cache_shard_resets", float64(m.CacheShardResets.Load()-resets0), "count")
	appendUs := durationsUs(refAppends)
	res.set("store.append_us_p50", percentile(appendUs, 0.50), "us")
	res.set("store.append_us_p99", percentile(appendUs, 0.99), "us")
	if len(appendT) > 0 {
		res.set("store.bytes_per_round", float64(dirSize(archive)-segBytes0)/float64(len(appendT)), "B")
	}
	path, err := rd.tr.write(opts.spanDir, opts.workload, opts.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stderr, "spans:", path)
	return res, nil
}

// search finds the sustainable rate: the highest offered rate at which
// the tail latency stays under readsLimit and the backlog does not grow.
// Coarse steps of readsProbeStep climb from readsSearchFrom (from the
// reference rate if the reference step missed the limit) by readsGrowth
// until one misses the limit; readsBisections steps then
// split the remaining time, each halving the bracket in log space. The
// answer is interpolated in log-log space between the bracket's ends, to
// where the tail crosses the limit, so it moves continuously rather than
// in step sizes.
func (rd *reads) search(budget time.Duration, ref stepStats) ([]stepStats, float64) {
	var steps []stepStats
	start := time.Now()
	offset := 1 << 14
	probe := func(rate float64, dur time.Duration) (stepStats, float64) {
		s := rd.step(rate, dur, offset, true, false)
		offset += int(rate * dur.Seconds())
		steps = append(steps, s)
		return s, stepTail(s)
	}
	limit := ms(readsLimit)
	lo, loTail := 0.0, 0.0
	hi, hiTail := ref.rate, stepTail(ref)
	if hiTail <= limit {
		lo, loTail = hi, hiTail
		hi = max(hi*readsGrowth, readsSearchFrom)
	}
	for lo > 0 {
		if _, t := probe(hi, readsProbeStep); t > limit {
			hiTail = t
			break
		} else {
			lo, loTail = hi, t
		}
		hi *= readsGrowth
		if time.Since(start)+readsProbeStep > budget-readsBisections*readsProbeStep {
			return steps, lo // never missed the limit: report the highest rate offered
		}
	}
	if lo == 0 {
		return steps, hi * limit / hiTail
	}
	fine := max((budget-time.Since(start))/readsBisections, readsProbeStep)
	for i := 0; i < readsBisections; i++ {
		mid := math.Sqrt(lo * hi)
		if _, t := probe(mid, fine); t > limit {
			hi, hiTail = mid, t
		} else {
			lo, loTail = mid, t
		}
	}
	frac := math.Log(limit/loTail) / math.Log(hiTail/loTail)
	return steps, lo * math.Pow(hi/lo, frac)
}

// stepTail is a step's tail latency in ms, or 10× the limit when the
// backlog grew (the step served too few requests or ended late).
func stepTail(s stepStats) float64 {
	if len(s.latency) < s.scheduled*99/100 || s.lag > readsLimit {
		return 10 * ms(readsLimit)
	}
	return windowedTail(s.latency, s.dueAt, readsWindow)
}
