package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one batch or round share
// a group id; Parent is the id of the span that caused this one (0 for a
// root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Group  int    `json:"group"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(name string, parent, group int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Group: group, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// layerOf maps a span name ("bgp.apply") to its layer ("bgp").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = time.Duration(s.End-s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curStart, curEnd, open = s, e, true
		case s > curEnd:
			total += curEnd - curStart
			curStart, curEnd = s, e
		default:
			curEnd = max(curEnd, e)
		}
	}
	if open {
		total += curEnd - curStart
	}
	return time.Duration(total)
}

// selfByLayer sums self time per layer, in milliseconds.
func selfByLayer(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[layerOf(s.Name)] += ms(self[s.ID])
	}
	return out
}

// layerSumRatio is the layer-sum check over a traced stream run's spans.
// Each api.sse_write span is one (update, subscriber) pair, and its parent
// is its batch's stream.batch root, which starts when the batch's last
// event was due. The pair's delivery span runs from the root's start to
// the write's end. The layers along its blocking path are every
// descendant of the root other than the SSE writes, plus this write. The
// ratio is the sum of their self times over the sum of the delivery
// spans, pooled over all pairs: a missing or mis-parented layer span
// leaves a gap and lowers it, overlapping spans count twice and raise it.
// The root's own self time is the unattributed part, so it is left out.
// orphans counts SSE writes whose parent is not a batch root.
func layerSumRatio(spans []span) (ratio float64, orphans int) {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) span {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s
	}
	layers := map[int]time.Duration{} // batch root id → its layers' self time
	for _, s := range spans {
		if s.Parent == 0 || s.Name == "api.sse_write" {
			continue
		}
		if r := rootOf(s); r.Name == "stream.batch" {
			layers[r.ID] += self[s.ID]
		}
	}
	var sum, delivery time.Duration
	for _, s := range spans {
		if s.Name != "api.sse_write" {
			continue
		}
		root, ok := byID[s.Parent]
		if !ok || root.Name != "stream.batch" {
			orphans++
			continue
		}
		sum += layers[root.ID] + self[s.ID]
		delivery += time.Duration(s.End - root.Start)
	}
	if delivery <= 0 {
		return 0, orphans
	}
	return float64(sum) / float64(delivery), orphans
}

// write stores the spans and their per-layer self times under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+"-seed"+itoa(seed)+".json")
	b, err := json.Marshal(map[string]any{
		"workload":         workload,
		"seed":             seed,
		"self_ms_by_layer": selfByLayer(t.spans),
		"spans":            t.spans,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
