package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a timing may be reported at, highest
// first. The benchmark reports the highest one with at least minBeyond
// samples above it, so a tail value never rests on a handful of samples.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

const minBeyond = 10

// tailPercentile returns the highest ladder percentile that leaves at
// least minBeyond of n samples beyond it, or 0 when even the median
// does not (fewer than 2×minBeyond samples).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// beyond is the number of samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	return n - rank(n, p) - 1
}

// rank is the index of the nearest-rank p-th percentile in n sorted
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n))) - 1
	return min(max(r, 0), n-1)
}

// percentile returns the nearest-rank p-th percentile of xs, sorting xs in
// place; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	return xs[rank(len(xs), p)]
}

// timing summarizes latency samples the way every end-to-end timing is
// reported: the median and the tail percentile the sample count supports.
type timing struct {
	n        int
	p50      float64
	tail     float64
	tailPct  float64
	max, sum float64
}

func summarize(xs []float64) timing {
	t := timing{n: len(xs)}
	if len(xs) == 0 {
		return t
	}
	t.p50 = percentile(xs, 0.5)
	t.tailPct = tailPercentile(len(xs))
	if t.tailPct == 0 {
		t.tailPct = 0.5
	}
	t.tail = percentile(xs, t.tailPct)
	t.max = xs[len(xs)-1]
	for _, x := range xs {
		t.sum += x
	}
	return t
}

// windowedTail splits samples by when they were due (seconds into the
// run) into windows of the given length, takes each window's tail (the
// highest percentile with ten samples beyond it) and returns the median
// of those. A tail made of a few slow events — the render bursts after
// each append on reads-10k — then reads the typical window's slow events,
// rather than the one burst that met a stall of the host.
func windowedTail(xs, dueAt []float64, window time.Duration) float64 {
	windows := map[int][]float64{}
	for i, at := range dueAt {
		w := int(at / window.Seconds())
		windows[w] = append(windows[w], xs[i])
	}
	var tails []float64
	for _, w := range windows {
		tails = append(tails, summarize(w).tail)
	}
	return median(tails)
}

// trimmedMean returns the mean of the samples of xs from its lo-th to its
// hi-th quantile, without reordering xs; 0 for no samples.
func trimmedMean(xs []float64, lo, hi float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	i, j := int(lo*float64(len(c))), int(math.Ceil(hi*float64(len(c))))
	if j <= i {
		return 0
	}
	sum := 0.0
	for _, x := range c[i:j] {
		sum += x
	}
	return sum / float64(j-i)
}

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (the mean of the middle two for an even
// count, as Python's statistics.median) without reordering xs.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method)
// does, the spread definition the benchmark's stability rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	ld := len(c)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return c[0], c[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (c[j-1]*(n-delta) + c[j]*delta) / n
	}
	return at(1), at(3)
}
