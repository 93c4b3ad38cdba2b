package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise, not a measurement.
const minBeyond = 10

// percentileLadder lists the percentiles a tail may be reported at, highest
// first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of percentileLadder that
// has at least minBeyond of n samples above it under the nearest-rank
// rule, or 50 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range percentileLadder {
		if n-nearestRank(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// nearestRank is the 1-based rank of the p-th percentile of n sorted
// samples: the smallest rank whose share of samples at or below it reaches
// p percent.
func nearestRank(p float64, n int) int {
	// The epsilon keeps p*n/100 from landing a rounding error above a
	// whole rank (99.9% of 10000 must be rank 9990, not 9991).
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (NaN when
// empty). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}

// median is the middle sample, or the mean of the two middle samples for
// an even count (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// zipf draws ranks 0..k-1 with probability proportional to 1/(rank+1)^s
// by inverse-CDF lookup. Unlike math/rand.Zipf it accepts s = 1.
type zipf struct {
	cdf []float64
}

func newZipf(k int, s float64) *zipf {
	cdf := make([]float64, k)
	var sum float64
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

// rank draws one rank using rng.
func (z *zipf) rank(rng *rand.Rand) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// span is one timed interval inside a request trace, in nanoseconds from
// the trace's start.
type span struct {
	kind       string
	start, dur int64
}

func (s span) end() int64 { return s.start + s.dur }

// spanLevel places each span kind the server records in the request's
// call tree: level 1 spans run directly under the handler, level 2 spans
// run inside a level 1 span (the batcher and engine work a cache miss
// waits on). Unknown kinds are level 0 and never count as children.
var spanLevel = map[string]int{
	"admission":  1,
	"cache":      1,
	"queue":      2,
	"fuse":       2,
	"pre_phase":  2,
	"iteration":  2,
	"exchange":   2,
	"post_phase": 2,
	"demux":      2,
	"refine":     2,
}

// coveredNs is the length of the union of the intervals of spans, clipped
// to [lo, hi).
func coveredNs(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end(), hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfNs returns the self time of spans[i]: its duration minus the hull
// of the spans one level below it (first start to last end, clipped to
// the parent). The hull, not the union: the engine records spans for its
// phases and iterations but not for the planning and copying between
// them, and that time belongs to the engine, not to the span waiting on it.
func selfNs(spans []span, i int) int64 {
	p := spans[i]
	lvl := spanLevel[p.kind]
	lo, hi := p.end(), p.start
	for j, c := range spans {
		if j == i || lvl == 0 || spanLevel[c.kind] != lvl+1 {
			continue
		}
		a, b := max(c.start, p.start), min(c.end(), p.end())
		if a < b {
			lo, hi = min(lo, a), max(hi, b)
		}
	}
	if lo >= hi {
		return p.dur
	}
	return p.dur - (hi - lo)
}

// unspannedNs is the part of a request's total handler time that no level
// 1 span covers: decoding, parsing, top-K shaping and encoding.
func unspannedNs(spans []span, totalNs int64) int64 {
	var top []span
	for _, s := range spans {
		if spanLevel[s.kind] == 1 {
			top = append(top, s)
		}
	}
	return totalNs - coveredNs(top, 0, totalNs)
}

// histStats is the part of a /metrics histogram the benchmark reads.
type histStats struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

// metricsSnapshot is the JSON body of mixenserve's /metrics.
type metricsSnapshot struct {
	Counters   map[string]int64     `json:"counters"`
	Gauges     map[string]int64     `json:"gauges"`
	Histograms map[string]histStats `json:"histograms"`
}

// metricsDelta is what happened between two /metrics snapshots.
type metricsDelta struct {
	counters map[string]int64
	hists    map[string]histStats
}

// deltaSince returns after minus before for every counter and histogram in
// after; a name missing from before counts from zero.
func deltaSince(before, after metricsSnapshot) metricsDelta {
	d := metricsDelta{counters: map[string]int64{}, hists: map[string]histStats{}}
	for k, v := range after.Counters {
		d.counters[k] = v - before.Counters[k]
	}
	for k, v := range after.Histograms {
		b := before.Histograms[k]
		d.hists[k] = histStats{Count: v.Count - b.Count, Sum: v.Sum - b.Sum}
	}
	return d
}

// histMean is the mean of the samples observed by histogram name in the
// delta (0 when none were).
func (d metricsDelta) histMean(name string) float64 {
	h := d.hists[name]
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
