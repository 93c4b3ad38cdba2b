package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1000, 99},
		{999, 95}, // p99 would leave 9 above it
		{10000, 99.9},
		{100, 90},
		{99, 75},
		{50, 75},
		{40, 75},
		{39, 50},
		{5, 50},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for n := 20; n <= 5000; n++ {
		p := tailPercentile(n)
		if beyond := n - nearestRank(p, n); beyond < minBeyond {
			t.Fatalf("n=%d: p%v leaves %d samples beyond", n, p, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples above it)", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestZipfMatchesItsDistribution(t *testing.T) {
	const k, draws = 256, 200000
	z := newZipf(k, 1.0)
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, k)
	for i := 0; i < draws; i++ {
		counts[z.rank(rng)]++
	}
	var h float64
	for i := 1; i <= k; i++ {
		h += 1 / float64(i)
	}
	for _, r := range []int{0, 1, 9, 99} {
		want := draws / (float64(r+1) * h)
		if got := float64(counts[r]); math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("rank %d drawn %v times, want %.0f ± %.0f", r, got, want, 5*math.Sqrt(want))
		}
	}
	for i := 1; i < k; i++ {
		if z.cdf[i] < z.cdf[i-1] {
			t.Fatalf("cdf decreases at %d", i)
		}
	}
	if z.cdf[k-1] != 1 {
		t.Errorf("cdf ends at %v, want 1", z.cdf[k-1])
	}
}

func TestZipfIsSeeded(t *testing.T) {
	z := newZipf(256, 1.0)
	a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if z.rank(a) != z.rank(b) {
			t.Fatal("same seed drew different ranks")
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	// A cache miss: the cache span [10,100) waits on a queue span, two
	// overlapping iteration spans and a demux; admission runs before it.
	spans := []span{
		{kind: "admission", start: 0, dur: 5},
		{kind: "cache", start: 10, dur: 90},
		{kind: "queue", start: 12, dur: 8},      // [12,20)
		{kind: "iteration", start: 30, dur: 20}, // [30,50)
		{kind: "iteration", start: 40, dur: 20}, // [40,60) overlaps the first
		{kind: "demux", start: 95, dur: 10},     // [95,105) sticks out of the parent
	}
	// Children span [12,100) once the demux is clipped: 2ns of lookup
	// before the queue, the gaps between children charged to the engine.
	if got := selfNs(spans, 1); got != 2 {
		t.Errorf("cache self = %d, want 2", got)
	}
	if got := selfNs(spans, 0); got != 5 {
		t.Errorf("admission self = %d, want 5 (no children)", got)
	}
	if got := selfNs(spans, 2); got != 8 {
		t.Errorf("leaf self = %d, want its duration", got)
	}
	if got := unspannedNs(spans, 120); got != 120-5-90 {
		t.Errorf("unspanned = %d, want %d", got, 120-5-90)
	}
}

func TestCoveredNsMergesIntervals(t *testing.T) {
	spans := []span{{start: 0, dur: 10}, {start: 5, dur: 10}, {start: 20, dur: 5}, {start: 22, dur: 1}}
	if got := coveredNs(spans, 0, 100); got != 20 {
		t.Errorf("covered = %d, want 20", got)
	}
	if got := coveredNs(spans, 8, 21); got != 8 {
		t.Errorf("clipped covered = %d, want 8", got)
	}
	if got := coveredNs(nil, 0, 10); got != 0 {
		t.Errorf("empty covered = %d", got)
	}
}

func TestMetricsDelta(t *testing.T) {
	var before, after metricsSnapshot
	mustUnmarshal(t, `{"counters":{"batch.flushes":10,"batch.flushes_deadline":4},
		"histograms":{"batch.size":{"count":10,"sum":12,"p50":1}}}`, &before)
	mustUnmarshal(t, `{"counters":{"batch.flushes":30,"batch.flushes_deadline":9,"server.cache.hits":7},
		"gauges":{"server.inflight":1},
		"histograms":{"batch.size":{"count":30,"sum":92,"p50":4}}}`, &after)
	d := deltaSince(before, after)
	if got := d.counters["batch.flushes"]; got != 20 {
		t.Errorf("flushes delta = %d, want 20", got)
	}
	if got := d.counters["server.cache.hits"]; got != 7 {
		t.Errorf("new counter delta = %d, want 7", got)
	}
	if got := d.histMean("batch.size"); got != 4 {
		t.Errorf("batch.size mean over the delta = %v, want 80/20 = 4", got)
	}
	if got := d.histMean("missing"); got != 0 {
		t.Errorf("mean of an absent histogram = %v, want 0", got)
	}
}

func TestTopDescendingTiesToLowerID(t *testing.T) {
	got := topDescending([]float64{1, 3, 2, 3, 0.5}, 3)
	want := []topEntry{{1, 3}, {3, 3}, {2, 2}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("top = %v, want %v", got, want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	mustUnmarshal(t, string(raw), &spec)
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(workloadOrder) != len(workloads) {
		t.Errorf("--workload all runs %d workloads, the benchmark implements %d", len(workloadOrder), len(workloads))
	}
	for _, name := range workloadOrder {
		if workloads[name] == nil {
			t.Errorf("--workload all names %q, which is not implemented", name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark implements %d", len(spec.Workloads), len(workloads))
	}
}

func mustUnmarshal(t *testing.T, s string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(s), v); err != nil {
		t.Fatal(err)
	}
}
