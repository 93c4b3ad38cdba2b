package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"mixen/internal/algo"
	"mixen/internal/analyze"
	"mixen/internal/baseline"
	"mixen/internal/core"
	"mixen/internal/gen"
	"mixen/internal/graph"
	"mixen/internal/vprog"
)

// setupRepeats is how many times an analytic workload builds its engine;
// setup_s is the median build.
const setupRepeats = 11

// foldTol bounds the relative difference between Mixen and the pull
// baseline: both sum the same terms in different orders.
const foldTol = 1e-9

// cfCheckIters is the iteration count of the CF cross-check against the
// pull baseline, which is too slow to run the timed 100 iterations every
// time; the timed CF runs are instead checked bit for bit against the
// cross-checked engine's own first run.
const cfCheckIters = 10

// analyticOp is one kind of engine run an analytic workload repeats.
type analyticOp struct {
	name string
	// prog builds the program for the i-th run of this op.
	prog func(i int) vprog.Program
	// check verifies the i-th run's values.
	check func(i int, vals []float64) error
}

// analyticRun is what one analytic pass measured.
type analyticRun struct {
	setup    []float64 // seconds per engine build
	filter   []float64 // ms per build
	part     []float64 // ms per build
	memMB    float64
	eng      *core.Engine
	wall     [2][]float64 // ms per run: primary, heavy
	stats    [2][]core.RunStats
	warmup   [2]core.RunStats
	attempts int
	failures int
}

// loadGraph generates a preset (untimed input layer).
func loadGraph(preset string, shrink int) (*graph.Graph, error) {
	p, err := gen.ByName(preset)
	if err != nil {
		return nil, err
	}
	return p.Build(shrink)
}

// buildEngines builds the engine setupRepeats times and keeps the last.
// Its memory is the graph's arrays plus the live heap the builds added,
// so references the benchmark holds do not count.
func buildEngines(g *graph.Graph, traced bool, r *analyticRun) error {
	before := liveHeap()
	for i := 0; i < setupRepeats; i++ {
		r.eng = nil
		runtime.GC()
		t0 := time.Now()
		e, err := core.New(g, core.Config{Trace: traced})
		el := time.Since(t0)
		if err != nil {
			return fmt.Errorf("core.New: %w", err)
		}
		r.eng = e
		r.setup = append(r.setup, el.Seconds())
		r.filter = append(r.filter, ms(e.Prep.FilterTime))
		r.part = append(r.part, ms(e.Prep.PartitionTime))
	}
	graphBytes := 8*len(g.OutPtr) + 4*len(g.OutIdx) + 8*len(g.InPtr) + 4*len(g.InIdx)
	r.memMB = float64(liveHeap()-before+int64(graphBytes)) / (1 << 20)
	return nil
}

// liveHeap returns the bytes of live heap objects. Two collections: the
// first moves sync.Pool contents to the victim cache, the second frees
// them, so buffers pooled by earlier runs do not count.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// runAnalytic builds the engine, warms both ops, then alternates them
// until the window closes.
func runAnalytic(g *graph.Graph, ops [2]analyticOp, window time.Duration, traced bool) (*analyticRun, error) {
	r := &analyticRun{}
	if err := buildEngines(g, traced, r); err != nil {
		return nil, err
	}
	once := func(k, i int) (core.RunStats, time.Duration, error) {
		op := ops[k]
		t0 := time.Now()
		res, st, err := r.eng.RunWithStats(op.prog(i))
		el := time.Since(t0)
		r.attempts++
		if err == nil {
			err = op.check(i, res.Values)
		}
		if err != nil {
			r.failures++
			return st, el, fmt.Errorf("%s run %d: %w", op.name, i, err)
		}
		return st, el, nil
	}
	// Warm-up: the first run of each width allocates its workspace.
	for k := range ops {
		st, _, err := once(k, 0)
		if err != nil {
			return r, err
		}
		r.warmup[k] = st
	}
	deadline := time.Now().Add(window)
	for i := 1; time.Now().Before(deadline) || len(r.wall[1]) == 0; i++ {
		for k := range ops {
			st, el, err := once(k, i)
			if err != nil {
				return r, err
			}
			r.wall[k] = append(r.wall[k], ms(el))
			r.stats[k] = append(r.stats[k], st)
		}
	}
	return r, nil
}

// e2e returns the run's end-to-end metrics.
func (r *analyticRun) e2e() map[string]float64 {
	return map[string]float64{
		"setup_s": median(r.setup),
		"mem_mb":  r.memMB,
		"p50_ms":  median(r.wall[0]),
		"slow_ms": median(r.wall[1]),
	}
}

// layers returns the per-layer metrics of the primary op; counts come from
// its warm-up run, whose input no seed changes, so they repeat exactly.
func (r *analyticRun) layers() map[string]float64 {
	var pre, post, iterMs, scatter, cache, gather []float64
	for _, st := range r.stats[0] {
		pre = append(pre, ms(st.PreTime))
		post = append(post, ms(st.PostTime))
		iterMs = append(iterMs, ms(st.MainTime)/float64(st.MainIterations))
		var s, c, ga int64
		for _, it := range st.Trace {
			s += it.ScatterNs
			c += it.CacheNs
			ga += it.GatherNs
		}
		scatter = append(scatter, float64(s)/1e6)
		cache = append(cache, float64(c)/1e6)
		gather = append(gather, float64(ga)/1e6)
	}
	first := r.warmup[0]
	bytesPerIter := float64(r.eng.TrafficPerIteration())
	return map[string]float64{
		"filter.ms":                 median(r.filter),
		"block.partition_ms":        median(r.part),
		"block.sub_blocks":          float64(len(r.eng.P.Blocks)),
		"block.compressed_entries":  float64(r.eng.P.CompressedEntries),
		"core.pre_ms":               median(pre),
		"core.post_ms":              median(post),
		"core.main_iter_ms":         median(iterMs),
		"core.iterations":           float64(first.MainIterations),
		"core.scatter_ms":           median(scatter),
		"core.cache_ms":             median(cache),
		"core.gather_apply_ms":      median(gather),
		"core.scatter_entries":      float64(first.ScatterEntries),
		"core.gather_edges":         float64(first.GatherEdges),
		"core.work_amplification":   ratio(float64(first.GatherEdges), float64(first.ScatterEntries)),
		"core.sparse_row_share":     ratio(float64(first.SparseRowIterations), float64(first.SparseRowIterations+first.DenseRowIterations)),
		"core.model_bytes_per_iter": bytesPerIter,
		"core.model_gbps":           bytesPerIter / (median(iterMs) * 1e-3) / 1e9,
	}
}

// runDenseWiki is the dense-wiki workload: PageRank (tol 0, 100
// iterations) and CF (k=8, 100 iterations) on the full-size wiki preset.
func runDenseWiki(seed int64, window time.Duration, traced bool) (*outcome, error) {
	g, err := cachedGraph("wiki", 1)
	if err != nil {
		return nil, err
	}
	ref, err := denseReferences(g)
	if err != nil {
		return nil, err
	}
	var prFirst, cfFirst []float64
	ops := [2]analyticOp{
		{
			name: "pagerank",
			prog: func(int) vprog.Program { return algo.NewPageRank(g, 0.85, 0, 100) },
			check: func(i int, vals []float64) error {
				if i == 0 {
					prFirst = vals
					return within(vals, ref.pr, foldTol)
				}
				return identical(vals, prFirst)
			},
		},
		{
			name: "cf",
			prog: func(int) vprog.Program { return algo.NewCF(g, 8, 100) },
			check: func(i int, vals []float64) error {
				if i == 0 {
					cfFirst = vals
					return nil
				}
				return identical(vals, cfFirst)
			},
		},
	}
	r, err := runAnalytic(g, ops, window, traced)
	if err == nil {
		// The engine the timed CF runs used passes the short cross-check.
		var res *vprog.Result
		res, err = r.eng.Run(algo.NewCF(g, 8, cfCheckIters))
		r.attempts++
		if err == nil {
			err = within(res.Values, ref.cf, foldTol)
		}
		if err != nil {
			r.failures++
			err = fmt.Errorf("cf cross-check: %w", err)
		}
	}
	return analyticOutcome(g, r, traced, [2]string{"pr_run_s", "cf_run_s"}, err)
}

// denseRefs are the pull-baseline results dense-wiki is checked against.
type denseRefs struct{ pr, cf []float64 }

var denseRefCache *denseRefs

// denseReferences runs the GraphMat-like pull engine once per process.
func denseReferences(g *graph.Graph) (*denseRefs, error) {
	if denseRefCache != nil {
		return denseRefCache, nil
	}
	pull := baseline.NewPull(g, 0)
	pr, err := pullReference(g, pull, algo.NewPageRank(g, 0.85, 0, 100))
	if err != nil {
		return nil, fmt.Errorf("pull pagerank: %w", err)
	}
	cf, err := pullReference(g, pull, algo.NewCF(g, 8, cfCheckIters))
	if err != nil {
		return nil, fmt.Errorf("pull cf: %w", err)
	}
	denseRefCache = &denseRefs{pr: pr, cf: cf}
	return denseRefCache, nil
}

// pullReference runs a Sum-ring prog on the pull engine and then advances
// every sink one more pull step: Mixen's post-phase computes a sink once
// from its in-neighbours' final values, which for the sink is the pull
// engine's iteration T+1.
func pullReference(g *graph.Graph, pull *baseline.Pull, prog vprog.Program) ([]float64, error) {
	res, err := pull.Run(prog)
	if err != nil {
		return nil, err
	}
	vals := res.Values
	out := append([]float64(nil), vals...)
	w := prog.Width()
	sum := make([]float64, w)
	cls := analyze.Classify(g)
	for v, c := range cls.Class {
		if c != analyze.Sink {
			continue
		}
		for l := range sum {
			sum[l] = 0
		}
		for _, u := range g.InNeighbors(uint32(v)) {
			sc := prog.Scale(u)
			for l := range sum {
				sum[l] += vals[int(u)*w+l] * sc
			}
		}
		prog.Apply(uint32(v), sum, vals[v*w:v*w+w], out[v*w:v*w+w])
	}
	return out, nil
}

// runSparseRoad is the sparse-road workload: BFS to completion from
// seeded sources, and connected components, on the road preset.
func runSparseRoad(seed int64, window time.Duration, traced bool) (*outcome, error) {
	g, err := cachedGraph("road", 4)
	if err != nil {
		return nil, err
	}
	probe, sources := bfsSources(g, seed, 32)
	source := func(i int) uint32 {
		if i == 0 {
			return probe
		}
		return sources[(i-1)%len(sources)]
	}
	ccRef := serialCC(g)
	ops := [2]analyticOp{
		{
			name:  "bfs",
			prog:  func(i int) vprog.Program { return algo.NewBFS(g, source(i)) },
			check: func(i int, vals []float64) error { return identical(vals, serialBFS(g, source(i))) },
		},
		{
			name:  "cc",
			prog:  func(int) vprog.Program { return algo.NewCC(g) },
			check: func(_ int, vals []float64) error { return identical(vals, ccRef) },
		},
	}
	r, err := runAnalytic(g, ops, window, traced)
	return analyticOutcome(g, r, traced, [2]string{"bfs_run_s", "cc_run_s"}, err)
}

// bfsSources returns the warm-up source and the middle band, by BFS
// depth, of k sources drawn from the seed.
//
// The warm-up source is fixed — the first node with out-edges from the
// middle id on — so the work counts taken from the warm-up run do not
// depend on the seed. A BFS runs one round per level, and on the road
// grid the deepest source needs twice the rounds of the shallowest; a
// window fits only about nine runs, so their median would follow the
// depths the seed happened to draw. Timing the middle quarter of the draw
// makes it the BFS time of a typical source.
func bfsSources(g *graph.Graph, seed int64, k int) (uint32, []uint32) {
	var cand []uint32
	for u := 0; u < g.NumNodes(); u++ {
		if g.OutDegree(uint32(u)) > 0 {
			cand = append(cand, uint32(u))
		}
	}
	mid := cand[sort.Search(len(cand), func(i int) bool { return int(cand[i]) >= g.NumNodes()/2 })]
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	pool := cand[:min(k, len(cand))]
	depth := make(map[uint32]float64, len(pool))
	for _, s := range pool {
		for _, d := range serialBFS(g, s) {
			if !math.IsInf(d, 1) {
				depth[s] = max(depth[s], d)
			}
		}
	}
	sort.SliceStable(pool, func(i, j int) bool { return depth[pool[i]] < depth[pool[j]] })
	return mid, pool[len(pool)*3/8 : len(pool)*5/8]
}

// analyticOutcome packages a run (possibly failed part-way) as an outcome.
func analyticOutcome(g *graph.Graph, r *analyticRun, traced bool, alias [2]string, err error) (*outcome, error) {
	if r == nil {
		return nil, err
	}
	o := &outcome{
		attempted: r.attempts,
		failed:    r.failures,
		err:       err,
		alias:     alias,
		nodes:     g.NumNodes(),
		edges:     g.NumEdges(),
	}
	if err != nil {
		return o, err
	}
	o.e2e = r.e2e()
	o.notes = append(o.notes,
		fmt.Sprintf("runs: %d primary, %d heavy", len(r.wall[0]), len(r.wall[1])))
	if traced {
		o.layers = r.layers()
	}
	return o, nil
}

var graphCache = map[string]*graph.Graph{}

// cachedGraph generates each preset once per process; the traced run's two
// halves share it.
func cachedGraph(preset string, shrink int) (*graph.Graph, error) {
	key := fmt.Sprintf("%s/%d", preset, shrink)
	if g, ok := graphCache[key]; ok {
		return g, nil
	}
	g, err := loadGraph(preset, shrink)
	if err != nil {
		return nil, err
	}
	graphCache[key] = g
	return g, nil
}

// serialBFS is the obviously-correct reference: hop counts from src over
// out-edges, +Inf where unreachable.
func serialBFS(g *graph.Graph, src uint32) []float64 {
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	queue := []uint32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.OutNeighbors(u) {
			if math.IsInf(dist[v], 1) {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// serialCC labels every node with the smallest id that reaches it along
// directed paths (on the symmetric road graph: its component's smallest
// id), by BFS from each node in increasing id order.
func serialCC(g *graph.Graph) []float64 {
	label := make([]float64, g.NumNodes())
	for i := range label {
		label[i] = -1
	}
	for s := 0; s < g.NumNodes(); s++ {
		if label[s] >= 0 {
			continue
		}
		label[s] = float64(s)
		queue := []uint32{uint32(s)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.OutNeighbors(u) {
				if label[v] < 0 {
					label[v] = float64(s)
					queue = append(queue, v)
				}
			}
		}
	}
	return label
}

// identical reports the first element where got and want differ bit for
// bit.
func identical(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("value %d: got %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// within reports the first element where got and want differ by more than
// tol relative to want.
func within(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > tol*math.Abs(want[i]) || math.IsNaN(d) {
			return fmt.Errorf("value %d: got %v, want %v (relative tolerance %g)", i, got[i], want[i], tol)
		}
	}
	return nil
}
