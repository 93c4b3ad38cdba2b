package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mixen"
	"mixen/internal/algo"
	"mixen/internal/graph"
	"mixen/internal/vprog"
)

// Serving workload shape.
const (
	serveShrink    = 16
	cacheBytes     = 64 << 20
	conns          = 2 // connections and sender goroutines: nproc on the host of record
	serveSetups    = 9 // server cold starts per pass; setup_s is their median
	topK           = 10
	hotSetSize     = 256
	hotZipfS       = 1.0
	uniformEvery   = 10   // every 10th serve-hot request draws a uniform source
	hotRate        = 50.0 // requests per second
	hotCheckEvery  = 11   // coprime to uniformEvery, so hits and misses are both checked
	coldRate       = 5.0
	coldSources    = 4
	coldCheckEvery = 5
	fuseWidth      = 8 // mixenserve's default -batch: sources per warm request and per reference run
	clientTimeout  = 10 * time.Second
	overrun        = 30 * time.Second
	// lateBound is how far behind its schedule the generator may fall at
	// p99 before a run is invalid: past it, latency from due time measures
	// the benchmark process, not the server.
	lateBound = 20 * time.Millisecond
	// pprDamping, pprTol and pprIters are mixenserve's query defaults.
	pprDamping = 0.85
	pprTol     = 1e-9
	pprIters   = 100
)

// serveBin and serveWork are the binaries directory and scratch directory
// (set from flags).
var serveBin, serveWork string

// request is one scheduled query.
type request struct {
	due     time.Duration // offset from the window start
	sources []uint32
	check   bool // compare top-10 with the in-process reference
}

// response is what the generator observed for one request.
type response struct {
	sent, done time.Time
	latency    time.Duration // done - due
	late       time.Duration // dispatch - due
	err        error
	cached     []bool
	iterations []int
}

// server is one running mixenserve process.
type server struct {
	cmd  *exec.Cmd
	addr string
	exit chan error
}

// startServer execs mixenserve on partition and waits for /readyz.
func startServer(partition string, traced bool, ring int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-partition", partition, "-addr", addr, "-cache-size", strconv.Itoa(cacheBytes)}
	if traced {
		args = append(args, "-trace-sample", "1", "-trace-ring", strconv.Itoa(ring))
	}
	cmd := exec.Command(filepath.Join(serveBin, "mixenserve"), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mixenserve: %w", err)
	}
	s := &server{cmd: cmd, addr: addr, exit: make(chan error, 1)}
	go func() { s.exit <- cmd.Wait() }()
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get("http://" + addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.exit:
			s.exit <- err
			return nil, fmt.Errorf("mixenserve exited before ready: %v", err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("mixenserve not ready within 30s")
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills after 10s.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exit:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exit
	}
}

// peakRSSMiB reads the process's VmHWM.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (s *server) getJSON(path string, v any) error {
	c := &http.Client{Timeout: 30 * time.Second}
	resp, err := c.Get("http://" + s.addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveInput is the generated graph shared by both halves of a traced
// run: written once as the binary mixenconvert reads.
type serveInput struct {
	g      *graph.Graph
	binary string
	hot    []uint32 // highest out-degree nodes, descending
	active []uint32 // nodes with out-degree > 0
}

var serveInputCache *serveInput

func loadServeInput() (*serveInput, error) {
	if serveInputCache != nil {
		return serveInputCache, nil
	}
	g, err := loadGraph("wiki", serveShrink)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(serveWork, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(serveWork, "wiki16.bin")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	err = g.WriteBinary(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("write %s: %w", path, err)
	}
	in := &serveInput{g: g, binary: path}
	for u := 0; u < g.NumNodes(); u++ {
		if g.OutDegree(uint32(u)) > 0 {
			in.active = append(in.active, uint32(u))
		}
	}
	byDeg := append([]uint32(nil), in.active...)
	sort.SliceStable(byDeg, func(i, j int) bool { return g.OutDegree(byDeg[i]) > g.OutDegree(byDeg[j]) })
	in.hot = byDeg[:min(hotSetSize, len(byDeg))]
	serveInputCache = in
	return in, nil
}

// servePass is what one serving pass measured.
type servePass struct {
	convert, ready []float64 // seconds per cold start
	memMB          float64
	reqs           []request
	resps          []response
	windowStart    time.Time
	delta          metricsDelta
	traces         []traceSnap
}

var partitionSeq int

// setUp converts the graph and cold-starts the server serveSetups times,
// keeping the last server and its partition file; the caller stops and
// removes both, also on error.
func setUp(in *serveInput, p *servePass, traced bool, ring int) (srv *server, part string, err error) {
	for i := 0; i < serveSetups; i++ {
		srv.stop()
		srv = nil
		if part != "" {
			os.Remove(part)
		}
		partitionSeq++
		part = filepath.Join(serveWork, fmt.Sprintf("wiki16-%d.mixp", partitionSeq))
		t0 := time.Now()
		out, err := exec.Command(filepath.Join(serveBin, "mixenconvert"), "-in", in.binary, "-partition", part).CombinedOutput()
		conv := time.Since(t0)
		if err != nil {
			return nil, part, fmt.Errorf("mixenconvert: %v: %s", err, out)
		}
		t1 := time.Now()
		if srv, err = startServer(part, traced, ring); err != nil {
			return nil, part, err
		}
		p.convert = append(p.convert, conv.Seconds())
		p.ready = append(p.ready, time.Since(t1).Seconds())
	}
	return srv, part, nil
}

// references computes the top-10 of every checked source with an
// in-process engine over the same partition file, fused eight at a time.
func references(part string, reqs []request) (map[uint32][]topEntry, error) {
	me, err := mixen.OpenPartition(part, mixen.Config{})
	if err != nil {
		return nil, err
	}
	defer me.Close()
	var need []uint32
	seen := map[uint32]bool{}
	for _, r := range reqs {
		if !r.check {
			continue
		}
		for _, s := range r.sources {
			if !seen[s] {
				seen[s] = true
				need = append(need, s)
			}
		}
	}
	n := me.F.N()
	refs := map[uint32][]topEntry{}
	for lo := 0; lo < len(need); lo += fuseWidth {
		batch := need[lo:min(lo+fuseWidth, len(need))]
		progs := make([]vprog.Program, len(batch))
		for i, s := range batch {
			progs[i] = mixen.NewPersonalizedPageRankProgramShared(n, me.OutDegrees(), s, pprDamping, pprTol, pprIters)
		}
		res, err := algo.RunBatch(me.MixenEngine, n, progs...)
		if err != nil {
			return nil, fmt.Errorf("reference ppr: %w", err)
		}
		for i, s := range batch {
			refs[s] = topDescending(res[i].Values, topK)
		}
	}
	return refs, nil
}

// topEntry is one (node, value) pair of a top-K answer.
type topEntry struct {
	Node  uint32  `json:"node"`
	Value float64 `json:"value"`
}

// topDescending selects the k largest values, ties to the lower node id,
// in descending order — the order mixenserve documents for top=.
func topDescending(vals []float64, k int) []topEntry {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	out := make([]topEntry, 0, k)
	for _, i := range idx[:min(k, len(idx))] {
		out = append(out, topEntry{Node: uint32(i), Value: vals[i]})
	}
	return out
}

// queryBody is the part of a /v1/query response the benchmark reads.
type queryBody struct {
	Results []struct {
		Iterations int        `json:"iterations"`
		Cached     bool       `json:"cached"`
		Top        []topEntry `json:"top"`
	} `json:"results"`
}

func queryPath(sources []uint32) string {
	parts := make([]string, len(sources))
	for i, s := range sources {
		parts[i] = strconv.FormatUint(uint64(s), 10)
	}
	return fmt.Sprintf("/v1/query?algo=ppr&top=%d&sources=%s", topK, strings.Join(parts, ","))
}

// query sends one request and checks its answer against refs when asked.
// It records in done when the last response byte arrived.
func query(c *http.Client, addr string, r request, refs map[uint32][]topEntry, done *time.Time) (queryBody, error) {
	var body queryBody
	resp, err := c.Get("http://" + addr + queryPath(r.sources))
	if err != nil {
		*done = time.Now()
		return body, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	*done = time.Now()
	if err != nil {
		return body, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		return body, err
	}
	if len(body.Results) != len(r.sources) {
		return body, fmt.Errorf("%d results for %d sources", len(body.Results), len(r.sources))
	}
	if !r.check {
		return body, nil
	}
	for i, res := range body.Results {
		want := refs[r.sources[i]]
		if len(res.Top) != len(want) {
			return body, fmt.Errorf("source %d: %d top entries, want %d", r.sources[i], len(res.Top), len(want))
		}
		for j := range want {
			if res.Top[j].Node != want[j].Node || math.Float64bits(res.Top[j].Value) != math.Float64bits(want[j].Value) {
				return body, fmt.Errorf("source %d: top[%d] = %v, reference %v", r.sources[i], j, res.Top[j], want[j])
			}
		}
	}
	return body, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   clientTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// warm sends every source once, fuseWidth per request, on one connection.
func warm(addr string, sources []uint32) error {
	c := newClient()
	defer c.CloseIdleConnections()
	for lo := 0; lo < len(sources); lo += fuseWidth {
		r := request{sources: sources[lo:min(lo+fuseWidth, len(sources))]}
		var done time.Time
		if _, err := query(c, addr, r, nil, &done); err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
	}
	return nil
}

// openLoop sends reqs on their schedule over conns connections. Latency
// runs from each request's due time, so a stalled server also charges the
// requests queued behind the stall.
func openLoop(addr string, reqs []request, refs map[uint32][]topEntry) (time.Time, []response) {
	resps := make([]response, len(reqs))
	jobs := make(chan int, len(reqs)) // every request is queued at most once
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	// A hung server must not hold the run past its time limit: requests
	// still queued this long after the last one was due fail unsent.
	giveUp := start.Add(reqs[len(reqs)-1].due + overrun)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for i := range jobs {
				r := &resps[i]
				r.sent = time.Now()
				if r.sent.After(giveUp) {
					r.done, r.err = r.sent, errors.New("not sent: the schedule overran")
					continue
				}
				body, err := query(c, addr, reqs[i], refs, &r.done)
				r.latency = r.done.Sub(start.Add(reqs[i].due))
				r.err = err
				for _, res := range body.Results {
					r.cached = append(r.cached, res.Cached)
					r.iterations = append(r.iterations, res.Iterations)
				}
			}
		}()
	}
	for i, r := range reqs {
		due := start.Add(r.due)
		time.Sleep(time.Until(due))
		resps[i].late = time.Since(due)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return start, resps
}

// evenDues spaces n arrivals 1/rate apart. Even spacing, not Poisson:
// with Poisson arrivals how often two slow queries collided, and so the
// tail, depended on the seed more than on the server.
func evenDues(n int, rate float64) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return dues
}

// hotSchedule: single-source PPR, 90% zipf over the hot set, 10% uniform
// over nodes with out-edges. The uniform draws — nearly all misses — sit
// at every uniformEvery-th slot rather than at random ones: 20 ms apart, a
// ~40 ms miss overlaps the next request, and with random slots the number
// of misses colliding with misses, which sets p99, varied from seed to
// seed by more than the server did.
func hotSchedule(in *serveInput, seed int64, window time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	n := int(hotRate * window.Seconds())
	z := newZipf(len(in.hot), hotZipfS)
	reqs := make([]request, n)
	for i, due := range evenDues(n, hotRate) {
		var src uint32
		if i%uniformEvery == uniformEvery-1 {
			src = in.active[rng.Intn(len(in.active))]
		} else {
			src = in.hot[z.rank(rng)]
		}
		reqs[i] = request{due: due, sources: []uint32{src}, check: i%hotCheckEvery == 0}
	}
	return reqs
}

// coldSchedule: 4-source PPR with no source repeated within the run.
func coldSchedule(in *serveInput, seed int64, window time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	n := int(coldRate * window.Seconds())
	perm := rng.Perm(len(in.active))
	reqs := make([]request, n)
	for i, due := range evenDues(n, coldRate) {
		src := make([]uint32, coldSources)
		for j := range src {
			src[j] = in.active[perm[(i*coldSources+j)%len(perm)]]
		}
		reqs[i] = request{due: due, sources: src, check: i%coldCheckEvery == 0}
	}
	return reqs
}

func runServeHot(seed int64, window time.Duration, traced bool) (*outcome, error) {
	in, err := loadServeInput()
	if err != nil {
		return nil, err
	}
	return runServe(in, hotSchedule(in, seed, window), in.hot, traced)
}

func runServeCold(seed int64, window time.Duration, traced bool) (*outcome, error) {
	in, err := loadServeInput()
	if err != nil {
		return nil, err
	}
	return runServe(in, coldSchedule(in, seed, window), nil, traced)
}

// runServe sets up the server, computes references, warms the cache with
// warmSources, runs the open loop and collects what the server reports.
func runServe(in *serveInput, reqs []request, warmSources []uint32, traced bool) (*outcome, error) {
	o := &outcome{nodes: in.g.NumNodes(), edges: in.g.NumEdges()}
	p := &servePass{reqs: reqs}
	srv, part, err := setUp(in, p, traced, 2*(len(reqs)+len(warmSources)))
	defer func() {
		srv.stop()
		if part != "" {
			os.Remove(part)
		}
	}()
	if err != nil {
		return nil, err
	}
	refs, err := references(part, reqs)
	if err != nil {
		return nil, err
	}
	if err := warm(srv.addr, warmSources); err != nil {
		return nil, err
	}
	var before, after metricsSnapshot
	if err := srv.getJSON("/metrics", &before); err != nil {
		return nil, err
	}
	p.windowStart, p.resps = openLoop(srv.addr, reqs, refs)
	if err := srv.getJSON("/metrics", &after); err != nil {
		return nil, err
	}
	p.delta = deltaSince(before, after)
	if traced {
		var tr struct {
			Traces []traceSnap `json:"traces"`
		}
		if err := srv.getJSON("/debug/traces", &tr); err != nil {
			return nil, err
		}
		p.traces = tr.Traces
	}
	if p.memMB, err = srv.peakRSSMiB(); err != nil {
		return nil, err
	}

	o.attempted = len(reqs)
	for i, r := range p.resps {
		if r.err != nil {
			o.failed++
			if o.err == nil {
				o.err = fmt.Errorf("request %d: %w", i, r.err)
			}
		}
	}
	late := p.lateMs()
	if lp99 := percentile(late, 99); lp99 > ms(lateBound) {
		o.err = fmt.Errorf("load generator fell %.1f ms behind its schedule at p99 (bound %v): run invalid", lp99, lateBound)
	}
	o.e2e = p.e2e()
	o.alias = [2]string{"serve_p50_ms", fmt.Sprintf("serve_p%g_ms", tailPercentile(len(reqs)))}
	o.notes = append(o.notes, fmt.Sprintf("requests %d, slow_ms is p%g", len(reqs), tailPercentile(len(reqs))))
	if traced {
		o.layers = p.layers()
	}
	return o, o.err
}

func (p *servePass) lateMs() []float64 {
	late := make([]float64, len(p.resps))
	for i, r := range p.resps {
		late[i] = ms(r.late)
	}
	return late
}

// latenciesMs returns every request's latency from its due time; a failed
// request counts as the client timeout, missing any latency limit.
func (p *servePass) latenciesMs() []float64 {
	lat := make([]float64, len(p.resps))
	for i, r := range p.resps {
		if r.err != nil {
			lat[i] = ms(clientTimeout)
		} else {
			lat[i] = ms(r.latency)
		}
	}
	return lat
}

func (p *servePass) e2e() map[string]float64 {
	setup := make([]float64, len(p.convert))
	for i := range setup {
		setup[i] = p.convert[i] + p.ready[i]
	}
	lat := p.latenciesMs()
	return map[string]float64{
		"setup_s": median(setup),
		"mem_mb":  p.memMB,
		"p50_ms":  percentile(lat, 50),
		"slow_ms": percentile(lat, tailPercentile(len(lat))),
	}
}

// traceSnap is the part of a /debug/traces entry the benchmark reads.
type traceSnap struct {
	Start   time.Time `json:"start"`
	TotalNs int64     `json:"total_ns"`
	Outcome string    `json:"outcome"`
	Spans   []struct {
		Kind    string `json:"kind"`
		StartNs int64  `json:"start_ns"`
		DurNs   int64  `json:"dur_ns"`
	} `json:"spans"`
}

func (t traceSnap) spans() []span {
	out := make([]span, len(t.Spans))
	for i, s := range t.Spans {
		out[i] = span{kind: s.Kind, start: s.StartNs, dur: s.DurNs}
	}
	return out
}

// layers derives the per-layer metrics from the /metrics delta, the
// traces of the window's requests and the client's own observations. A
// statistic over no samples is NaN and reads 0 in the result.
func (p *servePass) layers() map[string]float64 {
	var admission, cache, queue, iter, pre, post, unspanned, transport []float64
	var windowTraces []traceSnap
	for _, t := range p.traces {
		if t.Start.Before(p.windowStart) || t.Outcome != "ok" {
			continue
		}
		windowTraces = append(windowTraces, t)
		sp := t.spans()
		for i, s := range sp {
			v := float64(s.dur) / 1e6
			switch s.kind {
			case "admission":
				admission = append(admission, v)
			case "cache":
				cache = append(cache, float64(selfNs(sp, i))/1e6)
			case "queue":
				queue = append(queue, v)
			case "iteration":
				iter = append(iter, v)
			case "pre_phase":
				pre = append(pre, v)
			case "post_phase":
				post = append(post, v)
			}
		}
		unspanned = append(unspanned, float64(unspannedNs(sp, t.TotalNs))/1e6)
	}
	// Join each response to the trace its handler recorded: the longest
	// trace lying inside the client's send..receive interval. A shorter one
	// there belongs to a request the other connection completed meanwhile.
	sort.Slice(windowTraces, func(i, j int) bool { return windowTraces[i].Start.Before(windowTraces[j].Start) })
	for _, r := range p.resps {
		if r.err != nil {
			continue
		}
		var best int64 = -1
		i := sort.Search(len(windowTraces), func(i int) bool { return !windowTraces[i].Start.Before(r.sent) })
		for ; i < len(windowTraces) && windowTraces[i].Start.Before(r.done); i++ {
			t := windowTraces[i]
			if end := t.Start.Add(time.Duration(t.TotalNs)); !end.After(r.done) && t.TotalNs > best {
				best = t.TotalNs
			}
		}
		if best >= 0 {
			transport = append(transport, ms(r.done.Sub(r.sent)-time.Duration(best)))
		}
	}

	var hit, miss, iters []float64
	for _, r := range p.resps {
		if r.err != nil {
			continue
		}
		allCached := true
		for k, c := range r.cached {
			if !c {
				allCached = false
				iters = append(iters, float64(r.iterations[k]))
			}
		}
		if allCached {
			hit = append(hit, ms(r.latency))
		} else {
			miss = append(miss, ms(r.latency))
		}
	}
	c := p.delta.counters
	hits, misses := float64(c["server.cache.hits"]), float64(c["server.cache.misses"])
	return map[string]float64{
		"partio.convert_s":           median(p.convert),
		"partio.ready_s":             median(p.ready),
		"batch.width_mean":           p.delta.histMean("batch.size"),
		"batch.queue_wait_p50_ms":    percentile(queue, 50),
		"batch.deadline_flush_share": ratio(float64(c["batch.flushes_deadline"]), float64(c["batch.flushes"])),
		"servecache.hit_pct":         100 * ratio(hits, hits+misses),
		"servecache.evictions":       float64(c["server.cache.evictions"]),
		"servecache.cache_p50_ms":    percentile(cache, 50),
		"server.admission_p50_ms":    percentile(admission, 50),
		"server.unspanned_p50_ms":    percentile(unspanned, 50),
		"http.transport_p50_ms":      percentile(transport, 50),
		"core.iteration_p50_ms":      percentile(iter, 50),
		"core.pre_ms":                percentile(pre, 50),
		"core.post_ms":               percentile(post, 50),
		"core.iterations_per_query":  mean(iters),
		"serve.hit_p50_ms":           percentile(hit, 50),
		"serve.miss_p50_ms":          percentile(miss, 50),
		"loadgen.late_p99_ms":        percentile(p.lateMs(), 99),
	}
}
