// Command perfbench is the repository benchmark: four workloads that
// drive Mixen's layers from outside — the filter and block builders and
// the SCGA engine through their Go APIs, the serving stack through the
// mixenconvert and mixenserve binaries over HTTP — check every output
// against an independent reference, and print one JSON result line.
//
// It is started by perfbench/run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload dense-wiki --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the window is split into an untraced and a traced half, and the result
// carries the per-layer metrics derived from the traced half plus the
// tracing overhead on each end-to-end metric. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_mb", "MiB"},
	{"p50_ms", "ms"},
	{"slow_ms", "ms"},
}

// perLayer lists the metrics a --trace 1 run reports, on every workload;
// a layer the workload does not run reads 0.
var perLayer = []metricDef{
	{"filter.ms", "ms"},
	{"block.partition_ms", "ms"},
	{"block.sub_blocks", "count"},
	{"block.compressed_entries", "count"},
	{"core.pre_ms", "ms"},
	{"core.post_ms", "ms"},
	{"core.main_iter_ms", "ms"},
	{"core.iterations", "count"},
	{"core.scatter_ms", "ms"},
	{"core.cache_ms", "ms"},
	{"core.gather_apply_ms", "ms"},
	{"core.scatter_entries", "count"},
	{"core.gather_edges", "count"},
	{"core.work_amplification", "ratio"},
	{"core.sparse_row_share", "ratio"},
	{"core.model_bytes_per_iter", "B"},
	{"core.model_gbps", "GB/s"},
	{"batch.width_mean", "count"},
	{"batch.queue_wait_p50_ms", "ms"},
	{"batch.deadline_flush_share", "ratio"},
	{"servecache.hit_pct", "%"},
	{"servecache.evictions", "count"},
	{"servecache.cache_p50_ms", "ms"},
	{"partio.convert_s", "s"},
	{"partio.ready_s", "s"},
	{"server.admission_p50_ms", "ms"},
	{"server.unspanned_p50_ms", "ms"},
	{"http.transport_p50_ms", "ms"},
	{"core.iteration_p50_ms", "ms"},
	{"core.iterations_per_query", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct.setup_s", "%"},
	{"trace.overhead_pct.mem_mb", "%"},
	{"trace.overhead_pct.p50_ms", "%"},
	{"trace.overhead_pct.slow_ms", "%"},
}

// outcome is what one pass of a workload measured.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	// err is set when the pass stopped on a failed check or a broken
	// environment; the measurements are then incomplete.
	err   error
	notes []string
	// alias names p50_ms and slow_ms by what they measure on this
	// workload, in seconds when the name ends in _s.
	alias [2]string
	nodes int
	edges int64
}

// workloadFunc runs one pass of a workload for the given window.
type workloadFunc func(seed int64, window time.Duration, traced bool) (*outcome, error)

var workloads = map[string]workloadFunc{
	"dense-wiki":  runDenseWiki,
	"sparse-road": runSparseRoad,
	"serve-hot":   runServeHot,
	"serve-cold":  runServeCold,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"dense-wiki", "sparse-road", "serve-hot", "serve-cold"}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: dense-wiki, sparse-road, serve-hot, serve-cold, or all of them in turn")
		seed     = flag.Int64("seed", 1, "seed for sources and query streams")
		seconds  = flag.Int("seconds", 20, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer pass, 0 the end-to-end pass")
		binDir   = flag.String("bin", "", "directory holding the mixenserve and mixenconvert binaries")
		workDir  = flag.String("work", "", "scratch directory for generated inputs")
	)
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	if workloads[names[0]] == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || *binDir == "" || *workDir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (dense-wiki, sparse-road, serve-hot, serve-cold or all), --seconds >= 1, --trace 0|1, -bin and -work")
		os.Exit(2)
	}
	serveBin, serveWork = *binDir, *workDir
	window := time.Duration(*seconds) * time.Second

	for _, name := range names {
		var line resultLine
		var o *outcome
		var err error
		if *trace == 0 {
			o, err = workloads[name](*seed, window, false)
			line = result(o, err, endToEnd, func(o *outcome) map[string]float64 { return o.e2e })
		} else {
			o, err = tracedPass(workloads[name], *seed, window)
			line = result(o, err, perLayer, func(o *outcome) map[string]float64 { return o.layers })
		}
		if o == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		report(os.Stdout, name, *seed, *trace, o, line)
	}
}

// tracedPass runs the untraced half then the traced half of the window and
// adds the tracing overhead on every end-to-end metric to the traced
// half's per-layer metrics.
func tracedPass(run workloadFunc, seed int64, window time.Duration) (*outcome, error) {
	half := window / 2
	u, err := run(seed, half, false)
	if err != nil || u == nil {
		return u, err
	}
	t, err := run(seed, half, true)
	if t == nil {
		return u, err
	}
	t.attempted += u.attempted
	t.failed += u.failed
	if err != nil {
		return t, err
	}
	for _, m := range endToEnd {
		t.layers["trace.overhead_pct."+m.name] = 100 * ratio(t.e2e[m.name]-u.e2e[m.name], u.e2e[m.name])
	}
	t.notes = append(t.notes, fmt.Sprintf("untraced half: %s", formatE2E(u.e2e)))
	return t, nil
}

// result assembles the final line; every listed metric is present, and a
// pass that failed is reported as incorrect.
func result(o *outcome, err error, defs []metricDef, pick func(*outcome) map[string]float64) resultLine {
	line := resultLine{Correct: err == nil, Metrics: map[string]metricOut{}}
	if o == nil {
		return line
	}
	line.Attempted, line.Failed = o.attempted, o.failed
	if line.Attempted < 1 {
		line.Attempted = 1
		line.Correct = false
	}
	if o.failed > 0 {
		line.Correct = false
	}
	vals := map[string]float64{}
	if err == nil {
		vals = pick(o)
	}
	for _, m := range defs {
		v := vals[m.name]
		if v != v { // NaN: nothing to measure
			v = 0
		}
		line.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	return line
}

func formatE2E(m map[string]float64) string {
	var parts []string
	for _, d := range endToEnd {
		parts = append(parts, fmt.Sprintf("%s=%.4f%s", d.name, m[d.name], d.unit))
	}
	return strings.Join(parts, " ")
}

// report prints the host tags, one line per metric, and last the JSON
// result line.
func report(w io.Writer, workload string, seed int64, trace int, o *outcome, line resultLine) {
	host := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(),
		"graph_n":    o.nodes,
		"graph_m":    o.edges,
	}
	hb, _ := json.Marshal(host)
	fmt.Fprintf(w, "host %s\n", hb)
	for _, n := range o.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	if o.err != nil {
		fmt.Fprintf(w, "error %v\n", o.err)
	}
	for i, m := range []string{"p50_ms", "slow_ms"} {
		if a := o.alias[i]; a != "" && o.e2e != nil {
			v, unit := o.e2e[m], "ms"
			if strings.HasSuffix(a, "_s") {
				v, unit = v/1000, "s"
			}
			fmt.Fprintf(w, "alias %-30s %14.6f %s (= %s)\n", a, v, unit, m)
		}
	}
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := line.Metrics[n]
		fmt.Fprintf(w, "metric %-30s %14.6f %s\n", n, m.Value, m.Unit)
	}
	b, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", b)
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the git commit when the checkout is a
// repository, otherwise a digest of its Go sources. Git is asked only when
// .git is here, so an enclosing repository is never reported.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
