// Command perfbench is bfbdd's repeatable benchmark. One invocation runs
// one workload for a fixed window, checks every output the program
// produces against a library reference, and prints one JSON result as the
// last line of standard output. Human-readable detail (sample counts,
// percentiles, figure series) goes to standard error.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
//	bash perfbench/run.sh --workload all --seed N --seconds S
//	bash perfbench/run.sh --compare A.jsonl B.jsonl
//
// Workloads: build-mult11, serve-apply-1c, serve-build-mult10, serve-rw
// (see README.md for what each exercises and why). With --trace 0 the
// result holds the end-to-end metrics; with --trace 1 it holds the
// per-layer metrics, and the span file under .bench_build/perfbench
// holds the exported server traces and the paper's per-variable figure
// series. --record appends each result, tagged with its workload and
// seed, to a JSON-lines file that --compare reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bfbdd/internal/trace"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd is what every workload reports untraced; BENCHMARK.json lists
// the same names and units. Each workload defines its timed operation:
// a 2-worker mult-11 build, one apply request, one gate request of a
// served build, or one eval request. The bounded tail is p90: p99 moves
// too much from run to run on a shared 2-CPU host to hold a bound, so it
// is printed with each run instead.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_mb", "MB"},
}

// perLayer is what every workload reports under --trace 1. A layer the
// workload does not reach reports 0.
var perLayer = []metricSpec{
	{"core.expansion_s", "s"},
	{"core.reduction_s", "s"},
	{"core.gc_mark_s", "s"},
	{"core.gc_fix_s", "s"},
	{"core.gc_rehash_s", "s"},
	{"core.w0_expansion_s", "s"},
	{"core.w0_reduction_s", "s"},
	{"core.w0_gc_s", "s"},
	{"core.ops_m", "Mops"},
	{"core.ops_seq_m", "Mops"},
	{"core.ops_inflation", "ratio"},
	{"core.steals", "count"},
	{"core.stolen_ops", "count"},
	{"core.stall_s", "s"},
	{"core.gc_count", "count"},
	{"core.context_pushes", "count"},
	{"core.unaccounted_pct", "%"},
	{"core.peak_mb", "MB"},
	{"core.mknode_ns", "ns"},
	{"unique.lock_wait_s", "s"},
	{"unique.lock_wait_ratio", "ratio"},
	{"unique.top_var_share", "ratio"},
	{"unique.hit_ratio", "ratio"},
	{"unique.find_or_add_hit_ns", "ns"},
	{"unique.find_or_add_miss_ns", "ns"},
	{"unique.find_or_add_contended_ns", "ns"},
	{"cache.hit_ratio", "ratio"},
	{"cache.lookup_ns", "ns"},
	{"cache.insert_ns", "ns"},
	{"node.alloc_ns", "ns"},
	{"harness.build_seq_s", "s"},
	{"harness.speedup_2w", "ratio"},
	{"harness.speedup_2w_modeled", "ratio"},
	{"server.http_self_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.batch_self_ms", "ms"},
	{"server.kernel_build_ms", "ms"},
	{"server.client_overhead_ms", "ms"},
	{"server.unaccounted_pct", "%"},
	{"server.batch_ops", "count"},
	{"server.eval_ms", "ms"},
	{"server.eval_late_ms", "ms"},
	{"wal.commit_ms", "ms"},
	{"compiled.eval_batch_ns_per_assign", "ns"},
	{"compiled.eval_ns", "ns"},
	{"manager.eval_ns", "ns"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_peak_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// workloads are the benchmark's workloads, in the order --workload all
// runs them.
var workloads = []struct {
	name  string
	drive func(*run) error
}{
	{"build-mult11", buildMult11},
	{"serve-apply-1c", serveApply1c},
	{"serve-build-mult10", serveBuildMult10},
	{"serve-rw", serveRW},
}

// sizes are the inputs a workload runs at. The benchmark uses fullSizes;
// the smoke test shrinks them.
type sizes struct {
	buildCircuit string // build-mult11's library build
	buildNodes   int    // its known output size, the build's correctness check
	serveCircuit string // serve-build-mult10's served build
	rwCircuit    string // serve-rw's published function
	sessionVars  int    // variables of the apply sessions
	evalRate     float64
	evalBatch    int
	setups       int // set-ups per run; setup_s is their median
	probeN       int // operations per layer-probe repetition
	probeReps    int
}

var fullSizes = sizes{
	buildCircuit: "mult-11",
	buildNodes:   533403,
	serveCircuit: "mult-10",
	rwCircuit:    "mult-11",
	sessionVars:  16,
	evalRate:     250, // 30% of the ~850/s one connection sustains beside the writer
	evalBatch:    256,
	setups:       3,
	probeN:       1 << 16,
	probeReps:    7,
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	workdir  string // scratch directory, inside the checkout
	sizes
}

// run collects one workload's outcome.
type run struct {
	cfg config
	dir string // per-run scratch directory
	log io.Writer

	attempted atomic.Int64
	failed    atomic.Int64
	wrongs    atomic.Int64

	mu      sync.Mutex
	metrics map[string]float64
	spans   []*trace.Exported // exported server traces for the span file
	figures map[string]any    // paper figure series for the span file
}

// maxKeptSpans bounds the traces written to the span file; the per-layer
// numbers use every trace fetched.
const maxKeptSpans = 256

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

// attempt counts one attempted operation and, when err is non-nil, one
// failed operation.
func (r *run) attempt(err error) {
	r.attempted.Add(1)
	if err != nil {
		if r.failed.Add(1) <= 5 {
			fmt.Fprintf(r.log, "perfbench: failed: %v\n", err)
		}
	}
}

// wrong records an output that disagrees with its reference.
func (r *run) wrong(format string, args ...any) {
	if r.wrongs.Add(1) <= 5 {
		fmt.Fprintf(r.log, "perfbench: WRONG OUTPUT: "+format+"\n", args...)
	}
}

func (r *run) keepSpan(ex *trace.Exported) {
	r.mu.Lock()
	if len(r.spans) < maxKeptSpans {
		r.spans = append(r.spans, ex)
	}
	r.mu.Unlock()
}

// detail prints one human-readable line to standard error.
func (r *run) detail(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

// reportLatency stores the latency metrics of a timed operation and
// prints its distribution: median, p90, p99, and the highest percentile
// with at least ten samples beyond it, with the sample count.
func (r *run) reportLatency(what string, ms []float64) {
	r.set("latency_p50_ms", median(ms))
	r.set("latency_p90_ms", percentile(ms, 90))
	line := fmt.Sprintf("%s: n=%d p50=%.4fms p90=%.4fms p99=%.4fms",
		what, len(ms), median(ms), percentile(ms, 90), percentile(ms, 99))
	if p, v, ok := tail(ms); ok {
		line += fmt.Sprintf(" p%.2f=%.4fms", p, v)
	}
	r.detail("%s", line)
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// failedLatencyMs stands in for the latency of a failed request: a
// failure counts as missing every latency limit, as if the client had
// waited out the server's default 30 s request timeout.
const failedLatencyMs = 30000

// result assembles the printed result. Every end-to-end metric must have
// been measured; a per-layer metric the workload did not reach is 0.
func (r *run) result() (*result, error) {
	specs, required := endToEnd, true
	if r.cfg.trace {
		specs, required = perLayer, false
	}
	out := &result{
		Correct:   r.wrongs.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, s := range specs {
		v, ok := r.metrics[s.name]
		if !ok && required {
			return nil, fmt.Errorf("workload %s did not measure %s", r.cfg.workload, s.name)
		}
		if math.IsInf(v, 1) {
			v = failedLatencyMs
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s measured %s = %v", r.cfg.workload, s.name, v)
		}
		out.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return out, nil
}

// runWorkload runs one workload in a fresh scratch directory.
func runWorkload(cfg config) (*result, error) {
	var drive func(*run) error
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
		if w.name == cfg.workload {
			drive = w.drive
		}
	}
	if drive == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{cfg: cfg, dir: dir, log: os.Stderr, metrics: map[string]float64{}, figures: map[string]any{}}
	r.detail("perfbench: %s seed=%d window=%v trace=%v GOMAXPROCS=%d",
		cfg.workload, cfg.seed, cfg.window, cfg.trace, runtime.GOMAXPROCS(0))
	if err := drive(r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		if err := runProbes(r); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		if err := r.writeSpanFile(); err != nil {
			return nil, err
		}
	}
	return r.result()
}

// writeSpanFile writes the traces and figure series a traced run kept.
func (r *run) writeSpanFile() error {
	path := filepath.Join(r.cfg.workdir, fmt.Sprintf("spans-%s-seed%d.json", r.cfg.workload, r.cfg.seed))
	doc := map[string]any{
		"workload": r.cfg.workload,
		"seed":     r.cfg.seed,
		"traces":   r.spans,
		"figures":  r.figures,
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	r.detail("span file: %s (%d traces)", path, len(r.spans))
	return nil
}

// record is one line of a --record file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name, or \"all\"")
		seed     = flag.Int64("seed", 1, "seed for the workload's inputs")
		seconds  = flag.Float64("seconds", 20, "measurement window per workload, in seconds")
		traceOn  = flag.Int("trace", 0, "1 reports per-layer metrics and writes the span file")
		recordTo = flag.String("record", "", "append each result to this JSON-lines file")
		compare  = flag.Bool("compare", false, "compare two --record files against BENCHMARK.json's bounds: perfbench --compare A B")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("--compare needs two record files"))
		}
		worse, err := compareMain(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *traceOn != 0 && *traceOn != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", *traceOn))
	}
	if *seconds <= 0 {
		fatal(errors.New("--seconds must be positive"))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	ok := true
	for _, name := range names {
		cfg := config{
			workload: name,
			seed:     *seed,
			window:   time.Duration(*seconds * float64(time.Second)),
			trace:    *traceOn == 1,
			workdir:  filepath.Join(".bench_build", "perfbench"),
			sizes:    fullSizes,
		}
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		if *recordTo != "" {
			if err := appendRecord(*recordTo, record{Workload: name, Seed: *seed, Trace: cfg.trace, Result: res}); err != nil {
				fatal(err)
			}
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "perfbench: an output disagreed with its reference")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
