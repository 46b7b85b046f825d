// Package harness runs the paper's experiments: it builds the BDDs for
// the evaluation circuits across processor counts and collects the
// measurements behind every figure in the results section (elapsed time,
// speedup, memory, operation counts, phase breakdowns, per-variable node
// clustering, unique-table lock contention, and GC phase behaviour).
package harness

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bfbdd/internal/core"
	"bfbdd/internal/netlist"
	"bfbdd/internal/order"
	"bfbdd/internal/stats"
)

// MakeCircuit instantiates an evaluation circuit by name. Recognized
// names: "c2670" (synthetic C2670-like, see DESIGN.md §2), "c3540"
// (synthetic C3540-like) — both accepting a "-N" suffix that scales the
// embedded multiply unit (e.g. "c2670-8" for quick runs) — plus "mult-N",
// "adder-N", "cla-N", "cmp-N", "parity-N", "alu-N".
func MakeCircuit(name string) (*netlist.Circuit, error) {
	switch name {
	case "c2670":
		return netlist.C2670Like(), nil
	case "c3540":
		return netlist.C3540Like(), nil
	}
	dash := strings.LastIndex(name, "-")
	if dash > 0 {
		n, err := strconv.Atoi(name[dash+1:])
		if err == nil && n > 0 {
			switch name[:dash] {
			case "mult":
				return netlist.Multiplier(n), nil
			case "adder":
				return netlist.RippleAdder(n), nil
			case "cla":
				return netlist.CarryLookaheadAdder(n), nil
			case "cmp":
				return netlist.Comparator(n), nil
			case "parity":
				return netlist.Parity(n), nil
			case "alu":
				return netlist.ALU(n), nil
			case "c2670":
				return netlist.C2670LikeScaled(n), nil
			case "c3540":
				return netlist.C3540LikeScaled(n), nil
			}
		}
	}
	return nil, fmt.Errorf("harness: unknown circuit %q", name)
}

// Config describes one experiment run.
type Config struct {
	// Circuit is a name accepted by MakeCircuit.
	Circuit string
	// Workers is the processor count; 0 requests the sequential
	// configuration (the paper's "Seq" row: partial breadth-first with no
	// unique-table locking and more aggressive GC checks). Workers > 0
	// runs the parallel engine.
	Workers int
	// EvalThreshold and GroupSize tune the partial breadth-first
	// machinery (defaults applied by the kernel when zero).
	EvalThreshold int
	GroupSize     int
	// GC selects the collector policy.
	GC core.GCPolicy
	// Order selects the variable ordering (default order.DFS, as the
	// paper uses SIS order_dfs).
	Order order.Method
}

// Result holds the measurements of one run.
type Result struct {
	Config  Config
	Circuit string
	Workers int
	// GOMAXPROCS is runtime.GOMAXPROCS(0) during the run: a run with
	// more workers than that cannot measure their parallel speedup, so
	// the figures model it instead (see model.go).
	GOMAXPROCS int

	Elapsed time.Duration

	// TotalOps is the number of Shannon expansion steps summed over all
	// workers (the paper's Figure 11 metric).
	TotalOps uint64
	// PeakBytes is the high-water explicit memory footprint (Figure 9);
	// AtPeak splits it into nodes, operator nodes, cache and tables.
	PeakBytes uint64
	AtPeak    stats.Parts

	// Worker0 carries the first processor's phase breakdown (Figures 13
	// and 18 report the first processor's workload).
	Worker0 stats.Worker
	// AllWorkers sums counters across workers.
	AllWorkers stats.Worker

	// SerializedPerVar counts unique-table FindOrAdd operations (hits and
	// insertions) per variable: the work serialized by that variable's
	// lock during reduction. InsertsPerVar counts only the insertions,
	// the proxy for the rehash phase's per-variable serialization.
	SerializedPerVar []uint64
	InsertsPerVar    []uint64

	// LockWaitPerVar is each variable's total unique-table lock
	// acquisition wait (Figure 16).
	LockWaitPerVar []time.Duration
	// MaxNodesPerVar is each variable's high-water unique-table node
	// count (Figure 15).
	MaxNodesPerVar []uint64

	// OutputNodes is the total size of the output BDDs; LiveNodes the
	// final live node count; GCCount the number of collections.
	OutputNodes int
	LiveNodes   uint64
	GCCount     uint64
}

// LockWaitTotal sums the per-variable lock waits.
func (r *Result) LockWaitTotal() time.Duration {
	var total time.Duration
	for _, d := range r.LockWaitPerVar {
		total += d
	}
	return total
}

// Run executes one experiment configuration.
func Run(cfg Config) (*Result, error) {
	circ, err := MakeCircuit(cfg.Circuit)
	if err != nil {
		return nil, err
	}
	levels := order.Compute(circ, cfg.Order, 0)

	opts := core.Options{
		Levels:        circ.NumInputs(),
		Engine:        core.EnginePBF,
		Workers:       cfg.Workers,
		EvalThreshold: cfg.EvalThreshold,
		GroupSize:     cfg.GroupSize,
		GC:            cfg.GC,
		Stealing:      true,
	}
	if cfg.Workers > 0 {
		opts.Engine = core.EnginePar
	}
	if opts.EvalThreshold == 0 {
		// The paper sets the evaluation threshold to a small fraction of
		// physical memory; scale it to a small fraction of the workload
		// instead so the partial breadth-first machinery (context pushes,
		// stealing) engages on the scaled-down benchmark circuits too.
		opts.EvalThreshold = 8192
	}
	if cfg.Workers == 0 {
		// The paper's sequential configuration checks the GC condition
		// more aggressively than the parallel one (after each reduction
		// phase rather than at top-level barriers); model that with a
		// lower growth factor (DESIGN.md §2, substitution 5).
		opts.GCGrowth = 1.6
	} else {
		opts.GCGrowth = 2.0
	}

	k := core.NewKernel(opts)
	start := time.Now()
	res, err := netlist.Build(k, circ, levels)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	r := &Result{
		Config:     cfg,
		Circuit:    cfg.Circuit,
		Workers:    cfg.Workers,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Elapsed:    elapsed,
		Worker0:    *k.WorkerStats(0),
		LiveNodes:  k.NumNodes(),
		GCCount:    k.Memory().GCCount,
	}
	r.AllWorkers = k.TotalStats()
	r.TotalOps = r.AllWorkers.Ops
	r.PeakBytes, r.AtPeak = k.Memory().PeakBytes, k.Memory().AtPeak
	for l := 0; l < k.Levels(); l++ {
		t := k.Table(l)
		r.LockWaitPerVar = append(r.LockWaitPerVar, t.LockWait())
		r.MaxNodesPerVar = append(r.MaxNodesPerVar, t.MaxCount())
		r.SerializedPerVar = append(r.SerializedPerVar, t.Hits()+t.Misses())
		r.InsertsPerVar = append(r.InsertsPerVar, t.Misses())
	}
	r.OutputNodes = k.SizeMulti(res.Refs())
	res.Release()
	return r, nil
}

// Sweep runs a circuit across processor counts (0 meaning Seq).
func Sweep(circuit string, procs []int, base Config) (map[int]*Result, error) {
	out := make(map[int]*Result, len(procs))
	for _, p := range procs {
		cfg := base
		cfg.Circuit = circuit
		cfg.Workers = p
		r, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s @ %d procs: %w", circuit, p, err)
		}
		out[p] = r
	}
	return out, nil
}

// ProcLabel renders a processor count the way the paper's tables do.
func ProcLabel(p int) string {
	if p == 0 {
		return "Seq"
	}
	return strconv.Itoa(p)
}
