package bfbdd_test

// One benchmark per table/figure of the paper's evaluation section, plus
// the ablations listed in DESIGN.md §3. Benchmarks default to scaled-down
// circuits so `go test -bench=.` finishes in minutes; run
// `go run ./cmd/bfbdd-bench -full` for the paper-scale sweep (mult-13,
// mult-14, c2670, c3540) with the figures printed in the paper's layout.
//
// Custom metrics reported per benchmark:
//
//	Mops/build   total Shannon expansion steps (Figure 11's metric)
//	peak-MB      high-water explicit memory (Figure 9's metric)
//	speedup-mdl  modeled ideal-machine speedup (see EXPERIMENTS.md)

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"bfbdd"
	"bfbdd/internal/core"
	"bfbdd/internal/harness"
	"bfbdd/internal/netlist"
	"bfbdd/internal/node"
	"bfbdd/internal/order"
	"bfbdd/internal/stats"
)

// benchCircuits is the scaled-down analogue of the paper's four circuits.
var benchCircuits = []string{"c2670-7", "c3540-7", "mult-9", "mult-10"}

// benchProcs mirrors the paper's processor sweep.
var benchProcs = []int{0, 1, 2, 4, 8}

func runOne(b *testing.B, cfg harness.Config) *harness.Result {
	b.Helper()
	var last *harness.Result
	for i := 0; i < b.N; i++ {
		r, err := harness.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.TotalOps)/1e6, "Mops/build")
	b.ReportMetric(float64(last.PeakBytes)/(1<<20), "peak-MB")
	return last
}

// BenchmarkFig07ElapsedTime regenerates Figure 7: elapsed BDD-construction
// time for each circuit across processor counts (the benchmark's ns/op is
// the elapsed time the paper tabulates).
func BenchmarkFig07ElapsedTime(b *testing.B) {
	for _, circ := range benchCircuits {
		for _, p := range benchProcs {
			b.Run(fmt.Sprintf("%s/procs=%s", circ, harness.ProcLabel(p)), func(b *testing.B) {
				runOne(b, harness.Config{Circuit: circ, Workers: p})
			})
		}
	}
}

// BenchmarkFig08Speedup regenerates Figure 8: it reports the modeled
// ideal-machine speedup for each configuration (wall-clock speedup is the
// ns/op ratio against procs=Seq in Figure 7's benchmark).
func BenchmarkFig08Speedup(b *testing.B) {
	for _, circ := range benchCircuits[2:] { // the two multiplier circuits
		seq, err := harness.Run(harness.Config{Circuit: circ, Workers: 0})
		if err != nil {
			b.Fatal(err)
		}
		model := harness.NewModel(seq)
		base := model.Predict(seq).Total()
		for _, p := range benchProcs[1:] {
			b.Run(fmt.Sprintf("%s/procs=%d", circ, p), func(b *testing.B) {
				r := runOne(b, harness.Config{Circuit: circ, Workers: p})
				b.ReportMetric(base/model.Predict(r).Total(), "speedup-mdl")
			})
		}
	}
}

// BenchmarkFig09Memory regenerates Figure 9: peak memory per circuit and
// processor count (reported as the peak-MB metric).
func BenchmarkFig09Memory(b *testing.B) {
	for _, circ := range benchCircuits {
		for _, p := range []int{0, 1, 4, 8} {
			b.Run(fmt.Sprintf("%s/procs=%s", circ, harness.ProcLabel(p)), func(b *testing.B) {
				r := runOne(b, harness.Config{Circuit: circ, Workers: p})
				// Figure 10 plots the same series; nothing extra to run.
				_ = r
			})
		}
	}
}

// BenchmarkFig11Operations regenerates Figure 11: total operation count
// growth with processor count, caused by the unshared per-worker compute
// caches (the Mops/build metric; Figure 12 plots the same series).
func BenchmarkFig11Operations(b *testing.B) {
	for _, circ := range benchCircuits {
		for _, p := range benchProcs {
			b.Run(fmt.Sprintf("%s/procs=%s", circ, harness.ProcLabel(p)), func(b *testing.B) {
				r := runOne(b, harness.Config{Circuit: circ, Workers: p})
				b.ReportMetric(float64(r.AllWorkers.CacheHits)/1e6, "Mhits/build")
			})
		}
	}
}

// BenchmarkFig13PhaseBreakdown regenerates Figures 13/14: the expansion /
// reduction / GC phase split of the first processor on the multiplier
// workload.
func BenchmarkFig13PhaseBreakdown(b *testing.B) {
	circ := benchCircuits[len(benchCircuits)-1]
	for _, p := range benchProcs[1:] {
		b.Run(fmt.Sprintf("%s/procs=%d", circ, p), func(b *testing.B) {
			r := runOne(b, harness.Config{Circuit: circ, Workers: p})
			b.ReportMetric(r.Worker0.PhaseTime(stats.PhaseExpansion).Seconds(), "expand-s")
			b.ReportMetric(r.Worker0.PhaseTime(stats.PhaseReduction).Seconds(), "reduce-s")
			gc := r.Worker0.PhaseTime(stats.PhaseGCMark) +
				r.Worker0.PhaseTime(stats.PhaseGCFix) +
				r.Worker0.PhaseTime(stats.PhaseGCRehash)
			b.ReportMetric(gc.Seconds(), "gc-s")
		})
	}
}

// BenchmarkFig15NodeClustering regenerates Figure 15: the concentration of
// BDD nodes on very few variables, the root cause of the reduction-phase
// bottleneck. Reported as the fraction of unique-table traffic landing on
// the busiest variable.
func BenchmarkFig15NodeClustering(b *testing.B) {
	for _, circ := range benchCircuits {
		b.Run(circ, func(b *testing.B) {
			r := runOne(b, harness.Config{Circuit: circ, Workers: 1})
			var maxNodes, total uint64
			for _, n := range r.MaxNodesPerVar {
				total += n
				if n > maxNodes {
					maxNodes = n
				}
			}
			if total > 0 {
				b.ReportMetric(float64(maxNodes)/float64(total), "top-var-share")
			}
			b.ReportMetric(float64(maxNodes), "top-var-nodes")
		})
	}
}

// BenchmarkFig16LockTime regenerates Figures 16/17: unique-table lock
// acquisition wait during reduction, concentrated on the node-heavy
// variables. Reported as measured lock seconds plus the modeled
// serialization ratio.
func BenchmarkFig16LockTime(b *testing.B) {
	circ := benchCircuits[len(benchCircuits)-1]
	seq, err := harness.Run(harness.Config{Circuit: circ, Workers: 0})
	if err != nil {
		b.Fatal(err)
	}
	model := harness.NewModel(seq)
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("%s/procs=%d", circ, p), func(b *testing.B) {
			r := runOne(b, harness.Config{Circuit: circ, Workers: p})
			b.ReportMetric(r.LockWaitTotal().Seconds(), "lock-s")
			b.ReportMetric(model.LockRatio(r), "lock-ratio-mdl")
		})
	}
}

// BenchmarkFig18GCBreakdown regenerates Figures 18/19: the mark / fix /
// rehash phase split of the compacting collector on the first processor.
func BenchmarkFig18GCBreakdown(b *testing.B) {
	circ := benchCircuits[len(benchCircuits)-1]
	for _, p := range benchProcs[1:] {
		b.Run(fmt.Sprintf("%s/procs=%d", circ, p), func(b *testing.B) {
			r := runOne(b, harness.Config{Circuit: circ, Workers: p})
			b.ReportMetric(r.Worker0.PhaseTime(stats.PhaseGCMark).Seconds(), "mark-s")
			b.ReportMetric(r.Worker0.PhaseTime(stats.PhaseGCFix).Seconds(), "fix-s")
			b.ReportMetric(r.Worker0.PhaseTime(stats.PhaseGCRehash).Seconds(), "rehash-s")
		})
	}
}

// BenchmarkAblationEngines compares the five construction engines
// sequentially (DESIGN.md ablation B; §3.1's motivation for partial
// breadth-first).
func BenchmarkAblationEngines(b *testing.B) {
	engines := []struct {
		name string
		e    core.Engine
	}{
		{"df", core.EngineDF},
		{"bf", core.EngineBF},
		{"hybrid", core.EngineHybrid},
		{"pbf", core.EnginePBF},
	}
	for _, circ := range []string{"mult-9", "c3540-7"} {
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/%s", circ, eng.name), func(b *testing.B) {
				runOne(b, harness.Config{Circuit: circ, Engine: eng.e, UseEngine: true})
			})
		}
	}
}

// BenchmarkAblationGCPolicy compares the compacting collector against the
// free-list sweep under memory pressure (DESIGN.md ablation A; §3.4).
func BenchmarkAblationGCPolicy(b *testing.B) {
	for _, pol := range []core.GCPolicy{core.GCCompact, core.GCFreeList} {
		b.Run(pol.String(), func(b *testing.B) {
			r := runOne(b, harness.Config{Circuit: "mult-10", Workers: 0, GC: pol})
			b.ReportMetric(float64(r.GCCount), "collections")
		})
	}
}

// BenchmarkAblationThreshold sweeps the evaluation threshold (DESIGN.md
// ablation C; §3.1's working-set control).
func BenchmarkAblationThreshold(b *testing.B) {
	for _, thr := range []int{1 << 8, 1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("threshold=%d", thr), func(b *testing.B) {
			r := runOne(b, harness.Config{Circuit: "mult-10", Workers: 0, EvalThreshold: thr})
			b.ReportMetric(float64(r.AllWorkers.ContextPushes), "ctx-pushes")
		})
	}
}

// BenchmarkAblationStealing compares work stealing on/off in the parallel
// engine (DESIGN.md ablation D; §3.3).
func BenchmarkAblationStealing(b *testing.B) {
	for _, steal := range []bool{true, false} {
		b.Run(fmt.Sprintf("stealing=%v", steal), func(b *testing.B) {
			r := runOne(b, harness.Config{
				Circuit: "mult-10", Workers: 4,
				EvalThreshold: 1 << 12, DisableStealing: !steal,
			})
			b.ReportMetric(float64(r.AllWorkers.Steals), "steals")
			b.ReportMetric(float64(r.AllWorkers.StolenOps), "stolen-ops")
		})
	}
}

// BenchmarkAblationOrder quantifies the variable-ordering sensitivity the
// paper discusses in §2 (BDD size "can be exponentially more compact"
// under one ordering than another).
func BenchmarkAblationOrder(b *testing.B) {
	for _, m := range []order.Method{order.DFS, order.Interleave, order.Identity} {
		b.Run(m.String(), func(b *testing.B) {
			r := runOne(b, harness.Config{Circuit: "adder-12", Workers: 0, Order: m})
			b.ReportMetric(float64(r.OutputNodes), "output-nodes")
		})
	}
}

// BenchmarkApplyMicro measures single Apply operations through the public
// API (not a paper figure; a sanity baseline for library users).
func BenchmarkApplyMicro(b *testing.B) {
	configs := map[string][]bfbdd.Option{
		"df":  {bfbdd.WithEngine(bfbdd.EngineDF)},
		"pbf": {bfbdd.WithEngine(bfbdd.EnginePBF)},
		"par": {bfbdd.WithEngine(bfbdd.EnginePar), bfbdd.WithWorkers(4)},
	}
	for engName, opts := range configs {
		b.Run(engName, func(b *testing.B) {
			m := bfbdd.New(24, opts...)
			f := m.Var(0)
			for i := 1; i < 24; i++ {
				f = f.Xor(m.Var(i))
			}
			g := m.Var(0)
			for i := 1; i < 24; i++ {
				g = g.And(m.Var(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := f.Or(g)
				h.Free()
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Compiled read-path benchmarks: Manager.Eval (the live write-path walk)
// against the frozen artifact's Eval and EvalBatch on C6288-style
// multiplier outputs. mult-11 is the quick default; mult-13 is the
// paper-scale workload the acceptance numbers in bench_report_default.txt
// are recorded on. All three report ns/assign so the per-assignment
// throughput ratio reads directly off the output.

// multEval is one multiplier workload shared by the eval benchmarks:
// the live manager, the mid output (the widest product column), the
// compiled artifact of all outputs, and a fixed pool of assignments.
type multEval struct {
	m    *bfbdd.Manager
	outs []*bfbdd.BDD
	mid  *bfbdd.BDD
	fn   *bfbdd.CompiledFunc
	root int
	rows [][]bool
}

var multEvalCache = map[int]*multEval{}

// gateEval builds one netlist gate through the public BDD API, freeing
// folding intermediates.
func gateEval(m *bfbdd.Manager, g netlist.Gate, gateB []*bfbdd.BDD, inputPos int) *bfbdd.BDD {
	bin := func(op netlist.GateType, f, h *bfbdd.BDD) *bfbdd.BDD {
		switch op {
		case netlist.GateAnd, netlist.GateNand:
			return f.And(h)
		case netlist.GateOr, netlist.GateNor:
			return f.Or(h)
		default:
			return f.Xor(h)
		}
	}
	switch g.Type {
	case netlist.GateInput:
		return m.Var(inputPos)
	case netlist.GateConst0:
		return m.Zero()
	case netlist.GateConst1:
		return m.One()
	case netlist.GateNot:
		return gateB[g.Fanin[0]].Not()
	case netlist.GateBuf:
		b := gateB[g.Fanin[0]]
		return b.Or(b)
	}
	acc := gateB[g.Fanin[0]]
	freeAcc := false
	for _, f := range g.Fanin[1:] {
		next := bin(g.Type, acc, gateB[f])
		if freeAcc {
			acc.Free()
		}
		acc, freeAcc = next, true
	}
	switch g.Type {
	case netlist.GateNand, netlist.GateNor, netlist.GateXnor:
		next := acc.Not()
		if freeAcc {
			acc.Free()
		}
		acc = next
	}
	return acc
}

// multEvalSetup builds (once per size, shared across benchmarks) the
// n-bit multiplier's output BDDs under the DFS order and compiles every
// output into one artifact.
func multEvalSetup(b *testing.B, n int) *multEval {
	b.Helper()
	if me, ok := multEvalCache[n]; ok {
		return me
	}
	c := netlist.Multiplier(n)
	m := bfbdd.New(c.NumInputs())
	m.SetOrder(order.Compute(c, order.DFS, 0))
	inputPos := make(map[int]int, len(c.Inputs))
	for pos, gi := range c.Inputs {
		inputPos[gi] = pos
	}
	isOut := make(map[int]bool, len(c.Outputs))
	for _, o := range c.Outputs {
		isOut[o] = true
	}
	gateB := make([]*bfbdd.BDD, len(c.Gates))
	for gi, g := range c.Gates {
		gateB[gi] = gateEval(m, g, gateB, inputPos[gi])
	}
	outs := make([]*bfbdd.BDD, len(c.Outputs))
	for i, o := range c.Outputs {
		outs[i] = gateB[o]
	}
	for gi, bd := range gateB {
		if !isOut[gi] {
			bd.Free()
		}
	}
	fn, err := m.Compile(outs...)
	if err != nil {
		b.Fatal(err)
	}
	mid := len(outs) / 2 // the widest product column
	root, _ := fn.RootByID(uint64(mid))
	rng := rand.New(rand.NewSource(int64(n) * 6288))
	rows := make([][]bool, 1024)
	for i := range rows {
		row := make([]bool, c.NumInputs())
		for v := range row {
			row[v] = rng.Intn(2) == 1
		}
		rows[i] = row
	}
	me := &multEval{m: m, outs: outs, mid: outs[mid], fn: fn, root: root, rows: rows}
	multEvalCache[n] = me
	return me
}

var multEvalSizes = []int{11, 13}

// BenchmarkManagerEval is the baseline: single-assignment evaluation
// through the live manager (per-call level translation plus a pointer
// walk over the arena store).
func BenchmarkManagerEval(b *testing.B) {
	for _, n := range multEvalSizes {
		b.Run(fmt.Sprintf("mult-%d", n), func(b *testing.B) {
			me := multEvalSetup(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				me.mid.Eval(me.rows[i%len(me.rows)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/assign")
		})
	}
}

// BenchmarkCompiledEval evaluates the same assignments on the frozen
// artifact: a zero-allocation walk over the packed level-major array.
func BenchmarkCompiledEval(b *testing.B) {
	for _, n := range multEvalSizes {
		b.Run(fmt.Sprintf("mult-%d", n), func(b *testing.B) {
			me := multEvalSetup(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				me.fn.Eval(me.root, me.rows[i%len(me.rows)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/assign")
		})
	}
}

// BenchmarkCompiledEvalBatch evaluates the whole assignment pool per
// operation; ns/assign is the artifact's amortized per-assignment cost,
// the number the acceptance ratio against BenchmarkManagerEval uses.
func BenchmarkCompiledEvalBatch(b *testing.B) {
	for _, n := range multEvalSizes {
		b.Run(fmt.Sprintf("mult-%d", n), func(b *testing.B) {
			me := multEvalSetup(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				me.fn.EvalBatch(me.root, me.rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(me.rows)), "ns/assign")
		})
	}
}

// ---------------------------------------------------------------------------
// Whole-graph walks on mult-11's outputs: publishing (Compile), sizing
// and snapshotting each mark every reachable node through a side table
// over the arenas. Size/small is a 14-node output, the guard on the
// table's fixed cost per walk.

// BenchmarkCompileRoots compiles every mult-11 output into one artifact,
// the kernel half of publishing a function.
func BenchmarkCompileRoots(b *testing.B) {
	me := multEvalSetup(b, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := me.m.Compile(me.outs...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSize counts the distinct nodes of all mult-11 outputs, and of
// one 14-node output.
func BenchmarkSize(b *testing.B) {
	me := multEvalSetup(b, 11)
	refs := make([]node.Ref, len(me.outs))
	for i, o := range me.outs {
		refs[i] = o.Ref()
	}
	k := me.m.Kernel()
	b.Run("all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.SizeMulti(refs)
		}
	})
	b.Run("small", func(b *testing.B) {
		small := me.outs[2]
		if n := small.Size(); n != 14 {
			b.Fatalf("output 2 has %d nodes, want 14", n)
		}
		for i := 0; i < b.N; i++ {
			small.Size()
		}
	})
}

// BenchmarkSnapshotWrite snapshots every mult-11 output, the synchronous
// checkpoint a restore takes.
func BenchmarkSnapshotWrite(b *testing.B) {
	me := multEvalSetup(b, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := me.m.Snapshot(io.Discard, me.outs...); err != nil {
			b.Fatal(err)
		}
	}
}
