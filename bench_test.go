package bfbdd_test

// Go benchmarks of the library: the peak-memory split of a mult-10
// build, single Apply calls, compiled evaluation, and whole-graph walks.
// The paper's figures and the DESIGN.md §3 ablations come from
// `go run ./cmd/bfbdd bench` instead (see EXPERIMENTS.md).
//
// Custom metrics:
//
//	Mops/build   total Shannon expansion steps (Figure 11's metric)
//	peak-MB      high-water explicit memory (Figure 9's metric)
//	nodes-MB, ops-MB, cache-MB, tables-MB
//	             peak-MB split by component (BenchmarkBuildPeak)
//	ns/assign    per-assignment evaluation cost (the eval benchmarks)

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"bfbdd"
	"bfbdd/internal/harness"
	"bfbdd/internal/netlist"
	"bfbdd/internal/node"
	"bfbdd/internal/order"
)

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

// BenchmarkBuildPeak reports a mult-10 build's peak memory and its split
// by component at the peak sample, sequential and with 2 workers: the
// numbers ROADMAP item 3 tracks (nodes-MB, ops-MB, cache-MB, tables-MB).
func BenchmarkBuildPeak(b *testing.B) {
	for _, p := range []int{0, 2} {
		b.Run("mult-10/procs="+harness.ProcLabel(p), func(b *testing.B) {
			a := runOne(b, harness.Config{Circuit: "mult-10", Workers: p}).AtPeak
			b.ReportMetric(float64(a.NodeBytes)/(1<<20), "nodes-MB")
			b.ReportMetric(float64(a.OpBytes)/(1<<20), "ops-MB")
			b.ReportMetric(float64(a.CacheBytes)/(1<<20), "cache-MB")
			b.ReportMetric(float64(a.TableBytes)/(1<<20), "tables-MB")
		})
	}
}

// BenchmarkApplyMicro measures single Apply operations through the public
// API (not a paper figure; a sanity baseline for library users): f.Or(g)
// of a 24-variable XOR and a 24-variable AND, freed each time, on managers
// declaring 24, 1,024 and 16,384 variables. The operation touches the same
// 24 levels at every size, so time that grows with the declared count is
// per-level work it did not need.
func BenchmarkApplyMicro(b *testing.B) {
	configs := []struct {
		name string
		opts []bfbdd.Option
	}{
		{"df", []bfbdd.Option{bfbdd.WithEngine(bfbdd.EngineDF)}},
		{"pbf", []bfbdd.Option{bfbdd.WithEngine(bfbdd.EnginePBF)}},
		{"par", []bfbdd.Option{bfbdd.WithEngine(bfbdd.EnginePar), bfbdd.WithWorkers(4)}},
	}
	for _, c := range configs {
		for _, vars := range []int{24, 1024, 16384} {
			b.Run(fmt.Sprintf("%s/vars=%d", c.name, vars), func(b *testing.B) {
				m := bfbdd.New(vars, c.opts...)
				defer m.Close()
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
}

// ---------------------------------------------------------------------------
// Compiled read-path benchmarks: Manager.Eval (the live write-path walk)
// against the frozen artifact's Eval and EvalBatch on C6288-style
// multiplier outputs. mult-11 is the quick default; mult-13 is the
// paper-scale workload. All three report ns/assign so the per-assignment
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

// BenchmarkRestore revives every mult-11 output the two ways a parked
// session can come back (ROADMAP item 8): restore is RestoreManager from
// an in-memory snapshot into a fresh manager; unspill is Unspill of the
// same nodes after SpillAll, on a manager restored from that snapshot.
func BenchmarkRestore(b *testing.B) {
	me := multEvalSetup(b, 11)
	var snap bytes.Buffer
	if err := me.m.Snapshot(&snap, me.outs...); err != nil {
		b.Fatal(err)
	}
	restore := func(b *testing.B, opts ...bfbdd.Option) *bfbdd.Manager {
		m, _, err := bfbdd.RestoreManager(bytes.NewReader(snap.Bytes()), opts...)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	b.Run("restore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := restore(b)
			b.StopTimer()
			m.Close()
			b.StartTimer()
		}
	})
	b.Run("unspill", func(b *testing.B) {
		m := restore(b, bfbdd.WithSpillDir(b.TempDir()))
		defer m.Close()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := m.SpillAll(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := m.Unspill(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
