// Command bfbdd-circuit symbolically evaluates a combinational circuit,
// building one BDD per primary output, and reports sizes and statistics.
// It accepts either a built-in generated circuit (-circuit, see
// internal/harness for names) or an ISCAS85 .bench netlist file (-bench).
//
// Usage:
//
//	bfbdd-circuit -circuit mult-11 [flags]
//	bfbdd-circuit -bench path/to/c432.bench [flags]
//
//	-engine NAME    df, bf, hybrid, pbf (default), par
//	-workers N      worker count for -engine par
//	-order METHOD   dfs (default), identity, interleave, reverse, shuffle
//	-threshold N    evaluation threshold
//	-sat            report satisfying-assignment counts per output
//	-dot FILE       write the output BDDs as Graphviz DOT
//	-write FILE     re-emit the circuit in .bench format
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bfbdd/internal/core"
	"bfbdd/internal/harness"
	"bfbdd/internal/netlist"
	"bfbdd/internal/node"
	"bfbdd/internal/order"
	"bfbdd/internal/stats"
)

func main() {
	var (
		circuitName = flag.String("circuit", "", "built-in circuit name (e.g. mult-11, c2670)")
		benchFile   = flag.String("bench", "", "ISCAS85 .bench netlist file")
		engineName  = flag.String("engine", "pbf", "df, bf, hybrid, pbf, par")
		workers     = flag.Int("workers", 4, "workers for -engine par")
		orderFlag   = flag.String("order", "dfs", "variable order method")
		threshold   = flag.Int("threshold", 0, "evaluation threshold (0 = default)")
		doSat       = flag.Bool("sat", false, "report per-output satisfying assignment counts")
		dotFile     = flag.String("dot", "", "write output BDDs as DOT")
		writeFile   = flag.String("write", "", "re-emit circuit in .bench format")
	)
	flag.Parse()

	circ, err := loadCircuit(*circuitName, *benchFile)
	if err != nil {
		fatal(err)
	}
	if *writeFile != "" {
		f, err := os.Create(*writeFile)
		if err != nil {
			fatal(err)
		}
		if err := netlist.Write(f, circ); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *writeFile)
	}

	var m order.Method
	switch *orderFlag {
	case "dfs":
		m = order.DFS
	case "identity":
		m = order.Identity
	case "interleave":
		m = order.Interleave
	case "reverse":
		m = order.Reverse
	case "shuffle":
		m = order.Shuffle
	default:
		fatal(fmt.Errorf("unknown -order %q", *orderFlag))
	}

	opts := core.Options{
		Levels:        circ.NumInputs(),
		EvalThreshold: *threshold,
	}
	switch *engineName {
	case "df":
		opts.Engine = core.EngineDF
	case "bf":
		opts.Engine = core.EngineBF
	case "hybrid":
		opts.Engine = core.EngineHybrid
	case "pbf":
		opts.Engine = core.EnginePBF
	case "par":
		opts.Engine = core.EnginePar
		opts.Workers = *workers
		opts.Stealing = true
	default:
		fatal(fmt.Errorf("unknown -engine %q", *engineName))
	}

	fmt.Printf("circuit %s: %d inputs, %d outputs, %d gates, depth %d\n",
		circ.Name, circ.NumInputs(), circ.NumOutputs(), circ.NumGates(), circ.Depth())

	k := core.NewKernel(opts)
	levels := order.Compute(circ, m, 0)
	start := time.Now()
	res, err := netlist.Build(k, circ, levels)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	refs := res.Refs()
	fmt.Printf("built %d output BDDs in %v with engine %s\n",
		len(refs), elapsed.Round(time.Millisecond), opts.Engine)
	fmt.Printf("total output nodes: %d (shared); live nodes: %d\n",
		k.SizeMulti(refs), k.NumNodes())

	for i, r := range refs {
		gate := circ.Gates[circ.Outputs[i]]
		name := gate.Name
		if name == "" {
			name = fmt.Sprintf("out%d", i)
		}
		line := fmt.Sprintf("  %-12s %8d nodes", name, k.Size(r))
		if *doSat {
			line += fmt.Sprintf("  satcount=%v", k.SatCount(r))
		}
		switch {
		case r == node.Zero:
			line += "  (constant 0)"
		case r == node.One:
			line += "  (constant 1)"
		}
		fmt.Println(line)
	}

	st := k.TotalStats()
	fmt.Printf("stats: %d ops (%.2fM), %d cache hits, %d terminal cases\n",
		st.Ops, float64(st.Ops)/1e6, st.CacheHits, st.Terminals)
	fmt.Printf("phases: expansion %v, reduction %v, gc mark/fix/rehash %v/%v/%v\n",
		st.PhaseTime(stats.PhaseExpansion).Round(time.Millisecond),
		st.PhaseTime(stats.PhaseReduction).Round(time.Millisecond),
		st.PhaseTime(stats.PhaseGCMark).Round(time.Millisecond),
		st.PhaseTime(stats.PhaseGCFix).Round(time.Millisecond),
		st.PhaseTime(stats.PhaseGCRehash).Round(time.Millisecond))
	fmt.Printf("memory: peak %.1f MB, %d garbage collections\n",
		float64(k.Memory().PeakBytes)/(1<<20), k.Memory().GCCount)
	if opts.Engine == core.EnginePar {
		fmt.Printf("parallel: %d context pushes, %d steals (%d ops), %d stalls\n",
			st.ContextPushes, st.Steals, st.StolenOps, st.Stalls)
	}

	if *dotFile != "" {
		if err := writeDOT(*dotFile, k, circ, refs); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *dotFile)
	}
	res.Release()
}

func loadCircuit(name, benchFile string) (*netlist.Circuit, error) {
	switch {
	case name != "" && benchFile != "":
		return nil, fmt.Errorf("use either -circuit or -bench, not both")
	case name != "":
		return harness.MakeCircuit(name)
	case benchFile != "":
		f, err := os.Open(benchFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return netlist.Parse(benchFile, f)
	default:
		return nil, fmt.Errorf("one of -circuit or -bench is required")
	}
}

// writeDOT emits the output BDDs with a minimal local renderer (the
// public package's WriteDOT works on public handles; here we have raw
// kernel refs).
func writeDOT(path string, k *core.Kernel, circ *netlist.Circuit, refs []node.Ref) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "digraph bdd {")
	fmt.Fprintln(f, `  t0 [label="0", shape=box]; t1 [label="1", shape=box];`)
	id := func(r node.Ref) string {
		switch {
		case r.IsZero():
			return "t0"
		case r.IsOne():
			return "t1"
		default:
			return fmt.Sprintf("n%d_%d_%d", r.Level(), r.Worker(), r.Index())
		}
	}
	seen := node.NewTable[bool](k.Store())
	var emit func(r node.Ref)
	emit = func(r node.Ref) {
		if r.IsTerminal() || *seen.At(r) {
			return
		}
		*seen.At(r) = true
		nd := k.Store().Node(r)
		fmt.Fprintf(f, "  %s [label=\"x%d\"];\n", id(r), r.Level())
		fmt.Fprintf(f, "  %s -> %s [style=dashed];\n", id(r), id(nd.Low))
		fmt.Fprintf(f, "  %s -> %s;\n", id(r), id(nd.High))
		emit(nd.Low)
		emit(nd.High)
	}
	for i, r := range refs {
		gate := circ.Gates[circ.Outputs[i]]
		label := gate.Name
		if label == "" {
			label = fmt.Sprintf("out%d", i)
		}
		fmt.Fprintf(f, "  r%d [label=%q, shape=plaintext];\n  r%d -> %s;\n", i, label, i, id(r))
		emit(r)
	}
	fmt.Fprintln(f, "}")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfbdd-circuit:", err)
	os.Exit(1)
}
