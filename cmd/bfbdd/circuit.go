package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bfbdd/internal/core"
	"bfbdd/internal/harness"
	"bfbdd/internal/netlist"
	"bfbdd/internal/node"
	"bfbdd/internal/order"
	"bfbdd/internal/stats"
)

// circuitRun symbolically evaluates a combinational circuit, building one
// BDD per primary output, and reports sizes and statistics. The circuit
// is a built-in generator (-circuit, see internal/harness for names) or
// an ISCAS85 .bench netlist file (-bench).
func circuitRun(c *cli, args []string) error {
	fs := flag.NewFlagSet("circuit", flag.ContinueOnError)
	var (
		circuitName = fs.String("circuit", "", "built-in circuit name (e.g. mult-11, c2670)")
		benchFile   = fs.String("bench", "", "ISCAS85 .bench netlist file")
		engineName  = fs.String("engine", "pbf", "df, bf, hybrid, pbf, par")
		workers     = fs.Int("workers", 4, "workers for -engine par")
		orderFlag   = fs.String("order", "dfs", "variable order method")
		threshold   = fs.Int("threshold", 0, "evaluation threshold (0 = default)")
		doSat       = fs.Bool("sat", false, "report per-output satisfying assignment counts")
		dotFile     = fs.String("dot", "", "write output BDDs as DOT")
		writeFile   = fs.String("write", "", "re-emit circuit in .bench format")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usagef("circuit takes no arguments")
	}
	opts, method, err := kernelOptions(*engineName, *orderFlag, *workers)
	if err != nil {
		return err
	}
	var circ *netlist.Circuit
	switch {
	case *circuitName != "" && *benchFile != "":
		return usagef("use either -circuit or -bench, not both")
	case *circuitName != "":
		circ, err = loadCircuit(*circuitName, false)
	case *benchFile != "":
		circ, err = loadCircuit(*benchFile, true)
	default:
		return usagef("one of -circuit or -bench is required")
	}
	if err != nil {
		return err
	}
	if *writeFile != "" {
		if err := writeOutput(*writeFile, func(w io.Writer) error { return netlist.Write(w, circ) }); err != nil {
			return err
		}
		c.printf("wrote %s\n", *writeFile)
	}
	opts.Levels, opts.EvalThreshold = circ.NumInputs(), *threshold

	c.printf("circuit %s: %d inputs, %d outputs, %d gates, depth %d\n",
		circ.Name, circ.NumInputs(), circ.NumOutputs(), circ.NumGates(), circ.Depth())

	k := core.NewKernel(opts)
	levels := order.Compute(circ, method, 0)
	start := time.Now()
	res, err := netlist.Build(k, circ, levels)
	if err != nil {
		return err
	}
	defer res.Release()
	elapsed := time.Since(start)

	refs := res.Refs()
	c.printf("built %d output BDDs in %v with engine %s\n",
		len(refs), elapsed.Round(time.Millisecond), opts.Engine)
	c.printf("total output nodes: %d (shared); live nodes: %d\n",
		k.SizeMulti(refs), k.NumNodes())

	names := make([]string, len(refs))
	for i, r := range refs {
		names[i] = signal(circ, circ.Outputs[i], "out", i)
		line := fmt.Sprintf("  %-12s %8d nodes", names[i], k.Size(r))
		if *doSat {
			line += fmt.Sprintf("  satcount=%v", k.SatCount(r))
		}
		switch {
		case r == node.Zero:
			line += "  (constant 0)"
		case r == node.One:
			line += "  (constant 1)"
		}
		c.printf("%s\n", line)
	}

	st := k.TotalStats()
	c.printf("stats: %d ops (%.2fM), %d cache hits, %d terminal cases\n",
		st.Ops, float64(st.Ops)/1e6, st.CacheHits, st.Terminals)
	c.printf("phases: expansion %v, reduction %v, gc mark/fix/rehash %v/%v/%v\n",
		st.PhaseTime(stats.PhaseExpansion).Round(time.Millisecond),
		st.PhaseTime(stats.PhaseReduction).Round(time.Millisecond),
		st.PhaseTime(stats.PhaseGCMark).Round(time.Millisecond),
		st.PhaseTime(stats.PhaseGCFix).Round(time.Millisecond),
		st.PhaseTime(stats.PhaseGCRehash).Round(time.Millisecond))
	c.printf("memory: peak %.1f MB, %d garbage collections\n",
		float64(k.Memory().PeakBytes)/(1<<20), k.Memory().GCCount)
	if opts.Engine == core.EnginePar {
		c.printf("parallel: %d context pushes, %d steals (%d ops), %d stalls\n",
			st.ContextPushes, st.Steals, st.StolenOps, st.Stalls)
	}

	if *dotFile != "" {
		// Label each node with the primary input its level holds.
		inputOf := make([]int, len(levels))
		for pos, lvl := range levels {
			inputOf[lvl] = pos
		}
		if err := writeOutput(*dotFile, func(w io.Writer) error { return k.WriteDOT(w, refs, names, inputOf) }); err != nil {
			return err
		}
		c.printf("wrote %s\n", *dotFile)
	}
	return nil
}

// verifyRun checks two combinational circuits for functional equivalence,
// the paper's motivating verification flow (§1). Both netlists become
// BDDs over a shared variable order, outputs are compared by canonical
// ref, and each mismatch gets counterexample input vectors drawn from the
// XOR of the two diagrams. Inputs and outputs are matched by name when
// both sides name their signals, and by position otherwise. A circuit
// that does not differ exits 0; one that does exits 1.
func verifyRun(c *cli, args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	var (
		specArg    = fs.String("spec", "", "specification: .bench file or built-in circuit name")
		implArg    = fs.String("impl", "", "implementation: .bench file or built-in circuit name")
		engineName = fs.String("engine", "pbf", "df, bf, hybrid, pbf, par")
		workers    = fs.Int("workers", 4, "workers for -engine par")
		orderFlag  = fs.String("order", "dfs", "variable order method")
		maxCex     = fs.Int("max-cex", 1, "counterexamples per differing output")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *specArg == "" || *implArg == "" {
		return usagef("both -spec and -impl are required")
	}
	if fs.NArg() > 0 {
		return usagef("verify takes no arguments")
	}
	opts, method, err := kernelOptions(*engineName, *orderFlag, *workers)
	if err != nil {
		return err
	}
	load := func(arg string) (*netlist.Circuit, error) {
		_, err := os.Stat(arg)
		return loadCircuit(arg, err == nil)
	}
	spec, err := load(*specArg)
	if err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	impl, err := load(*implArg)
	if err != nil {
		return fmt.Errorf("impl: %w", err)
	}

	// Match the implementation's inputs and outputs against the spec's.
	inputMap, err := matchByName(spec, impl, true)
	if err != nil {
		return err
	}
	outputMap, err := matchByName(spec, impl, false)
	if err != nil {
		return err
	}

	opts.Levels = spec.NumInputs()
	k := core.NewKernel(opts)
	specOrder := order.Compute(spec, method, 0)
	// The implementation's input at position p corresponds to the spec
	// input inputMap[p]; give it that input's level.
	implOrder := make([]int, impl.NumInputs())
	for p := range implOrder {
		implOrder[p] = specOrder[inputMap[p]]
	}

	start := time.Now()
	specRes, err := netlist.Build(k, spec, specOrder)
	if err != nil {
		return fmt.Errorf("building spec: %w", err)
	}
	defer specRes.Release()
	implRes, err := netlist.Build(k, impl, implOrder)
	if err != nil {
		return fmt.Errorf("building impl: %w", err)
	}
	defer implRes.Release()
	c.printf("built %q (%d gates) and %q (%d gates) in %v\n",
		spec.Name, spec.NumGates(), impl.Name, impl.NumGates(),
		time.Since(start).Round(time.Millisecond))

	differing := 0
	for si, sref := range specRes.Refs() {
		iref := implRes.Refs()[outputMap[si]]
		if sref == iref {
			continue
		}
		differing++
		c.printf("output %q DIFFERS\n", signal(spec, spec.Outputs[si], "out", si))
		miter := k.Apply(core.OpXor, sref, iref)
		for printed := 0; printed < *maxCex; {
			cex, ok := k.AnySat(miter)
			if !ok {
				break
			}
			c.printf("  counterexample:")
			assign := make([]bool, k.Levels())
			for lvl, v := range cex {
				assign[lvl] = v == 1
			}
			for pos, gi := range spec.Inputs {
				val := 0
				if assign[specOrder[pos]] {
					val = 1
				}
				c.printf(" %s=%d", signal(spec, gi, "in", pos), val)
			}
			c.printf("  (spec=%v impl=%v)\n", k.Eval(sref, assign), k.Eval(iref, assign))
			printed++
			if printed < *maxCex {
				// Exclude this assignment and ask for another.
				lit := node.One
				excl := k.Pin(miter)
				for lvl, v := range cex {
					if v < 0 {
						continue
					}
					var vr node.Ref
					if v == 1 {
						vr = k.MkNode(lvl, node.Zero, node.One)
					} else {
						vr = k.MkNode(lvl, node.One, node.Zero)
					}
					lit = k.Apply(core.OpAnd, lit, vr)
				}
				miter = k.Apply(core.OpDiff, excl.Ref(), lit)
				k.Unpin(excl)
			}
		}
	}

	if differing == 0 {
		c.printf("EQUIVALENT: all outputs match\n")
		return nil
	}
	c.printf("NOT EQUIVALENT: %d of %d outputs differ\n", differing, spec.NumOutputs())
	return errFailed
}

// kernelOptions parses the -engine and -order names circuit and verify
// share. Only -engine par uses the -workers count; it also steals work.
func kernelOptions(engine, method string, workers int) (core.Options, order.Method, error) {
	e, err := core.ParseEngine(engine)
	if err != nil {
		return core.Options{}, 0, usageError(err.Error())
	}
	m, err := order.ParseMethod(method)
	if err != nil {
		return core.Options{}, 0, usageError(err.Error())
	}
	opts := core.Options{Engine: e}
	if e == core.EnginePar {
		opts.Workers, opts.Stealing = workers, true
	}
	return opts, m, nil
}

// loadCircuit parses the .bench file arg when file is set, and otherwise
// generates the built-in circuit arg names.
func loadCircuit(arg string, file bool) (*netlist.Circuit, error) {
	if !file {
		return harness.MakeCircuit(arg)
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return netlist.Parse(arg, f)
}

// signal names gate g of c, or kind plus pos when the gate has no name.
func signal(c *netlist.Circuit, g int, kind string, pos int) string {
	if name := c.Gates[g].Name; name != "" {
		return name
	}
	return fmt.Sprintf("%s%d", kind, pos)
}

// matchByName maps spec positions to impl positions for inputs
// (forInputs) or outputs, by signal name when both sides are fully named,
// by position otherwise. The returned slice is indexed by impl position
// for inputs and by spec position for outputs.
func matchByName(spec, impl *netlist.Circuit, forInputs bool) ([]int, error) {
	sIdx, iIdx := spec.Outputs, impl.Outputs
	kind := "outputs"
	if forInputs {
		sIdx, iIdx = spec.Inputs, impl.Inputs
		kind = "inputs"
	}
	if len(sIdx) != len(iIdx) {
		return nil, fmt.Errorf("spec has %d %s, impl has %d", len(sIdx), kind, len(iIdx))
	}
	named := true
	for _, gi := range sIdx {
		if spec.Gates[gi].Name == "" {
			named = false
		}
	}
	for _, gi := range iIdx {
		if impl.Gates[gi].Name == "" {
			named = false
		}
	}
	mapping := make([]int, len(sIdx))
	if !named {
		for i := range mapping {
			mapping[i] = i
		}
		return mapping, nil
	}
	specPos := make(map[string]int, len(sIdx))
	for p, gi := range sIdx {
		specPos[spec.Gates[gi].Name] = p
	}
	for p, gi := range iIdx {
		name := impl.Gates[gi].Name
		sp, ok := specPos[name]
		if !ok {
			return nil, fmt.Errorf("impl %s %q has no counterpart in spec", kind, name)
		}
		if forInputs {
			mapping[p] = sp // impl position -> spec position
		} else {
			mapping[sp] = p // spec position -> impl position
		}
	}
	return mapping, nil
}
