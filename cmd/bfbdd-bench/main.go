// Command bfbdd-bench regenerates the tables and figures of Yang &
// O'Hallaron, "Parallel Breadth-First BDD Construction" (PPoPP 1997).
//
// By default it runs a scaled-down version of the paper's evaluation
// (finishing in a few minutes); -full runs the paper-scale circuits
// (c2670, c3540, mult-13, mult-14 — expect a long run and several GB of
// memory). Each figure is printed in the layout of the corresponding
// figure in the paper; "modeled" variants are additionally printed when
// the host cannot execute workers in parallel (see EXPERIMENTS.md).
//
// Usage:
//
//	bfbdd-bench [flags]
//
//	-full               paper-scale circuits
//	-circuits LIST      comma-separated circuit names (overrides presets)
//	-detail NAME        circuit for the per-circuit figures 13–19
//	-procs LIST         processor counts; 0 means the sequential row
//	-figs LIST          figures to print (e.g. "7,8,15"); default all
//	-threshold N        partial breadth-first evaluation threshold
//	-groupsize N        operations per stealable group
//	-gc POLICY          "compact" or "freelist"
//	-order METHOD       "dfs", "identity", "interleave", "reverse", "shuffle"
//	-nosteal            disable work stealing
//	-o FILE             write the report to FILE instead of stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bfbdd/internal/core"
	"bfbdd/internal/harness"
	"bfbdd/internal/order"
)

func main() {
	var (
		full      = flag.Bool("full", false, "run the paper-scale circuits (slow)")
		circuits  = flag.String("circuits", "", "comma-separated circuit list")
		detail    = flag.String("detail", "", "circuit for figures 13-19 (default: last circuit)")
		procsFlag = flag.String("procs", "0,1,2,4,8", "processor counts (0 = sequential)")
		figsFlag  = flag.String("figs", "all", "figures to print, e.g. \"7,8,15\"")
		threshold = flag.Int("threshold", 0, "evaluation threshold (0 = default)")
		groupSize = flag.Int("groupsize", 0, "steal group size (0 = default)")
		gcPolicy  = flag.String("gc", "compact", "garbage collector: compact or freelist")
		orderFlag = flag.String("order", "dfs", "variable order: dfs, identity, interleave, reverse, shuffle")
		noSteal   = flag.Bool("nosteal", false, "disable work stealing")
		outFile   = flag.String("o", "", "write report to file")
	)
	flag.Parse()

	var out io.Writer = os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	circuitList := []string{"c2670-8", "c3540-8", "mult-10", "mult-11"}
	if *full {
		circuitList = []string{"c2670", "c3540", "mult-13", "mult-14"}
	}
	if *circuits != "" {
		circuitList = splitList(*circuits)
	}
	detailCircuit := circuitList[len(circuitList)-1]
	if *detail != "" {
		detailCircuit = *detail
	}

	procs, err := parseInts(*procsFlag)
	if err != nil {
		fatal(fmt.Errorf("bad -procs: %w", err))
	}
	figs, err := parseFigs(*figsFlag)
	if err != nil {
		fatal(err)
	}

	base := harness.Config{
		EvalThreshold:   *threshold,
		GroupSize:       *groupSize,
		DisableStealing: *noSteal,
	}
	switch *gcPolicy {
	case "compact":
		base.GC = core.GCCompact
	case "freelist":
		base.GC = core.GCFreeList
	default:
		fatal(fmt.Errorf("unknown -gc %q", *gcPolicy))
	}
	if base.Order, err = order.ParseMethod(*orderFlag); err != nil {
		fatal(err)
	}

	fmt.Fprintf(out, "bfbdd-bench: reproducing Yang & O'Hallaron (PPoPP 1997)\n")
	fmt.Fprintf(out, "host: GOMAXPROCS=%d; circuits: %s; procs: %s; order: %s; gc: %s\n",
		runtime.GOMAXPROCS(0), strings.Join(circuitList, ","), *procsFlag, *orderFlag, *gcPolicy)
	parallelHost := harness.HostParallel(runtime.GOMAXPROCS(0))
	if !parallelHost {
		fmt.Fprintf(out, "NOTE: single-core host — wall-clock speedups are physically flat here;\n")
		fmt.Fprintf(out, "      modeled figures (see EXPERIMENTS.md) carry the speedup shapes.\n")
	}

	rs := harness.ResultSet{}
	for _, c := range circuitList {
		fmt.Fprintf(os.Stderr, "running %s across %v procs...\n", c, procs)
		start := time.Now()
		m, err := harness.Sweep(c, procs, base)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "  done in %v\n", time.Since(start).Round(time.Millisecond))
		rs[c] = m
	}
	detailRuns, ok := rs[detailCircuit]
	if !ok {
		fatal(fmt.Errorf("-detail circuit %q not in circuit list", detailCircuit))
	}

	want := func(n int) bool { _, ok := figs[n]; return ok }
	if want(7) {
		harness.Fig7(out, rs)
	}
	if want(8) {
		harness.Fig8(out, rs)
		harness.Fig8Modeled(out, rs)
	}
	if want(9) {
		harness.Fig9(out, rs)
		harness.Fig9DSM(out, rs)
	}
	if want(10) {
		harness.Fig10(out, rs)
	}
	if want(11) {
		harness.Fig11(out, rs)
	}
	if want(12) {
		harness.Fig12(out, rs)
	}
	if want(13) {
		harness.Fig13(out, detailCircuit, detailRuns)
		harness.Fig13Modeled(out, detailCircuit, detailRuns)
	}
	if want(14) {
		harness.Fig14(out, detailCircuit, detailRuns)
		harness.Fig14Modeled(out, detailCircuit, detailRuns)
	}
	if want(15) {
		oneProc := detailRuns[1]
		if oneProc == nil {
			for _, p := range procs {
				if detailRuns[p] != nil {
					oneProc = detailRuns[p]
					break
				}
			}
		}
		harness.Fig15(out, detailCircuit, oneProc)
	}
	if want(16) {
		harness.Fig16(out, detailCircuit, detailRuns)
	}
	if want(17) {
		harness.Fig17(out, detailCircuit, detailRuns)
		harness.Fig17Modeled(out, detailCircuit, detailRuns)
	}
	if want(18) {
		harness.Fig18(out, detailCircuit, detailRuns)
	}
	if want(19) {
		harness.Fig19(out, detailCircuit, detailRuns)
		harness.Fig19Modeled(out, detailCircuit, detailRuns)
	}
	harness.Summary(out, rs)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseFigs(s string) (map[int]bool, error) {
	figs := make(map[int]bool)
	if s == "all" {
		for n := 7; n <= 19; n++ {
			figs[n] = true
		}
		return figs, nil
	}
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil || n < 7 || n > 19 {
			return nil, fmt.Errorf("bad figure %q (valid: 7..19)", part)
		}
		figs[n] = true
	}
	return figs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfbdd-bench:", err)
	os.Exit(1)
}
