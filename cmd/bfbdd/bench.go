package main

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"bfbdd/internal/core"
	"bfbdd/internal/harness"
	"bfbdd/internal/order"
)

// benchRun regenerates the tables and figures of Yang & O'Hallaron,
// "Parallel Breadth-First BDD Construction" (PPoPP 1997), each in the
// layout of the paper's figure. By default it runs a scaled-down version
// of the paper's evaluation; -full runs the paper-scale circuits (c2670,
// c3540, mult-13, mult-14: a long run and several GB of memory). Rows of
// Figures 8, 13, 14, 17 and 19 with more workers than GOMAXPROCS come
// from the analytic model in internal/harness and are marked (model).
func benchRun(c *cli, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		full      = fs.Bool("full", false, "run the paper-scale circuits (slow)")
		circuits  = fs.String("circuits", "", "comma-separated circuit list")
		detail    = fs.String("detail", "", "circuit for figures 13-19 (default: last circuit)")
		procsFlag = fs.String("procs", "0,1,2,4,8", "processor counts (0 = sequential)")
		figsFlag  = fs.String("figs", "all", "figures to print, e.g. \"7,8,15\"")
		threshold = fs.Int("threshold", 0, "evaluation threshold (0 = default)")
		groupSize = fs.Int("groupsize", 0, "steal group size (0 = default)")
		gcPolicy  = fs.String("gc", "compact", "garbage collector: compact or freelist")
		orderFlag = fs.String("order", "dfs", "variable order: dfs, identity, interleave, reverse, shuffle")
		outFile   = fs.String("o", "", "write report to file")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usagef("bench takes no arguments")
	}

	circuitList := []string{"c2670-8", "c3540-8", "mult-10", "mult-11"}
	if *full {
		circuitList = []string{"c2670", "c3540", "mult-13", "mult-14"}
	}
	if *circuits != "" {
		circuitList = splitList(*circuits)
	}
	if len(circuitList) == 0 {
		return usagef("bench needs at least one circuit")
	}
	detailCircuit := circuitList[len(circuitList)-1]
	if *detail != "" {
		detailCircuit = *detail
	}
	if !slices.Contains(circuitList, detailCircuit) {
		return usagef("-detail circuit %q not in circuit list", detailCircuit)
	}
	procs, err := parseInts(*procsFlag)
	if err != nil {
		return usagef("bad -procs: %v", err)
	}
	figs, err := parseFigs(*figsFlag)
	if err != nil {
		return err
	}
	base := harness.Config{
		EvalThreshold: *threshold,
		GroupSize:     *groupSize,
	}
	if base.GC, err = core.ParseGCPolicy(*gcPolicy); err != nil {
		return usageError(err.Error())
	}
	if base.Order, err = order.ParseMethod(*orderFlag); err != nil {
		return usageError(err.Error())
	}

	rs := harness.ResultSet{}
	for _, name := range circuitList {
		fmt.Fprintf(c.stderr, "running %s across %v procs...\n", name, procs)
		start := time.Now()
		if rs[name], err = harness.Sweep(name, procs, base); err != nil {
			return err
		}
		fmt.Fprintf(c.stderr, "  done in %v\n", time.Since(start).Round(time.Millisecond))
	}

	report := func(out io.Writer) error {
		g := runtime.GOMAXPROCS(0)
		fmt.Fprintf(out, "bfbdd bench: reproducing Yang & O'Hallaron (PPoPP 1997)\n")
		fmt.Fprintf(out, "host: GOMAXPROCS=%d; circuits: %s; procs: %s; order: %s; gc: %s\n",
			g, strings.Join(circuitList, ","), *procsFlag, *orderFlag, *gcPolicy)
		if slices.Max(procs) > g {
			fmt.Fprintf(out, "rows marked (model) have more workers than GOMAXPROCS and come from the analytic model\n")
		}
		printFigures(out, figs, rs, detailCircuit, procs)
		return nil
	}
	if *outFile == "" {
		return report(c.stdout)
	}
	if err := writeOutput(*outFile, report); err != nil {
		return err
	}
	c.printf("wrote %s\n", *outFile)
	return nil
}

// printFigures prints the selected figures, then the run summary.
// Figures 13-19 describe the detail circuit.
func printFigures(out io.Writer, figs map[int]bool, rs harness.ResultSet, detail string, procs []int) {
	runs := rs[detail]
	type figure struct {
		n    int
		draw func()
	}
	for _, f := range []figure{
		{7, func() { harness.Fig7(out, rs) }},
		{8, func() { harness.Fig8(out, rs) }},
		{9, func() { harness.Fig9(out, rs); harness.Fig9DSM(out, rs) }},
		{10, func() { harness.Fig10(out, rs) }},
		{11, func() { harness.Fig11(out, rs) }},
		{12, func() { harness.Fig12(out, rs) }},
		{13, func() { harness.Fig13(out, detail, runs) }},
		{14, func() { harness.Fig14(out, detail, runs) }},
		{15, func() {
			// The paper's Figure 15 is a 1-processor run; without one,
			// take the first processor count of the sweep.
			oneProc := runs[1]
			if oneProc == nil {
				oneProc = runs[procs[0]]
			}
			harness.Fig15(out, detail, oneProc)
		}},
		{16, func() { harness.Fig16(out, detail, runs) }},
		{17, func() { harness.Fig17(out, detail, runs) }},
		{18, func() { harness.Fig18(out, detail, runs) }},
		{19, func() { harness.Fig19(out, detail, runs) }},
	} {
		if figs[f.n] {
			f.draw()
		}
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
		if n < 0 {
			return nil, fmt.Errorf("negative processor count %d", n)
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
			return nil, usagef("bad figure %q (valid: 7..19)", part)
		}
		figs[n] = true
	}
	return figs, nil
}
