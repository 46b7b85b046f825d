package harness

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"bfbdd/internal/order"
)

func TestMakeCircuit(t *testing.T) {
	for _, name := range []string{"c2670", "c3540", "c2670-4", "c3540-4", "mult-4", "adder-5", "cla-4", "cmp-3", "parity-7", "alu-4"} {
		c, err := MakeCircuit(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, bad := range []string{"nope", "mult-", "mult-x", "mult-0", ""} {
		if _, err := MakeCircuit(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestRunSequentialAndParallelAgree(t *testing.T) {
	base := Config{EvalThreshold: 256, GroupSize: 32}
	seq, err := Run(Config{Circuit: "mult-5", Workers: 0, EvalThreshold: 256, GroupSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(Config{Circuit: "mult-5", Workers: 3, EvalThreshold: 256, GroupSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	_ = base
	// Canonical output sizes must match across configurations.
	if seq.OutputNodes != par.OutputNodes {
		t.Fatalf("output sizes differ: seq=%d par=%d", seq.OutputNodes, par.OutputNodes)
	}
	if seq.TotalOps == 0 || par.TotalOps == 0 {
		t.Fatal("no operations recorded")
	}
	if seq.PeakBytes == 0 || par.PeakBytes == 0 {
		t.Fatal("no memory recorded")
	}
	for _, r := range []*Result{seq, par} {
		if r.AtPeak.Total() != r.PeakBytes || r.AtPeak.NodeBytes == 0 {
			t.Fatalf("components at peak %+v do not add up to PeakBytes %d", r.AtPeak, r.PeakBytes)
		}
	}
	if len(seq.MaxNodesPerVar) != 10 {
		t.Fatalf("MaxNodesPerVar has %d entries want 10", len(seq.MaxNodesPerVar))
	}
}

func TestRunOrderMethods(t *testing.T) {
	sizes := map[order.Method]int{}
	for _, m := range []order.Method{order.DFS, order.Identity, order.Interleave} {
		r, err := Run(Config{Circuit: "adder-8", Order: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		sizes[m] = r.OutputNodes
	}
	if sizes[order.Identity] <= sizes[order.Interleave] {
		t.Fatalf("identity order (%d nodes) should be worse than interleave (%d)",
			sizes[order.Identity], sizes[order.Interleave])
	}
}

func TestSweepAndFigures(t *testing.T) {
	rs := ResultSet{}
	for _, circ := range []string{"mult-4", "adder-6"} {
		m, err := Sweep(circ, []int{0, 1, 2, 4}, Config{EvalThreshold: 128, GroupSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		rs[circ] = m
	}
	// Run records the Go processors it had, so go test -cpu 1,2 moves the
	// cut-off between measured and modeled rows.
	g := runtime.GOMAXPROCS(0)
	for _, r := range rs["mult-4"] {
		if r.GOMAXPROCS != g {
			t.Fatalf("%d procs: recorded GOMAXPROCS %d, running with %d", r.Workers, r.GOMAXPROCS, g)
		}
	}
	checkModelRows(t, rs, "mult-4", g)

	var sb strings.Builder
	Fig7(&sb, rs)
	Fig8(&sb, rs)
	Fig9(&sb, rs)
	Fig9DSM(&sb, rs)
	Fig10(&sb, rs)
	Fig11(&sb, rs)
	Fig12(&sb, rs)
	Fig13(&sb, "mult-4", rs["mult-4"])
	Fig14(&sb, "mult-4", rs["mult-4"])
	Fig15(&sb, "mult-4", rs["mult-4"][1])
	Fig16(&sb, "mult-4", rs["mult-4"])
	Fig17(&sb, "mult-4", rs["mult-4"])
	Fig18(&sb, "mult-4", rs["mult-4"])
	Fig19(&sb, "mult-4", rs["mult-4"])
	Summary(&sb, rs)
	out := sb.String()

	for _, frag := range []string{
		"Figure 7", "Figure 8", "Figure 9", "Figure 10", "Figure 11",
		"Figure 12", "Figure 13", "Figure 14", "Figure 15", "Figure 16",
		"Figure 17", "Figure 18", "Figure 19",
		"Seq", "mult-4", "adder-6", "Expansion", "Reduction",
		"Mark", "Fix", "Rehash", "max nodes", "DSM pooling",
		"Figure 9 (split)", "op nodes",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("figure output missing %q\n%s", frag, out)
		}
	}
}

func TestProcLabel(t *testing.T) {
	if ProcLabel(0) != "Seq" || ProcLabel(4) != "4" {
		t.Fatal("ProcLabel wrong")
	}
}

// modeledFigures are the figures whose rows above the recorded
// GOMAXPROCS come from the Model.
var modeledFigures = []struct {
	fig  int
	seq  bool // whether the figure has a Seq row
	draw func(w io.Writer, rs ResultSet, circuit string)
}{
	{8, true, func(w io.Writer, rs ResultSet, _ string) { Fig8(w, rs) }},
	{13, false, func(w io.Writer, rs ResultSet, c string) { Fig13(w, c, rs[c]) }},
	{14, false, func(w io.Writer, rs ResultSet, c string) { Fig14(w, c, rs[c]) }},
	{17, false, func(w io.Writer, rs ResultSet, c string) { Fig17(w, c, rs[c]) }},
	{19, false, func(w io.Writer, rs ResultSet, c string) { Fig19(w, c, rs[c]) }},
}

// checkModelRows draws each modeled figure of circuit and checks that it
// prints one table whose rows end in (model) exactly where the processor
// count is above gomaxprocs. It returns the figures' output.
func checkModelRows(t *testing.T, rs ResultSet, circuit string, gomaxprocs int) string {
	t.Helper()
	var all strings.Builder
	for _, f := range modeledFigures {
		var sb strings.Builder
		f.draw(&sb, rs, circuit)
		out := sb.String()
		all.WriteString(out)
		if n := strings.Count(out, "Figure "); n != 1 {
			t.Errorf("Figure %d prints %d tables, want 1:\n%s", f.fig, n, out)
		}
		rows := map[string]bool{}
		for _, line := range strings.Split(out, "\n") {
			fields := strings.Fields(line)
			if len(fields) < 2 {
				continue
			}
			if _, err := strconv.Atoi(fields[0]); err == nil || fields[0] == "Seq" {
				rows[fields[0]] = strings.HasSuffix(line, modelMark)
			}
		}
		for p := range rs[circuit] {
			if p == 0 && !f.seq {
				continue
			}
			marked, ok := rows[ProcLabel(p)]
			if !ok {
				t.Errorf("Figure %d has no row for %s procs:\n%s", f.fig, ProcLabel(p), out)
			} else if want := p > gomaxprocs; marked != want {
				t.Errorf("Figure %d, GOMAXPROCS %d: %s-proc row marked (model) = %v, want %v:\n%s",
					f.fig, gomaxprocs, ProcLabel(p), marked, want, out)
			}
		}
	}
	return all.String()
}

// syntheticSweep fabricates Seq, 1, 2 and 4-processor results of one
// circuit, each recording the given GOMAXPROCS.
func syntheticSweep(gomaxprocs int) ResultSet {
	byProc := map[int]*Result{}
	for _, p := range []int{0, 1, 2, 4} {
		r := syntheticResult(p, 1_000_000+uint64(p)*50_000, 800_000, []uint64{100_000, 200_000, 100_000})
		r.Circuit, r.GOMAXPROCS = "synth", gomaxprocs
		r.Elapsed = time.Duration(2+p) * time.Second
		for ph := range r.Worker0.PhaseNs {
			r.Worker0.PhaseNs[ph] = int64(p+1) * 1e8
		}
		r.AllWorkers.PhaseNs = r.Worker0.PhaseNs
		r.LockWaitPerVar = []time.Duration{0, time.Duration(p) * 1e7, 0}
		byProc[p] = r
	}
	return ResultSet{"synth": byProc}
}

// TestModelRowsAtCutoff checks, on synthetic results, that Figures 8,
// 13, 14, 17 and 19 measure the rows up to the recorded GOMAXPROCS and
// model the rest, both when the host had one processor and when it had
// two; without a Seq run the modeled rows print "-".
func TestModelRowsAtCutoff(t *testing.T) {
	for _, g := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", g), func(t *testing.T) {
			rs := syntheticSweep(g)
			out := checkModelRows(t, rs, "synth", g)
			for _, line := range strings.Split(out, "\n") {
				if strings.HasSuffix(line, modelMark) && strings.Count(line, " -") > 2 {
					t.Errorf("modeled row without numbers: %q", line)
				}
			}
			delete(rs["synth"], 0)
			var sb strings.Builder
			Fig13(&sb, "synth", rs["synth"])
			for _, line := range strings.Split(sb.String(), "\n") {
				if strings.HasSuffix(line, modelMark) && !strings.Contains(line, " -") {
					t.Errorf("modeled row with no Seq run to calibrate on: %q", line)
				}
			}
		})
	}
}
