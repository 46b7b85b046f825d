package harness

import (
	"strings"
	"testing"

	"bfbdd/internal/core"
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

func TestRunEngineOverride(t *testing.T) {
	for _, e := range []core.Engine{core.EngineDF, core.EngineBF, core.EngineHybrid} {
		r, err := Run(Config{Circuit: "adder-4", Engine: e, UseEngine: true, EvalThreshold: 64})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if r.OutputNodes == 0 {
			t.Fatalf("%v: empty output", e)
		}
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
		m, err := Sweep(circ, []int{0, 1, 2}, Config{EvalThreshold: 128, GroupSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		rs[circ] = m
	}

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
