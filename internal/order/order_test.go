package order

import (
	"testing"

	"bfbdd/internal/core"
	"bfbdd/internal/netlist"
)

func isPermutation(t *testing.T, levels []int) {
	t.Helper()
	seen := make([]bool, len(levels))
	for _, l := range levels {
		if l < 0 || l >= len(levels) || seen[l] {
			t.Fatalf("not a permutation: %v", levels)
		}
		seen[l] = true
	}
}

// TestParseMethod round-trips every method through String and
// ParseMethod, and rejects names no method has.
func TestParseMethod(t *testing.T) {
	for m := DFS; m <= Shuffle; m++ {
		if got, err := ParseMethod(m.String()); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, name := range []string{"", "nope", "DFS", "method(5)"} {
		if m, err := ParseMethod(name); err == nil {
			t.Errorf("ParseMethod(%q) = %v, want an error", name, m)
		}
	}
}

func TestAllMethodsArePermutations(t *testing.T) {
	circuits := []*netlist.Circuit{
		netlist.Multiplier(5),
		netlist.RippleAdder(6),
		netlist.C2670Like(),
		netlist.C3540Like(),
		netlist.Random(12, 80, 5),
	}
	for _, c := range circuits {
		for _, m := range []Method{DFS, Identity, Interleave, Reverse, Shuffle} {
			levels := Compute(c, m, 1)
			if len(levels) != c.NumInputs() {
				t.Fatalf("%s/%s: %d levels for %d inputs", c.Name, m, len(levels), c.NumInputs())
			}
			isPermutation(t, levels)
		}
	}
}

func TestIdentityAndReverse(t *testing.T) {
	c := netlist.Parity(5)
	id := Compute(c, Identity, 0)
	rev := Compute(c, Reverse, 0)
	for i := range id {
		if id[i] != i {
			t.Fatalf("identity[%d] = %d", i, id[i])
		}
		if rev[i] != len(rev)-1-i {
			t.Fatalf("reverse[%d] = %d", i, rev[i])
		}
	}
}

func TestShuffleSeeded(t *testing.T) {
	c := netlist.Multiplier(6)
	a := Compute(c, Shuffle, 42)
	b := Compute(c, Shuffle, 42)
	d := Compute(c, Shuffle, 43)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed differs")
		}
		if a[i] != d[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical shuffle")
	}
}

func TestInterleaveAdder(t *testing.T) {
	// For the ripple adder (inputs a0..aw-1, b0..bw-1, cin) interleaving
	// alternates a and b bits.
	c := netlist.RippleAdder(4)
	levels := Compute(c, Interleave, 0)
	isPermutation(t, levels)
	// a0 and b0 must be adjacent, a1 and b1 adjacent, etc.
	for i := 0; i < 4; i++ {
		la, lb := levels[i], levels[4+i]
		if lb-la != 1 {
			t.Fatalf("a%d at %d, b%d at %d: not interleaved", i, la, i, lb)
		}
	}
}

func TestDFSRespectsConeOrder(t *testing.T) {
	// Build a circuit where output 1's cone contains input c only:
	// DFS must order inputs of the first output's cone first.
	c := netlist.New("cones")
	a := c.AddInput("a")
	b := c.AddInput("b")
	d := c.AddInput("d")
	g1 := c.AddGate(netlist.GateAnd, "g1", a, b)
	g2 := c.AddGate(netlist.GateNot, "g2", d)
	c.MarkOutput(g1)
	c.MarkOutput(g2)
	levels := Compute(c, DFS, 0)
	// a visited first, then b, then d.
	if levels[0] != 0 || levels[1] != 1 || levels[2] != 2 {
		t.Fatalf("dfs levels = %v", levels)
	}
}

func TestDFSUnreachableInputs(t *testing.T) {
	c := netlist.New("dead")
	a := c.AddInput("a")
	_ = c.AddInput("deadwood")
	c.MarkOutput(c.AddGate(netlist.GateNot, "n", a))
	levels := Compute(c, DFS, 0)
	isPermutation(t, levels)
	if levels[0] != 0 {
		t.Fatalf("live input should get level 0, got %v", levels)
	}
	if levels[1] != 1 {
		t.Fatalf("dead input should get trailing level, got %v", levels)
	}
}

func TestOrderQualityOnAdder(t *testing.T) {
	// The whole point of ordering: interleaved/DFS orders give linear-size
	// adder BDDs, while the identity (a-word then b-word) order is
	// exponential. Verify the size gap on an 8-bit adder.
	c := netlist.RippleAdder(8)
	sizeWith := func(m Method) int {
		k := core.NewKernel(core.Options{Levels: c.NumInputs(), Engine: core.EnginePBF})
		res, err := netlist.Build(k, c, Compute(c, m, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Release()
		total := 0
		for _, r := range res.Refs() {
			total += k.Size(r)
		}
		return total
	}
	good := sizeWith(Interleave)
	dfsSize := sizeWith(DFS)
	bad := sizeWith(Identity)
	if bad <= 2*good {
		t.Fatalf("expected identity order to blow up: interleave=%d identity=%d", good, bad)
	}
	// DFS on a ripple adder discovers an interleaved-ish order and must
	// stay far below the bad order.
	if dfsSize >= bad {
		t.Fatalf("dfs order (%d) not better than identity (%d)", dfsSize, bad)
	}
}
