package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bfbdd/internal/node"
	"bfbdd/internal/stats"
)

// testEngines enumerates kernel configurations exercised by the
// cross-engine tests. Small thresholds and group sizes force heavy
// context pushing and stealing.
func testEngines() []Options {
	return []Options{
		{Engine: EngineDF},
		{Engine: EngineBF},
		{Engine: EngineHybrid, EvalThreshold: 8},
		{Engine: EnginePBF, EvalThreshold: 8, GroupSize: 4},
		{Engine: EnginePBF, EvalThreshold: 64, GroupSize: 16},
		{Engine: EnginePar, Workers: 2, EvalThreshold: 8, GroupSize: 4, Stealing: true},
		{Engine: EnginePar, Workers: 4, EvalThreshold: 16, GroupSize: 4, Stealing: true},
		{Engine: EnginePar, Workers: 4, EvalThreshold: 16, GroupSize: 4, Stealing: false},
	}
}

func optName(o Options) string {
	return fmt.Sprintf("%s-w%d-t%d", o.Engine, max(o.Workers, 1), o.EvalThreshold)
}

// truthOracle builds a random formula DAG over nvars ≤ 6 variables,
// tracking exact truth tables as uint64 bitmasks alongside the BDD refs.
type truthOracle struct {
	k     *Kernel
	nvars int
	rng   *rand.Rand
	refs  []node.Ref
	masks []uint64
	full  uint64 // mask of the 2^nvars valid rows
}

func newTruthOracle(k *Kernel, nvars int, seed int64) *truthOracle {
	if nvars > 6 {
		panic("truthOracle supports at most 6 variables")
	}
	o := &truthOracle{k: k, nvars: nvars, rng: rand.New(rand.NewSource(seed))}
	o.full = ^uint64(0) >> (64 - (1 << nvars))
	o.refs = append(o.refs, node.Zero, node.One)
	o.masks = append(o.masks, 0, o.full)
	for v := 0; v < nvars; v++ {
		o.refs = append(o.refs, k.VarRef(v))
		var m uint64
		for row := 0; row < 1<<nvars; row++ {
			if row>>(nvars-1-v)&1 == 1 {
				m |= 1 << row
			}
		}
		o.masks = append(o.masks, m)
	}
	return o
}

func maskOp(op Op, a, b, full uint64) uint64 {
	switch op {
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpNand:
		return full &^ (a & b)
	case OpNor:
		return full &^ (a | b)
	case OpXnor:
		return full &^ (a ^ b)
	case OpDiff:
		return a &^ b
	case OpImp:
		return (full &^ a) | b
	}
	panic("maskOp: " + op.String())
}

// step applies a random op to two random existing formulas.
func (o *truthOracle) step() {
	op := Op(o.rng.Intn(int(numBinaryOps)))
	i, j := o.rng.Intn(len(o.refs)), o.rng.Intn(len(o.refs))
	r := o.k.Apply(op, o.refs[i], o.refs[j])
	o.refs = append(o.refs, r)
	o.masks = append(o.masks, maskOp(op, o.masks[i], o.masks[j], o.full))
}

// verify checks semantics (Eval vs truth table) and canonicity (equal
// truth tables ⇔ equal refs) for every formula built so far.
func (o *truthOracle) verify(t *testing.T) {
	t.Helper()
	assign := make([]bool, o.k.Levels())
	for idx, r := range o.refs {
		for row := 0; row < 1<<o.nvars; row++ {
			for v := 0; v < o.nvars; v++ {
				assign[v] = row>>(o.nvars-1-v)&1 == 1
			}
			want := o.masks[idx]>>row&1 == 1
			if got := o.k.Eval(r, assign); got != want {
				t.Fatalf("formula %d row %d: Eval=%v want %v", idx, row, got, want)
			}
		}
	}
	for i := range o.refs {
		for j := i + 1; j < len(o.refs); j++ {
			sameRef := o.refs[i] == o.refs[j]
			sameFn := o.masks[i] == o.masks[j]
			if sameRef != sameFn {
				t.Fatalf("canonicity violation: formulas %d,%d sameRef=%v sameFn=%v",
					i, j, sameRef, sameFn)
			}
		}
	}
}

// checkInvariants walks the reachable graph from the given roots and
// verifies structural BDD invariants.
func checkInvariants(t *testing.T, k *Kernel, roots []node.Ref) {
	t.Helper()
	type key struct {
		lvl       int
		low, high node.Ref
	}
	seenKey := make(map[key]node.Ref)
	seen := make(map[node.Ref]bool)
	var stack []node.Ref
	for _, r := range roots {
		if !r.Valid() {
			t.Fatalf("invalid root ref %v", r)
		}
		if !r.IsTerminal() && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := k.Store().Node(r)
		if nd.Low == nd.High {
			t.Fatalf("unreduced node %v: low == high == %v", r, nd.Low)
		}
		kk := key{r.Level(), nd.Low, nd.High}
		if prev, ok := seenKey[kk]; ok && prev != r {
			t.Fatalf("duplicate nodes %v and %v for (%d,%v,%v)", prev, r, kk.lvl, kk.low, kk.high)
		}
		seenKey[kk] = r
		for _, c := range [2]node.Ref{nd.Low, nd.High} {
			if !c.Valid() {
				t.Fatalf("node %v has invalid child", r)
			}
			if !c.IsTerminal() {
				if c.Level() <= r.Level() {
					t.Fatalf("ordering violation: node %v child %v", r, c)
				}
				if !seen[c] {
					seen[c] = true
					stack = append(stack, c)
				}
			}
		}
	}
}

func TestEnginesAgainstTruthTables(t *testing.T) {
	for _, opts := range testEngines() {
		opts := opts
		t.Run(optName(opts), func(t *testing.T) {
			opts.Levels = 6
			k := NewKernel(opts)
			o := newTruthOracle(k, 6, 42)
			for i := 0; i < 150; i++ {
				o.step()
			}
			o.verify(t)
			checkInvariants(t, k, o.refs)
		})
	}
}

func TestEnginesCrossCanonical(t *testing.T) {
	// Within a single kernel, the configured engine and a direct
	// depth-first evaluation must return identical canonical refs.
	for _, opts := range testEngines() {
		opts := opts
		if opts.Engine == EngineDF {
			continue
		}
		t.Run(optName(opts), func(t *testing.T) {
			opts.Levels = 8
			k := NewKernel(opts)
			rng := rand.New(rand.NewSource(7))
			refs := []node.Ref{node.Zero, node.One}
			for v := 0; v < 8; v++ {
				refs = append(refs, k.VarRef(v))
			}
			for i := 0; i < 200; i++ {
				op := Op(rng.Intn(int(numBinaryOps)))
				f := refs[rng.Intn(len(refs))]
				g := refs[rng.Intn(len(refs))]
				got := k.Apply(op, f, g)
				want := k.workers[0].dfApply(op, f, g)
				k.endTopLevel()
				if got != want {
					t.Fatalf("step %d: engine %v != df %v for %v(%v,%v)", i, got, want, op, f, g)
				}
				refs = append(refs, got)
			}
			checkInvariants(t, k, refs)
		})
	}
}

func TestTerminalRulesExhaustive(t *testing.T) {
	// Every op on two constants must be a terminal case with the right
	// value, for all four constant combinations.
	consts := [2]node.Ref{node.Zero, node.One}
	for op := Op(0); op < numBinaryOps; op++ {
		for i, f := range consts {
			for j, g := range consts {
				r, ok := terminal(op, f, g)
				if !ok {
					t.Fatalf("%v(%d,%d) not terminal", op, i, j)
				}
				want := evalConst(op, i == 1, j == 1)
				if r.IsOne() != want {
					t.Fatalf("%v(%d,%d) = %v want %v", op, i, j, r, want)
				}
			}
		}
	}
}

func TestTerminalRulesSound(t *testing.T) {
	// Whenever terminal() claims a result for symbolic operands, the
	// result must agree with the brute-force evaluation. Use one real
	// variable node and the constants.
	k := NewKernel(Options{Levels: 2, Engine: EngineDF})
	x := k.VarRef(0)
	nx := k.Not(x)
	operands := []node.Ref{node.Zero, node.One, x, nx}
	assign := [][]bool{{false, false}, {true, false}}
	for op := Op(0); op < numBinaryOps; op++ {
		for _, f := range operands {
			for _, g := range operands {
				r, ok := terminal(op, f, g)
				if !ok {
					continue
				}
				for _, a := range assign {
					want := evalConst(op, k.Eval(f, a), k.Eval(g, a))
					if got := k.Eval(r, a); got != want {
						t.Fatalf("terminal %v(%v,%v) wrong under %v: got %v want %v",
							op, f, g, a, got, want)
					}
				}
			}
		}
	}
}

func TestNot(t *testing.T) {
	k := NewKernel(Options{Levels: 4, Engine: EnginePBF, EvalThreshold: 4})
	x0, x1 := k.VarRef(0), k.VarRef(1)
	f := k.Apply(OpAnd, x0, x1)
	nf := k.Not(f)
	if k.Not(nf) != f {
		t.Fatal("double negation is not the identity")
	}
	if k.Apply(OpAnd, f, nf) != node.Zero {
		t.Fatal("f AND NOT f != 0")
	}
	if k.Apply(OpOr, f, nf) != node.One {
		t.Fatal("f OR NOT f != 1")
	}
	if k.Not(node.Zero) != node.One || k.Not(node.One) != node.Zero {
		t.Fatal("constant negation wrong")
	}
}

func TestMkNodeReductionRule(t *testing.T) {
	k := NewKernel(Options{Levels: 2, Engine: EngineDF})
	x1 := k.VarRef(1)
	if got := k.MkNode(0, x1, x1); got != x1 {
		t.Fatalf("MkNode(l, f, f) = %v want %v", got, x1)
	}
	a := k.MkNode(0, node.Zero, x1)
	b := k.MkNode(0, node.Zero, x1)
	if a != b {
		t.Fatal("MkNode not canonical")
	}
}

func TestDeepChain(t *testing.T) {
	// A long conjunction chain exercises level-by-level queues.
	const n = 64
	for _, opts := range testEngines() {
		opts := opts
		t.Run(optName(opts), func(t *testing.T) {
			opts.Levels = n
			k := NewKernel(opts)
			f := node.One
			for v := 0; v < n; v++ {
				f = k.Apply(OpAnd, f, k.VarRef(v))
			}
			if k.Size(f) != n {
				t.Fatalf("conjunction size = %d want %d", k.Size(f), n)
			}
			all := make([]bool, n)
			for i := range all {
				all[i] = true
			}
			if !k.Eval(f, all) {
				t.Fatal("all-ones assignment should satisfy")
			}
			all[n-1] = false
			if k.Eval(f, all) {
				t.Fatal("assignment with a zero should not satisfy")
			}
			if got := k.SatCount(f); got.Int64() != 1 {
				t.Fatalf("SatCount = %v want 1", got)
			}
		})
	}
}

func TestStatsCounting(t *testing.T) {
	opts := Options{Levels: 10, Engine: EnginePBF, EvalThreshold: 16, GroupSize: 4}
	k := NewKernel(opts)
	var f node.Ref = node.One
	for v := 0; v < 10; v++ {
		g := k.Apply(OpXor, k.VarRef(v), k.VarRef((v+1)%10))
		f = k.Apply(OpAnd, f, g)
	}
	total := k.TotalStats()
	if total.Ops == 0 {
		t.Fatal("no Shannon steps counted")
	}
	if total.ContextPushes == 0 {
		t.Fatal("tiny threshold should force context pushes")
	}
	if total.ContextPushes != total.ContextPops {
		t.Fatalf("pushes %d != pops %d", total.ContextPushes, total.ContextPops)
	}
	k.ResetStats()
	if k.TotalStats().Ops != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
}

// TestStallCountsStolenWorkOnce drives one worker of a two-worker kernel
// by hand: it expands an XOR until a context is pushed and then reduces at
// once, so the context's groups are run by the stalled reducer, which
// steals them back. Their own cycles count their expansion and reduction,
// so the worker's phase times must fit in the wall time, and a stall that
// ran a group is no idle wait: with no thief to wait for, the idle wait
// is at most a few yields.
func TestStallCountsStolenWorkOnce(t *testing.T) {
	const L = 20
	k := NewKernel(Options{Levels: L, Engine: EnginePar, Workers: 2, EvalThreshold: 64, GroupSize: 4, Stealing: true})
	defer k.Close()
	ref := NewKernel(Options{Levels: L, Engine: EngineDF})
	defer ref.Close()
	operands := func(k *Kernel) (node.Ref, node.Ref) {
		rng := rand.New(rand.NewSource(3))
		return randomDNF(k, rng, L, 64, 8), randomDNF(k, rng, L, 64, 8)
	}
	f, g := operands(k)
	rf, rg := operands(ref)

	w := k.workers[0]
	before := w.st
	t0 := time.Now()
	root := w.preprocess(OpXor, f, g)
	ec, _ := w.expand(true)
	if ec == nil {
		t.Fatal("the expansion pushed no context")
	}
	w.reduceAll(0)
	wall := time.Since(t0)
	w.unregisterCtx(ec)
	got := k.CanonicalSignature([]node.Ref{w.opAt(opRef(root)).resultRef()})
	if want := ref.CanonicalSignature([]node.Ref{ref.Apply(OpXor, rf, rg)}); !slices.Equal(got, want) {
		t.Fatal("the result differs from depth-first")
	}
	k.endTopLevel()
	phases := time.Duration(w.st.PhaseNs[stats.PhaseExpansion] + w.st.PhaseNs[stats.PhaseReduction] -
		before.PhaseNs[stats.PhaseExpansion] - before.PhaseNs[stats.PhaseReduction])
	steals, idle := w.st.Steals-before.Steals, time.Duration(w.st.StallNs-before.StallNs)
	t.Logf("%d steals, phases %v, idle %v, wall %v", steals, phases, idle, wall)
	if steals == 0 {
		t.Fatal("the reducer stole no group")
	}
	if phases > wall {
		t.Errorf("expansion and reduction add up to %v in %v", phases, wall)
	}
	if idle > wall/2 {
		t.Errorf("idle wait %v is most of the %v: it counts the groups the stalls ran", idle, wall)
	}
}

// TestBFThresholdUnbounded: the pure breadth-first engine ignores the
// configured evaluation threshold, so a build that makes the partial
// breadth-first engine push contexts makes it push none.
func TestBFThresholdUnbounded(t *testing.T) {
	pushes := map[Engine]uint64{}
	for _, eng := range []Engine{EngineBF, EnginePBF} {
		k := NewKernel(Options{Levels: 24, Engine: eng, EvalThreshold: 64})
		rng := rand.New(rand.NewSource(3))
		k.Apply(OpXor, randomDNF(k, rng, 24, 32, 8), randomDNF(k, rng, 24, 32, 8))
		pushes[eng] = k.TotalStats().ContextPushes
		if eng == EngineBF && k.EffEvalThreshold() != 0 {
			t.Fatalf("bf EffEvalThreshold = %d, want 0 (unbounded)", k.EffEvalThreshold())
		}
		k.Close()
	}
	if pushes[EnginePBF] == 0 || pushes[EngineBF] != 0 {
		t.Fatalf("context pushes: pbf %d, bf %d; want some, none", pushes[EnginePBF], pushes[EngineBF])
	}
}

func TestParallelStressRace(t *testing.T) {
	// Heavy random workload with many workers, tiny thresholds and
	// stealing; meant to run under -race.
	opts := Options{
		Levels: 12, Engine: EnginePar, Workers: 4,
		EvalThreshold: 32, GroupSize: 8, Stealing: true,
	}
	k := NewKernel(opts)
	rng := rand.New(rand.NewSource(99))
	refs := []node.Ref{node.Zero, node.One}
	for v := 0; v < 12; v++ {
		refs = append(refs, k.VarRef(v))
	}
	for i := 0; i < 300; i++ {
		op := Op(rng.Intn(int(numBinaryOps)))
		f := refs[rng.Intn(len(refs))]
		g := refs[rng.Intn(len(refs))]
		refs = append(refs, k.Apply(op, f, g))
	}
	checkInvariants(t, k, refs)
	// At least some parallel machinery must have engaged.
	total := k.TotalStats()
	if total.Ops == 0 {
		t.Fatal("no work recorded")
	}
}
