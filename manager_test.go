package bfbdd_test

import (
	"math/big"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"bfbdd"
)

func allEngines() map[string][]bfbdd.Option {
	return map[string][]bfbdd.Option{
		"df":     {bfbdd.WithEngine(bfbdd.EngineDF)},
		"bf":     {bfbdd.WithEngine(bfbdd.EngineBF)},
		"hybrid": {bfbdd.WithEngine(bfbdd.EngineHybrid), bfbdd.WithEvalThreshold(16)},
		"pbf":    {bfbdd.WithEngine(bfbdd.EnginePBF), bfbdd.WithEvalThreshold(16), bfbdd.WithGroupSize(4)},
		"par": {bfbdd.WithEngine(bfbdd.EnginePar), bfbdd.WithWorkers(3),
			bfbdd.WithEvalThreshold(16), bfbdd.WithGroupSize(4)},
	}
}

func TestBasicAlgebra(t *testing.T) {
	for name, opts := range allEngines() {
		t.Run(name, func(t *testing.T) {
			m := bfbdd.New(4, opts...)
			a, b := m.Var(0), m.Var(1)

			if !a.And(b).Equal(b.And(a)) {
				t.Error("AND not commutative")
			}
			if !a.Or(a.Not()).IsOne() {
				t.Error("a ∨ ¬a != 1")
			}
			if !a.And(a.Not()).IsZero() {
				t.Error("a ∧ ¬a != 0")
			}
			if !a.Xor(b).Equal(a.And(b.Not()).Or(b.And(a.Not()))) {
				t.Error("XOR expansion failed")
			}
			if !a.Nand(b).Equal(a.And(b).Not()) {
				t.Error("NAND != NOT AND")
			}
			if !a.Nor(b).Equal(a.Or(b).Not()) {
				t.Error("NOR != NOT OR")
			}
			if !a.Xnor(b).Equal(a.Xor(b).Not()) {
				t.Error("XNOR != NOT XOR")
			}
			if !a.Implies(b).Equal(a.Not().Or(b)) {
				t.Error("IMPLIES expansion failed")
			}
			if !a.Diff(b).Equal(a.And(b.Not())) {
				t.Error("DIFF expansion failed")
			}
			// De Morgan.
			if !a.And(b).Not().Equal(a.Not().Or(b.Not())) {
				t.Error("De Morgan failed")
			}
		})
	}
}

func TestITE(t *testing.T) {
	m := bfbdd.New(3)
	f, g, h := m.Var(0), m.Var(1), m.Var(2)
	ite := f.ITE(g, h)
	want := f.And(g).Or(f.Not().And(h))
	if !ite.Equal(want) {
		t.Fatal("ITE != (f∧g) ∨ (¬f∧h)")
	}
	if !m.One().ITE(g, h).Equal(g) || !m.Zero().ITE(g, h).Equal(h) {
		t.Fatal("ITE constant guards wrong")
	}
}

func TestConstants(t *testing.T) {
	m := bfbdd.New(2)
	if !m.Zero().IsZero() || !m.One().IsOne() {
		t.Fatal("constants misreported")
	}
	if !m.Zero().Not().Equal(m.One()) {
		t.Fatal("¬0 != 1")
	}
	if m.NumVars() != 2 {
		t.Fatalf("NumVars = %d", m.NumVars())
	}
	if !m.NVar(0).Equal(m.Var(0).Not()) {
		t.Fatal("NVar != Not(Var)")
	}
}

func TestSatCountAndAnySat(t *testing.T) {
	m := bfbdd.New(10)
	f := m.Var(0).And(m.Var(9))
	if f.SatCount().Cmp(big.NewInt(1<<8)) != 0 {
		t.Fatalf("SatCount = %v want 256", f.SatCount())
	}
	a, ok := f.AnySat()
	if !ok || !a[0] || !a[9] {
		t.Fatalf("AnySat = %v, %v", a, ok)
	}
	if _, ok := m.Zero().AnySat(); ok {
		t.Fatal("AnySat on 0 succeeded")
	}
	assign := make([]bool, 10)
	assign[0], assign[9] = true, true
	if !f.Eval(assign) {
		t.Fatal("Eval failed on satisfying assignment")
	}
}

func TestQuantifiersPublic(t *testing.T) {
	m := bfbdd.New(4)
	f := m.Var(0).And(m.Var(1)).Or(m.Var(2))
	ex := f.Exists(0)
	want := f.Restrict(0, false).Or(f.Restrict(0, true))
	if !ex.Equal(want) {
		t.Fatal("Exists != Shannon or")
	}
	fa := f.Forall(0)
	want = f.Restrict(0, false).And(f.Restrict(0, true))
	if !fa.Equal(want) {
		t.Fatal("Forall != Shannon and")
	}
	multi := f.Exists(0, 1, 2)
	if !multi.IsOne() {
		t.Fatal("∃all of a satisfiable f should be 1")
	}
}

func TestComposePublic(t *testing.T) {
	m := bfbdd.New(4)
	f := m.Var(0).Xor(m.Var(1))
	g := m.Var(2).And(m.Var(3))
	h := f.Compose(1, g)
	want := m.Var(0).Xor(g)
	if !h.Equal(want) {
		t.Fatal("Compose failed")
	}
}

func TestSupportAndSize(t *testing.T) {
	m := bfbdd.New(6)
	f := m.Var(1).And(m.Var(4))
	sup := f.Support()
	if len(sup) != 2 || sup[0] != 1 || sup[1] != 4 {
		t.Fatalf("Support = %v", sup)
	}
	if f.Size() != 2 {
		t.Fatalf("Size = %d", f.Size())
	}
}

func TestFreeAndGC(t *testing.T) {
	m := bfbdd.New(16, bfbdd.WithEngine(bfbdd.EnginePBF))
	f := m.Var(0)
	for i := 1; i < 16; i++ {
		f = f.And(m.Var(i)) // leaks intermediate handles deliberately below
	}
	if m.NumNodes() == 0 {
		t.Fatal("no nodes allocated")
	}
	// Free everything except the final conjunction — intermediate
	// handles were dropped but are still pinned via their BDD values...
	// in Go they are unreachable yet still registered; a production user
	// calls Free. Here: force GC with only f alive is impossible without
	// freeing, so just verify Free + GC reclaims.
	keep := f
	m.GC()
	sizeBefore := m.NumNodes()
	if sizeBefore == 0 {
		t.Fatal("GC collected pinned nodes")
	}
	keep.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("use after Free did not panic")
		}
	}()
	keep.IsZero()
}

func TestStatsSnapshot(t *testing.T) {
	m := bfbdd.New(12, bfbdd.WithEngine(bfbdd.EnginePar), bfbdd.WithWorkers(2),
		bfbdd.WithEvalThreshold(16), bfbdd.WithGroupSize(4))
	f := m.Var(0)
	for i := 1; i < 12; i++ {
		f = f.Xor(m.Var(i))
	}
	st := m.Stats()
	if st.Ops == 0 {
		t.Fatal("no ops recorded")
	}
	if st.NumNodes == 0 {
		t.Fatal("no nodes recorded")
	}
	if st.PeakBytes == 0 {
		t.Fatal("no memory recorded")
	}
	m.ResetStats()
	if m.Stats().Ops != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestCrossManagerPanics(t *testing.T) {
	m1, m2 := bfbdd.New(2), bfbdd.New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-manager operation did not panic")
		}
	}()
	m1.Var(0).And(m2.Var(0))
}

func TestWriteDOT(t *testing.T) {
	m := bfbdd.New(3)
	f := m.Var(0).And(m.Var(1)).Or(m.Var(2))
	var sb strings.Builder
	if err := bfbdd.WriteDOT(&sb, []string{"f"}, f); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	for _, frag := range []string{"digraph bdd", `label="x0"`, "style=dashed", `label="f"`, "t1 [label="} {
		if !strings.Contains(dot, frag) {
			t.Fatalf("DOT output missing %q:\n%s", frag, dot)
		}
	}
	if err := bfbdd.WriteDOT(&sb, nil); err == nil {
		t.Fatal("WriteDOT with no BDDs should error")
	}
}

func TestEnginesAgreePublic(t *testing.T) {
	// All engines must agree on a randomized workload (compared via a
	// reference DF manager through semantics sampling).
	build := func(m *bfbdd.Manager, seed int64) *bfbdd.BDD {
		rng := rand.New(rand.NewSource(seed))
		refs := []*bfbdd.BDD{m.Zero(), m.One()}
		for i := 0; i < 8; i++ {
			refs = append(refs, m.Var(i))
		}
		for i := 0; i < 60; i++ {
			a := refs[rng.Intn(len(refs))]
			b := refs[rng.Intn(len(refs))]
			var r *bfbdd.BDD
			switch rng.Intn(4) {
			case 0:
				r = a.And(b)
			case 1:
				r = a.Or(b)
			case 2:
				r = a.Xor(b)
			default:
				r = a.Nand(b)
			}
			refs = append(refs, r)
		}
		return refs[len(refs)-1]
	}
	ref := build(bfbdd.New(8, bfbdd.WithEngine(bfbdd.EngineDF)), 5)
	for name, opts := range allEngines() {
		m := bfbdd.New(8, opts...)
		f := build(m, 5)
		for trial := 0; trial < 256; trial++ {
			assign := make([]bool, 8)
			for i := range assign {
				assign[i] = trial>>i&1 == 1
			}
			if f.Eval(assign) != ref.Eval(assign) {
				t.Fatalf("engine %s disagrees with df at assignment %08b", name, trial)
			}
		}
		if f.Size() != ref.Size() {
			t.Fatalf("engine %s: size %d != df size %d (canonicity)", name, f.Size(), ref.Size())
		}
	}
}

// TestSizeCostIndependentOfVars: Size walks only the arenas the BDD
// touches, so a 3-node BDD costs the same allocations under 16 and under
// 16,384 declared variables. The byte count reads the whole heap, so it
// gets 4 KB of slack; a levels × workers page directory costs about
// 390 KB.
func TestSizeCostIndependentOfVars(t *testing.T) {
	cost := func(vars int) (allocs, bytes float64) {
		m := bfbdd.New(vars)
		defer m.Close()
		f := m.Var(0).And(m.Var(1)).And(m.Var(2))
		if n := f.Size(); n != 3 {
			t.Fatalf("%d vars: Size = %d, want 3", vars, n)
		}
		allocs = testing.AllocsPerRun(20, func() { f.Size() })
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f.Size()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := cost(16)
	bigAllocs, bigBytes := cost(16384)
	if bigAllocs != smallAllocs || bigBytes > smallBytes+4096 {
		t.Fatalf("Size of a 3-node BDD: %.0f allocations, %.0f bytes under 16,384 variables; %.0f, %.0f under 16",
			bigAllocs, bigBytes, smallAllocs, smallBytes)
	}
}

// TestApplyCostIndependentOfVars: the breadth-first engine walks only the
// levels that hold work, so f.Or(g) of a 24-variable XOR and AND, with a
// threshold low enough that every call pushes evaluation contexts, costs
// the same allocations under 24 and under 16,384 declared variables. The
// byte count reads the whole heap, so it gets 4 KB of slack; a queue set
// of one slice per declared level costs about 390 KB a push.
func TestApplyCostIndependentOfVars(t *testing.T) {
	cost := func(vars int) (allocs, bytes float64) {
		m := bfbdd.New(vars, bfbdd.WithEngine(bfbdd.EnginePBF), bfbdd.WithEvalThreshold(8))
		defer m.Close()
		f, g := m.Var(0), m.Var(0)
		for i := 1; i < 24; i++ {
			f, g = f.Xor(m.Var(i)), g.And(m.Var(i))
		}
		apply := func() { f.Or(g).Free() }
		apply()
		pushes := m.Stats().ContextPushes
		allocs = testing.AllocsPerRun(20, apply)
		if m.Stats().ContextPushes < pushes+20 {
			t.Fatalf("%d vars: %d context pushes in 21 calls, want at least one a call",
				vars, m.Stats().ContextPushes-pushes)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			apply()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := cost(24)
	bigAllocs, bigBytes := cost(16384)
	if bigAllocs != smallAllocs || bigBytes > smallBytes+4096 {
		t.Fatalf("f.Or(g) over 24 levels: %.0f allocations, %.0f bytes under 16,384 variables; %.0f, %.0f under 24",
			bigAllocs, bigBytes, smallAllocs, smallBytes)
	}
}
