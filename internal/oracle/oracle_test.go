package oracle_test

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bfbdd/internal/core"
	"bfbdd/internal/oracle"
)

// evalRec recomputes one row of an op result directly from operand rows,
// as an independent check on the word-parallel Truth implementation.
func evalRec(op core.Op, a, b bool) bool {
	switch op {
	case core.OpAnd:
		return a && b
	case core.OpOr:
		return a || b
	case core.OpXor:
		return a != b
	case core.OpNand:
		return !(a && b)
	case core.OpNor:
		return !(a || b)
	case core.OpXnor:
		return a == b
	case core.OpDiff:
		return a && !b
	case core.OpImp:
		return !a || b
	}
	panic("unknown op")
}

// TestTruthOps checks the word-parallel table ops against row-by-row
// recomputation, on widths below and above one word.
func TestTruthOps(t *testing.T) {
	for _, vars := range []int{3, 6, 8} {
		rng := rand.New(rand.NewSource(int64(vars) * 7919))
		// Random tables via XOR of random projections and restrictions.
		a := oracle.TruthVar(vars, rng.Intn(vars))
		b := oracle.TruthConst(vars, true)
		for i := 0; i < 5; i++ {
			a = a.Bin(core.OpXor, oracle.TruthVar(vars, rng.Intn(vars)).Restrict(rng.Intn(vars), rng.Intn(2) == 1))
			b = b.Bin(core.Op(rng.Intn(8)), oracle.TruthVar(vars, rng.Intn(vars)))
		}
		for op := core.Op(0); op < 8; op++ {
			got := a.Bin(op, b)
			for r := 0; r < 1<<vars; r++ {
				if got.Bit(r) != evalRec(op, a.Bit(r), b.Bit(r)) {
					t.Fatalf("vars=%d op=%v row=%d: Bin disagrees with row recompute", vars, op, r)
				}
			}
		}
		n := a.Not()
		ex := a.Exists(0b11)
		fa := a.Forall(0b11)
		count := 0
		for r := 0; r < 1<<vars; r++ {
			if n.Bit(r) == a.Bit(r) {
				t.Fatalf("vars=%d row=%d: Not did not flip", vars, r)
			}
			r00 := r &^ 0b11
			anyRow := a.Bit(r00) || a.Bit(r00|1) || a.Bit(r00|2) || a.Bit(r00|3)
			allRow := a.Bit(r00) && a.Bit(r00|1) && a.Bit(r00|2) && a.Bit(r00|3)
			if ex.Bit(r) != anyRow || fa.Bit(r) != allRow {
				t.Fatalf("vars=%d row=%d: quantifier disagrees with cofactor scan", vars, r)
			}
			if a.Bit(r) {
				count++
			}
		}
		if a.Count().Int64() != int64(count) {
			t.Fatalf("vars=%d: Count=%v, brute force %d", vars, a.Count(), count)
		}
	}
}

// TestGenerateDeterministic checks that a Config expands to the same
// sequence and byte-identical trace every time.
func TestGenerateDeterministic(t *testing.T) {
	cfg := oracle.Config{Seed: 42, Vars: 8, Ops: 120}
	s1, s2 := oracle.Generate(cfg), oracle.Generate(cfg)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("Generate is not deterministic for a fixed Config")
	}
	t1, t2 := strings.Join(s1.Trace(), "\n"), strings.Join(s2.Trace(), "\n")
	if t1 != t2 {
		t.Fatal("Trace rendering is not deterministic")
	}
	if len(s1.Ops) != cfg.Ops {
		t.Fatalf("Generate produced %d ops, want %d", len(s1.Ops), cfg.Ops)
	}
}

// TestRunSmoke executes generated sequences across the full engine
// matrix and expects no divergence. Sizes are kept small so the test is
// -race friendly; `bfbdd oracle` (cmd/bfbdd) is the deep version.
func TestRunSmoke(t *testing.T) {
	engines := oracle.DefaultEngines()
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := oracle.Config{Seed: seed, Vars: 6, Ops: 30}
		rep := oracle.Run(oracle.Generate(cfg), engines)
		if rep.Div != nil {
			t.Fatalf("seed %d: %s\ntrace:\n%s", seed, rep.Div, rep.Seq)
		}
		if rep.Executed != cfg.Ops {
			t.Fatalf("seed %d: executed %d of %d ops without a divergence", seed, rep.Executed, cfg.Ops)
		}
	}
}

// TestCompileOp pins a sequence with an explicit compile op so the
// compiled-artifact cross-check (read path vs truth table vs live
// manager, byte-identical serialization across engines) runs even when
// generated sequences happen not to draw one.
func TestCompileOp(t *testing.T) {
	seq := oracle.Sequence{
		Vars: 6,
		Ops: []oracle.OpRec{
			{Kind: oracle.KApply, Op: oracle.OpAnd, A: 2, B: 3, Seed: 101},
			{Kind: oracle.KApply, Op: oracle.OpXor, A: 4, B: 5, Seed: 102},
			{Kind: oracle.KApply, Op: oracle.OpOr, A: 8, B: 9, Seed: 103},
			{Kind: oracle.KNot, A: 10, Seed: 104},
			{Kind: oracle.KCompile, Seed: 105},
			{Kind: oracle.KReorder, A: 10, Seed: 106},
			{Kind: oracle.KCompile, Seed: 107}, // again under a shuffled order
		},
	}
	rep := oracle.Run(seq, oracle.DefaultEngines())
	if rep.Div != nil {
		t.Fatalf("%s\ntrace:\n%s", rep.Div, rep.Seq)
	}
}

// TestSpillOp pins a sequence with explicit spill ops so the memory-tier
// round trip (spill → sig unchanged → unspill → sig unchanged, cross-
// engine) runs even when generated sequences happen not to draw one, and
// interleaves it with the ops most likely to trip tiering bugs: builds
// over a spilled store, GC, and reordering right after a round trip.
func TestSpillOp(t *testing.T) {
	seq := oracle.Sequence{
		Vars: 6,
		Ops: []oracle.OpRec{
			{Kind: oracle.KApply, Op: oracle.OpAnd, A: 2, B: 3, Seed: 201},
			{Kind: oracle.KApply, Op: oracle.OpXor, A: 4, B: 5, Seed: 202},
			{Kind: oracle.KApply, Op: oracle.OpOr, A: 8, B: 9, Seed: 203},
			{Kind: oracle.KSpill, A: 10, Seed: 204},
			{Kind: oracle.KApply, Op: oracle.OpImp, A: 10, B: 6, Seed: 205},
			{Kind: oracle.KSpill, A: 11, Seed: 206},
			{Kind: oracle.KGC, A: 10, Seed: 207},
			{Kind: oracle.KSpill, A: 8, Seed: 208},
			{Kind: oracle.KReorder, A: 10, Seed: 209},
			{Kind: oracle.KSpill, A: 11, Seed: 210},
			{Kind: oracle.KSnapshot, Seed: 211},
		},
	}
	rep := oracle.Run(seq, oracle.DefaultEngines())
	if rep.Div != nil {
		t.Fatalf("%s\ntrace:\n%s", rep.Div, rep.Seq)
	}
}

// TestRunVerdictDeterministic re-runs the same sequence and requires the
// identical verdict string, the property replay verification rests on.
func TestRunVerdictDeterministic(t *testing.T) {
	engines := oracle.DefaultEngines()
	seq := oracle.Generate(oracle.Config{Seed: 99, Vars: 5, Ops: 25})
	v1 := oracle.Run(seq, engines).Verdict()
	v2 := oracle.Run(seq, engines).Verdict()
	if v1 != v2 {
		t.Fatalf("verdicts differ across runs: %q vs %q", v1, v2)
	}
	if v1 != "pass" {
		t.Fatalf("expected a passing sequence, got %q", v1)
	}
}

// TestShrinkSynthetic drives the shrinker with a pure predicate — no
// engines involved — and expects it to isolate the single relevant op
// and collapse the variable count.
func TestShrinkSynthetic(t *testing.T) {
	seq := oracle.Generate(oracle.Config{Seed: 7, Vars: 9, Ops: 80})
	fails := func(s oracle.Sequence) bool {
		for _, r := range s.Ops {
			if r.Kind == oracle.KApply && r.Op == oracle.OpDiff {
				return true
			}
		}
		return false
	}
	if !fails(seq) {
		t.Skip("seed produced no Diff apply; adjust seed")
	}
	shrunk := oracle.Shrink(seq, fails, 2000)
	if len(shrunk.Ops) != 1 {
		t.Fatalf("shrunk to %d ops, want 1:\n%s", len(shrunk.Ops), shrunk)
	}
	if shrunk.Vars != 1 {
		t.Fatalf("shrunk to %d vars, want 1", shrunk.Vars)
	}
	if !fails(shrunk) {
		t.Fatal("shrunk sequence no longer satisfies the predicate")
	}
}

// TestShrinkIrreproducible checks that Shrink leaves a sequence alone
// when the predicate never fires.
func TestShrinkIrreproducible(t *testing.T) {
	seq := oracle.Generate(oracle.Config{Seed: 11, Vars: 4, Ops: 20})
	out := oracle.Shrink(seq, func(oracle.Sequence) bool { return false }, 100)
	if !reflect.DeepEqual(out, seq) {
		t.Fatal("Shrink modified an irreproducible sequence")
	}
}

// TestReplayRoundTrip writes a replay, reads it back, verifies it, and
// then checks that tampering with the trace or verdict is detected.
func TestReplayRoundTrip(t *testing.T) {
	engines := oracle.DefaultEngines()
	cfg := oracle.Config{Seed: 1234, Vars: 5, Ops: 20}
	rep := oracle.Run(oracle.Generate(cfg), engines)
	if rep.Div != nil {
		t.Fatalf("unexpected divergence: %s", rep.Div)
	}
	rp := oracle.NewReplay(cfg, rep)
	path := filepath.Join(t.TempDir(), "replay.json")
	if err := oracle.WriteReplay(path, rp); err != nil {
		t.Fatalf("WriteReplay: %v", err)
	}
	got, err := oracle.ReadReplay(path)
	if err != nil {
		t.Fatalf("ReadReplay: %v", err)
	}
	if !reflect.DeepEqual(got, rp) {
		t.Fatal("replay did not round-trip through JSON")
	}
	if err := got.Verify(engines); err != nil {
		t.Fatalf("Verify on a faithful replay: %v", err)
	}
	tampered := *got
	tampered.Trace = append([]string(nil), got.Trace...)
	tampered.Trace[3] = "3: not s0"
	if err := tampered.Verify(engines); err == nil {
		t.Fatal("Verify accepted a tampered trace")
	}
	tampered2 := *got
	tampered2.Verdict = "divergence at op 0 [df/eval]: fabricated"
	if err := tampered2.Verify(engines); err == nil {
		t.Fatal("Verify accepted a tampered verdict")
	}
}

// TestRegressionTestRendering spot-checks the generated Go source.
func TestRegressionTestRendering(t *testing.T) {
	seq := oracle.Sequence{Vars: 2, Ops: []oracle.OpRec{
		{Kind: oracle.KApply, Op: oracle.OpDiff, A: 3, B: 3, Seed: 5},
		{Kind: oracle.KSatCount, A: 4},
	}}
	src := oracle.RegressionTest(seq)
	for _, want := range []string{
		"func TestOracleRegression(t *testing.T)",
		"oracle.Sequence{",
		"Vars: 2",
		"{Kind: oracle.KApply, Op: oracle.OpDiff, A: 3, B: 3, Seed: 5}",
		"{Kind: oracle.KSatCount, A: 4}",
		"oracle.DefaultEngines()",
	} {
		if !strings.Contains(src, want) {
			t.Fatalf("generated test missing %q:\n%s", want, src)
		}
	}
}

// TestParseEngines exercises the CLI engine selector.
func TestParseEngines(t *testing.T) {
	all, err := oracle.ParseEngines("all")
	if err != nil || len(all) != len(oracle.DefaultEngines()) {
		t.Fatalf("ParseEngines(all) = %d engines, err %v", len(all), err)
	}
	two, err := oracle.ParseEngines("df, par4")
	if err != nil || len(two) != 2 || two[0].Name != "df" || two[1].Name != "par4" {
		t.Fatalf("ParseEngines(df, par4) = %+v, err %v", two, err)
	}
	if _, err := oracle.ParseEngines("df,nope"); err == nil {
		t.Fatal("ParseEngines accepted an unknown engine")
	}
}
