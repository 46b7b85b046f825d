package core

import (
	"math/rand"
	"reflect"
	"testing"

	"bfbdd/internal/node"
	"bfbdd/internal/spill"
)

// buildDisjunction builds OR of several two-variable conjunctions, a
// shape with nodes at every level.
func buildDisjunction(k *Kernel, levels int) node.Ref {
	f := node.Zero
	for i := 0; i+1 < levels; i += 2 {
		a := k.VarRef(i)
		b := k.VarRef(i + 1)
		ab := k.Apply(OpAnd, a, b)
		f = k.Apply(OpOr, f, ab)
	}
	return f
}

func TestKernelSpillRoundTripSignature(t *testing.T) {
	const L = 10
	k := NewKernel(Options{Levels: L, Engine: EnginePBF, SpillDir: t.TempDir()})
	defer k.Close()
	if !k.SpillEnabled() {
		t.Fatal("spill tier not attached")
	}
	f := buildDisjunction(k, L)
	p := k.Pin(f)
	defer k.Unpin(p)

	sigBefore := k.CanonicalSignature([]node.Ref{p.Ref()})
	if err := k.SpillAll(); err != nil {
		t.Fatal(err)
	}
	rep := k.MemReport()
	if rep.SpilledBytes == 0 {
		t.Fatal("nothing spilled")
	}
	if rep.ResidentBytes != 0 {
		t.Fatalf("resident bytes after SpillAll = %d, want 0", rep.ResidentBytes)
	}
	var spilledLevels int
	for _, lm := range rep.Levels {
		if lm.Spilled {
			spilledLevels++
		}
	}
	if spilledLevels == 0 {
		t.Fatal("MemReport shows no spilled levels")
	}

	// Reads while spilled (mmap platforms read through the mapping;
	// others unspill transparently).
	sigSpilled := k.CanonicalSignature([]node.Ref{p.Ref()})
	if !reflect.DeepEqual(sigBefore, sigSpilled) {
		t.Fatal("signature changed while spilled")
	}

	// A build touching spilled levels unspills them on demand.
	g := k.Apply(OpAnd, p.Ref(), k.VarRef(0))
	pg := k.Pin(g)
	defer k.Unpin(pg)

	if err := k.Unspill(); err != nil {
		t.Fatal(err)
	}
	if got := k.SpillStats().SpilledBytes; got != 0 {
		t.Fatalf("spilled bytes after Unspill = %d, want 0", got)
	}
	sigAfter := k.CanonicalSignature([]node.Ref{p.Ref()})
	if !reflect.DeepEqual(sigBefore, sigAfter) {
		t.Fatal("signature changed across spill round trip")
	}
}

func TestKernelSpillThenGC(t *testing.T) {
	for _, policy := range []GCPolicy{GCCompact, GCFreeList} {
		k := NewKernel(Options{Levels: 12, Engine: EnginePBF, GC: policy, SpillDir: t.TempDir()})
		f := buildDisjunction(k, 12)
		p := k.Pin(f)
		sig := k.CanonicalSignature([]node.Ref{p.Ref()})
		if err := k.SpillAll(); err != nil {
			t.Fatal(err)
		}
		// GC must unspill everything first (compaction replaces arenas,
		// the free-list sweep writes freed slots' Low fields).
		k.GC()
		if got := k.SpillStats().SpilledBytes; got != 0 {
			t.Fatalf("%v: spilled bytes after GC = %d, want 0", policy, got)
		}
		if got := k.CanonicalSignature([]node.Ref{p.Ref()}); !reflect.DeepEqual(sig, got) {
			t.Fatalf("%v: signature changed across spill+GC", policy)
		}
		k.Unpin(p)
		k.Close()
	}
}

func TestBudgetSpillRung(t *testing.T) {
	k := NewKernel(Options{Levels: 20, Engine: EnginePBF, SpillDir: t.TempDir()})
	defer k.Close()
	f := buildDisjunction(k, 20)
	p := k.Pin(f)
	defer k.Unpin(p)
	k.GC() // settle live state
	a := k.account()
	if a.NodeBytes == 0 {
		t.Fatal("no node bytes to pressure")
	}
	// A byte budget half the node blocks below what neither a forced GC
	// nor the cache-shrink rung can free (the pinned nodes and the table
	// slots; that rung frees the cache and the operator blocks), so
	// without the spill rung the next Apply would refuse with
	// *BudgetError. With it, the coldest levels tier down instead and
	// the build proceeds.
	k.SetBudget(0, a.Total()-a.CacheBytes-a.OpBytes-a.NodeBytes/2)
	g := k.Apply(OpAnd, p.Ref(), k.VarRef(1))
	_ = g
	bs := k.BudgetStats()
	if bs.Spills == 0 {
		t.Fatalf("budget ladder did not reach the spill rung: %+v", bs)
	}
	if bs.Aborts != 0 {
		t.Fatalf("build aborted despite spill rung: %+v", bs)
	}
	if k.SpillStats().SpilledBytes == 0 {
		t.Fatal("spill rung recorded but nothing on disk")
	}
}

func TestSpillDisabledIsInert(t *testing.T) {
	k := NewKernel(Options{Levels: 8, Engine: EnginePBF})
	defer k.Close()
	f := buildDisjunction(k, 8)
	p := k.Pin(f)
	defer k.Unpin(p)
	if k.SpillEnabled() {
		t.Fatal("tier attached without SpillDir")
	}
	if err := k.SpillAll(); err != nil {
		t.Fatal(err)
	}
	rep := k.MemReport()
	if rep.SpilledBytes != 0 || rep.ResidentBytes == 0 {
		t.Fatalf("unexpected report without tier: %+v", rep)
	}
	if !reflect.DeepEqual(k.SpillStats(), spill.Stats{}) {
		t.Fatal("non-zero spill stats without tier")
	}
}

func TestSpillParallelEngine(t *testing.T) {
	const L = 14
	k := NewKernel(Options{Levels: L, Engine: EnginePar, Workers: 4, SpillDir: t.TempDir()})
	defer k.Close()
	f := buildDisjunction(k, L)
	p := k.Pin(f)
	defer k.Unpin(p)
	sig := k.CanonicalSignature([]node.Ref{p.Ref()})
	if err := k.SpillAll(); err != nil {
		t.Fatal(err)
	}
	// Parallel builds pin spilled levels from worker goroutines.
	g := k.Apply(OpXor, p.Ref(), k.VarRef(L-1))
	pg := k.Pin(g)
	defer k.Unpin(pg)
	if got := k.CanonicalSignature([]node.Ref{p.Ref()}); !reflect.DeepEqual(sig, got) {
		t.Fatal("operand signature changed after parallel build over spilled store")
	}
}

// BenchmarkSpillRoundTrip measures one full tier-down/tier-up cycle of a
// realistically-sized store: every level written to its spill file and
// released, then restored to the heap. The per-op figure is the latency
// a session pays to be parked and revived.
func BenchmarkSpillRoundTrip(b *testing.B) {
	const L = 20
	k := NewKernel(Options{
		Levels: L, Engine: EnginePBF,
		EvalThreshold: 256, GroupSize: 64,
		SpillDir: b.TempDir(),
	})
	defer k.Close()
	rng := rand.New(rand.NewSource(5))
	p := k.Pin(randomDNF(k, rng, L, 64, 9))
	defer k.Unpin(p)
	bytes := k.Store().ResidentBytes()
	b.SetBytes(int64(bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.SpillAll(); err != nil {
			b.Fatal(err)
		}
		if err := k.Unspill(); err != nil {
			b.Fatal(err)
		}
	}
}
