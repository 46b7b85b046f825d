package core

import (
	"math/rand"
	"slices"
	"testing"

	"bfbdd/internal/node"
)

// buildParityChain builds xor-chains and returns pins for a kept subset,
// leaving plenty of dead intermediate nodes behind.
func buildParityChain(k *Kernel, n int) []*Pin {
	var pins []*Pin
	f := node.Zero
	for v := 0; v < n; v++ {
		f = k.Apply(OpXor, f, k.VarRef(v))
		if v%4 == 3 {
			pins = append(pins, k.Pin(f))
		}
	}
	return pins
}

func gcEngines() []Options {
	return []Options{
		{Levels: 24, Engine: EnginePBF, EvalThreshold: 16, GroupSize: 4, GC: GCCompact},
		{Levels: 24, Engine: EnginePBF, EvalThreshold: 16, GroupSize: 4, GC: GCFreeList},
		{Levels: 24, Engine: EnginePar, Workers: 3, EvalThreshold: 16, GroupSize: 4, Stealing: true, GC: GCCompact},
		{Levels: 24, Engine: EnginePar, Workers: 3, EvalThreshold: 16, GroupSize: 4, Stealing: true, GC: GCFreeList},
		{Levels: 24, Engine: EngineDF, GC: GCCompact},
	}
}

func TestGCPreservesSemantics(t *testing.T) {
	for _, opts := range gcEngines() {
		opts := opts
		t.Run(optName(opts)+"-"+opts.GC.String(), func(t *testing.T) {
			k := NewKernel(opts)
			pins := buildParityChain(k, 24)

			// Record semantics before collection.
			rng := rand.New(rand.NewSource(5))
			type sample struct {
				assign []bool
				want   []bool
			}
			var samples []sample
			for s := 0; s < 32; s++ {
				a := make([]bool, 24)
				for i := range a {
					a[i] = rng.Intn(2) == 1
				}
				want := make([]bool, len(pins))
				for i, p := range pins {
					want[i] = k.Eval(p.Ref(), a)
				}
				samples = append(samples, sample{a, want})
			}

			before := k.NumNodes()
			k.GC()
			after := k.NumNodes()
			if after > before {
				t.Fatalf("GC grew the heap: %d -> %d", before, after)
			}
			if after == 0 {
				t.Fatal("GC collected pinned nodes")
			}

			roots := make([]node.Ref, len(pins))
			for i, p := range pins {
				roots[i] = p.Ref()
			}
			checkInvariants(t, k, roots)
			for _, s := range samples {
				for i, p := range pins {
					if got := k.Eval(p.Ref(), s.assign); got != s.want[i] {
						t.Fatalf("pin %d changed semantics after GC", i)
					}
				}
			}

			// The kernel must remain fully usable: new operations must
			// agree with pre-GC structures.
			x := k.Apply(OpXor, pins[0].Ref(), pins[0].Ref())
			if x != node.Zero {
				t.Fatalf("f XOR f = %v after GC", x)
			}
			recon := node.Zero
			for v := 0; v < 8; v++ {
				recon = k.Apply(OpXor, recon, k.VarRef(v))
			}
			if recon != pins[1].Ref() {
				t.Fatalf("rebuilt prefix %v != pinned %v (canonicity lost after GC)", recon, pins[1].Ref())
			}
		})
	}
}

func TestGCCollectsGarbage(t *testing.T) {
	for _, policy := range []GCPolicy{GCCompact, GCFreeList} {
		t.Run(policy.String(), func(t *testing.T) {
			k := NewKernel(Options{Levels: 16, Engine: EnginePBF, GC: policy})
			// Build a moderately large dead structure.
			f := node.One
			for v := 0; v < 16; v++ {
				g := k.Apply(OpOr, k.VarRef(v), k.VarRef((v+3)%16))
				f = k.Apply(OpAnd, f, g)
			}
			keep := k.Pin(k.VarRef(0))
			before := k.NumNodes()
			k.GC()
			after := k.NumNodes()
			if after >= before {
				t.Fatalf("nothing collected: %d -> %d", before, after)
			}
			if after != 1 {
				t.Fatalf("live nodes after GC = %d want 1 (just the pinned var)", after)
			}
			if !keep.Ref().Valid() || keep.Ref().IsTerminal() {
				t.Fatalf("pin damaged: %v", keep.Ref())
			}
			nd := k.Store().Node(keep.Ref())
			if nd.Low != node.Zero || nd.High != node.One {
				t.Fatalf("pinned var node corrupted: %+v", *nd)
			}
		})
	}
}

func TestGCUnpinnedCollected(t *testing.T) {
	k := NewKernel(Options{Levels: 8, Engine: EnginePBF})
	f := node.One
	for v := 0; v < 8; v++ {
		f = k.Apply(OpAnd, f, k.VarRef(v))
	}
	p := k.Pin(f)
	k.GC()
	if k.NumNodes() != 8 {
		t.Fatalf("pinned conjunction: %d nodes want 8", k.NumNodes())
	}
	k.Unpin(p)
	k.GC()
	if k.NumNodes() != 0 {
		t.Fatalf("after unpin: %d nodes want 0", k.NumNodes())
	}
}

func TestGCRepeatedStability(t *testing.T) {
	// Collections must be idempotent when nothing dies in between.
	k := NewKernel(Options{Levels: 12, Engine: EnginePar, Workers: 2, EvalThreshold: 32, Stealing: true})
	pins := buildParityChain(k, 12)
	k.GC()
	live := k.NumNodes()
	for i := 0; i < 3; i++ {
		k.GC()
		if k.NumNodes() != live {
			t.Fatalf("GC #%d changed live count: %d -> %d", i+2, live, k.NumNodes())
		}
	}
	roots := make([]node.Ref, len(pins))
	for i, p := range pins {
		roots[i] = p.Ref()
	}
	checkInvariants(t, k, roots)
}

func TestGCFreeListReusesSlots(t *testing.T) {
	k := NewKernel(Options{Levels: 8, Engine: EnginePBF, GC: GCFreeList})
	f := node.One
	for v := 0; v < 8; v++ {
		f = k.Apply(OpAnd, f, k.VarRef(v))
	}
	bytesBefore := k.Store().ResidentBytes()
	k.GC() // everything dead
	if k.NumNodes() != 0 {
		t.Fatalf("live = %d", k.NumNodes())
	}
	// Free-list policy keeps the blocks...
	if k.Store().ResidentBytes() != bytesBefore {
		t.Fatalf("free-list GC changed block storage: %d -> %d", bytesBefore, k.Store().ResidentBytes())
	}
	// ...and rebuilding reuses freed slots without growing storage.
	g := node.One
	for v := 0; v < 8; v++ {
		g = k.Apply(OpAnd, g, k.VarRef(v))
	}
	if k.Store().ResidentBytes() != bytesBefore {
		t.Fatalf("rebuild grew storage: %d -> %d", bytesBefore, k.Store().ResidentBytes())
	}
	if k.Size(g) != 8 {
		t.Fatalf("rebuilt size = %d", k.Size(g))
	}
}

func TestGCCompactReleasesStorage(t *testing.T) {
	k := NewKernel(Options{Levels: 16, Engine: EnginePBF, GC: GCCompact})
	f := node.One
	for v := 0; v < 16; v++ {
		g := k.Apply(OpXor, k.VarRef(v), k.VarRef((v+1)%16))
		f = k.Apply(OpAnd, f, g)
	}
	bytesBefore := k.Store().ResidentBytes()
	k.GC() // all dead
	if k.Store().ResidentBytes() >= bytesBefore {
		t.Fatalf("compacting GC kept storage: %d -> %d", bytesBefore, k.Store().ResidentBytes())
	}
}

func TestAutoGCTriggers(t *testing.T) {
	k := NewKernel(Options{
		Levels: 20, Engine: EnginePBF,
		GCMinNodes: 64, GCGrowth: 1.2,
	})
	// Repeatedly build and drop parity functions; auto-GC must keep the
	// heap bounded.
	for round := 0; round < 10; round++ {
		f := node.Zero
		for v := 0; v < 20; v++ {
			f = k.Apply(OpXor, f, k.VarRef(v))
		}
	}
	if k.Memory().GCCount == 0 {
		t.Fatal("automatic GC never triggered")
	}
	if n := k.NumNodes(); n > 10000 {
		t.Fatalf("heap unbounded despite auto-GC: %d nodes", n)
	}
}

func TestInhibitGC(t *testing.T) {
	k := NewKernel(Options{
		Levels: 8, Engine: EnginePBF,
		GCMinNodes: 1, GCGrowth: 1.01,
	})
	k.InhibitGC()
	for v := 0; v < 8; v++ {
		k.Apply(OpAnd, k.VarRef(v), k.VarRef((v+1)%8))
	}
	if k.Memory().GCCount != 0 {
		t.Fatal("GC ran while inhibited")
	}
	k.ReleaseGC()
	k.Apply(OpOr, k.VarRef(0), k.VarRef(1))
	if k.Memory().GCCount == 0 {
		t.Fatal("GC did not resume after release")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced ReleaseGC did not panic")
		}
	}()
	k.ReleaseGC()
}

func TestGCWithOracleAfterwards(t *testing.T) {
	// Full semantic check on a kernel that garbage-collected between
	// operations (compaction exercising remapped refs in later applies).
	opts := Options{
		Levels: 6, Engine: EnginePar, Workers: 2,
		EvalThreshold: 8, GroupSize: 4, Stealing: true,
		GCMinNodes: 16, GCGrowth: 1.1,
	}
	k := NewKernel(opts)
	o := newTruthOracle(k, 6, 11)
	// Pin every stored ref so the oracle's refs survive collections; the
	// oracle reads o.refs, so refresh them from the pins after each step.
	var pins []*Pin
	for _, r := range o.refs {
		pins = append(pins, k.Pin(r))
	}
	for i := 0; i < 120; i++ {
		o.step()
		pins = append(pins, k.Pin(o.refs[len(o.refs)-1]))
		for j, p := range pins {
			o.refs[j] = p.Ref()
		}
	}
	if k.Memory().GCCount == 0 {
		t.Fatal("test intended to exercise mid-sequence GC but none ran")
	}
	o.verify(t)
	checkInvariants(t, k, o.refs)
}

// TestGCHalvesCache: a collection leaves every cache entry stale, so it
// rebuilds each worker's cache at half its size or less, and the memory
// sample it takes counts the rebuilt size.
func TestGCHalvesCache(t *testing.T) {
	for _, opts := range gcEngines() {
		t.Run(opts.Engine.String()+"/"+opts.GC.String(), func(t *testing.T) {
			opts.GCMinNodes = 1 << 40 // collect only when the test says so
			k := NewKernel(opts)
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 40; i++ {
				f := node.Zero
				for j := 0; j < 12; j++ {
					a, b, c := k.VarRef(rng.Intn(24)), k.VarRef(rng.Intn(24)), k.VarRef(rng.Intn(24))
					f = k.Apply(OpOr, f, k.Apply(OpAnd, k.Apply(OpXor, a, b), c))
				}
				k.Pin(f)
			}
			cacheBytes := func() uint64 {
				var n uint64
				for _, w := range k.workers {
					n += w.cache.Bytes()
				}
				return n
			}
			before := cacheBytes()
			if before == 0 {
				t.Fatal("the build left the cache empty")
			}
			k.GC()
			after := cacheBytes()
			if after > before/2 {
				t.Fatalf("cache holds %d bytes after GC, was %d", after, before)
			}
			if got := k.Memory().CacheBytes; got != after {
				t.Fatalf("Memory().CacheBytes = %d after GC, caches hold %d", got, after)
			}
			t.Logf("cache %d -> %d bytes", before, after)
		})
	}
}

// TestGCDropsCacheBeforeIndexReuse asks a compacted kernel the same
// (op, f, g) it cached before the collection, where g's index now holds
// a different node: the dead x at level 7 lets y slide into x's slot,
// and a fresh x' then takes y's old index. A cache entry that survived
// the collection would answer and(var0, x') with its stale result
// and(var0, y). The warm-up grows level 0's cache segment well past
// 2^8 entries first, so the collection halves it rather than freeing it.
func TestGCDropsCacheBeforeIndexReuse(t *testing.T) {
	k := NewKernel(Options{Levels: 8, Engine: EngineDF, GC: GCCompact, GCMinNodes: 1 << 40})
	z := k.Pin(k.VarRef(0)) // level 0, index 0, never moves
	rng := rand.New(rand.NewSource(11))
	randFn := func() node.Ref { // a function of variables 1..5
		f := node.Zero
		for i := 0; i < 4; i++ {
			lit := k.VarRef(1 + rng.Intn(5))
			if rng.Intn(2) == 0 {
				lit = k.Not(lit)
			}
			f = k.Apply(Op(rng.Intn(3)), f, lit)
			k.Pin(f)
		}
		return f
	}
	var fns []node.Ref
	for len(fns) < 64 {
		if a, b := randFn(), randFn(); a != b {
			fns = append(fns, k.Pin(k.MkNode(0, a, b)).Ref())
		}
	}
	for i, f := range fns {
		for _, g := range fns[i+1:] {
			for op := OpAnd; op <= OpXor; op++ {
				k.Pin(k.Apply(op, f, g)) // every node stays live
			}
		}
	}

	x := k.MkNode(7, node.Zero, node.One)        // var7: dies
	y := k.Pin(k.MkNode(7, node.One, node.Zero)) // not var7: slides into x's slot
	stale := k.Pin(k.Apply(OpAnd, z.Ref(), y.Ref()))
	zOld, yOld, staleOld := z.Ref(), y.Ref(), stale.Ref()
	k.GC()
	if z.Ref() != zOld || stale.Ref() != staleOld || y.Ref() != x {
		t.Fatalf("compaction moved z %v→%v, and(z,y) %v→%v, y %v→%v; want only y moved, onto x %v",
			zOld, z.Ref(), staleOld, stale.Ref(), yOld, y.Ref(), x)
	}
	xNew := k.MkNode(7, node.Zero, node.One)
	if xNew != yOld {
		t.Fatalf("fresh var7 took index %v, want y's old %v", xNew, yOld)
	}

	got := k.CanonicalSignature([]node.Ref{k.Apply(OpAnd, z.Ref(), xNew)})
	fresh := NewKernel(Options{Levels: 8, Engine: EngineDF})
	want := fresh.CanonicalSignature([]node.Ref{fresh.Apply(OpAnd, fresh.VarRef(0), fresh.VarRef(7))})
	if !slices.Equal(got, want) {
		t.Fatalf("and(var0, var7) after GC has signature %v, a fresh kernel %v: the cache kept a pre-GC entry", got, want)
	}
}
