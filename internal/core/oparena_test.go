package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bfbdd/internal/node"
)

// peakFixture returns a pbf kernel holding two dense operands, the XOR of
// the two as a large operation and the AND of two variables as a small
// one. Every call builds the same kernel.
func peakFixture() (k *Kernel, large, small BinOp) {
	k = NewKernel(Options{Levels: 20, Engine: EnginePBF})
	rng := rand.New(rand.NewSource(11))
	f := randomDNF(k, rng, 20, 128, 9)
	g := randomDNF(k, rng, 20, 128, 9)
	return k, BinOp{Op: OpXor, F: f, G: g}, BinOp{Op: OpAnd, F: k.VarRef(0), G: k.VarRef(1)}
}

// TestPeakCountsOpArenasGivenBack checks that the operator blocks a
// sequential batch's first operation gives back still count at the
// batch's one peak sample, taken after its last operation.
func TestPeakCountsOpArenasGivenBack(t *testing.T) {
	ref, large, _ := peakFixture()
	before := ref.Memory().PeakBytes
	ref.ApplyBatch([]BinOp{large})
	want := ref.Memory().PeakBytes
	if want <= before {
		t.Fatalf("the large operation did not raise the peak: %d -> %d", before, want)
	}
	if held, floor := ref.Memory().AtPeak.OpBytes, uint64(ref.Levels())*opBlockSize*opNodeBytes; held <= floor {
		t.Fatalf("the large operation held %d operator bytes, want more than one block per level, %d", held, floor)
	}

	k, large, small := peakFixture()
	k.ApplyBatch([]BinOp{large, small})
	if got := k.Memory().PeakBytes; got < want {
		t.Fatalf("PeakBytes after [large, small] = %d, want at least the large operation's %d", got, want)
	}
}

// TestPeakCountsCanceledBuilds checks the same for canceled builds, which
// sample nothing: the small operation after them takes the next sample.
// Each case cancels its last batch at the final interrupt probe, when the
// batch has built everything, and must report at least the peak of the
// same sequence run to completion.
func TestPeakCountsCanceledBuilds(t *testing.T) {
	cases := map[string]func(large, small BinOp) (before, canceled []BinOp){
		"large":        func(large, _ BinOp) ([]BinOp, []BinOp) { return nil, []BinOp{large} },
		"large, small": func(large, small BinOp) ([]BinOp, []BinOp) { return nil, []BinOp{large, small} },
	}
	for name, ops := range cases {
		t.Run(name, func(t *testing.T) {
			run := func(ctx context.Context) (*Kernel, error) {
				k, large, small := peakFixture()
				before, canceled := ops(large, small)
				k.ApplyBatch(before)
				_, err := k.ApplyBatchCtx(ctx, canceled)
				k.Apply(small.Op, small.F, small.G)
				return k, err
			}
			probe := newCountdownCtx(math.MaxInt64)
			ref, err := run(probe)
			if err != nil {
				t.Fatal(err)
			}
			calls := math.MaxInt64 - probe.remaining.Load()
			k, err := run(newCountdownCtx(calls - 1))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("ApplyBatchCtx: err = %v, want context.DeadlineExceeded", err)
			}
			if got, want := k.Memory().PeakBytes, ref.Memory().PeakBytes; got < want {
				t.Fatalf("PeakBytes = %d, want at least the completed sequence's %d", got, want)
			}
		})
	}
}

// TestOpArenaFloorAllocs guards the block pool's floor: a run of small
// operations draws every operator block from the pool. A two-level
// operation and an eight-level one, each repeated, allocate the same per
// operation. Without the floor the eight-level one would allocate a block
// for every level it touches, every time. The bound is relative, so it
// holds under -race too.
func TestOpArenaFloorAllocs(t *testing.T) {
	for _, opts := range []Options{{Engine: EnginePBF}, {Engine: EnginePar, Workers: 2}} {
		opts.Levels = 16
		k := NewKernel(opts)
		chain := k.VarRef(9)
		for v := 10; v < 16; v++ {
			chain = k.Apply(OpXor, chain, k.VarRef(v))
		}
		narrow := func() { k.Apply(OpXor, k.VarRef(0), k.VarRef(1)) }
		wide := func() { k.Apply(OpXor, k.VarRef(8), chain) }
		two := testing.AllocsPerRun(100, narrow)
		eight := testing.AllocsPerRun(100, wide)
		if eight > two {
			t.Errorf("%s: the eight-level operation allocates %.1f per operation, the two-level one %.1f", optName(opts), eight, two)
		}
		k.Close()
	}
}

// TestScopeReleaseStaleCacheHandle: a scope gives back an operator node
// whose handle the compute cache still holds, and another operation
// reuses the node's slot. Looking up the old key must miss, not claim
// or compute into the other operation's node.
func TestScopeReleaseStaleCacheHandle(t *testing.T) {
	k := NewKernel(Options{Levels: 4, Engine: EnginePBF})
	defer k.Close()
	w := k.workers[0]
	x1, x2, x3 := k.VarRef(1), k.VarRef(2), k.VarRef(3)

	s := w.enterScope()
	old := w.preprocess(OpAnd, x1, x2)
	w.pending[1], w.pendingTotal = w.pending[1][:0], 0
	w.opAt(opRef(old)).setResult(k.MkNode(1, node.Zero, x2))
	w.leaveScope(s)
	reused := w.allocOp(1, OpOr, x1, x3)
	if uint64(reused) != uint64(old) {
		t.Fatalf("the next node at the level got handle %#x, want the released %#x", reused, old)
	}
	if v, ok := w.cache.Lookup(1, uint8(OpAnd), x1, x2); !ok || v != old {
		t.Fatal("the cache no longer holds the released handle: the test proves nothing")
	}

	if got, want := w.dfApply(OpAnd, x1, x2), k.MkNode(1, node.Zero, x2); got != want {
		t.Fatalf("dfApply of the old key = %v, want %v", got, want)
	}
	if o := w.opAt(reused); o.state.Load() != opClaimed || o.op != OpOr {
		t.Fatalf("dfApply changed the reused node: state %d, op %v", o.state.Load(), o.op)
	}
	w.cache.Insert(1, uint8(OpAnd), x1, x2, old)
	if got := w.preprocess(OpAnd, x1, x2); got == old {
		t.Fatal("preprocess of the old key returned the reused node's handle")
	}
}

// TestScopeReleaseUnderThieves builds XORs and ANDs of random DNFs on two
// workers with a threshold and groups small enough that contexts are
// pushed, groups are stolen and, at two processors, stalled reducers
// force-resolve, while every scope checks and quarantines the operator
// nodes it gives back (Kernel.verifyScopes): giving back a node that is
// not reduced, or any write to one after, fails the build. Results must
// match depth-first. At two processors it fails without the stolen
// counts that keep a scope's nodes while a thief holds its groups.
func TestScopeReleaseUnderThieves(t *testing.T) {
	const L = 16
	batchesUnderThieves(t, L, func(k *Kernel, rng *rand.Rand) node.Ref {
		return randomDNF(k, rng, L, 24, 6)
	})
}

// TestSparseLevelsUnderThieves is TestScopeReleaseUnderThieves on 4,096
// declared levels with operands in two bands, the first and the last
// eight levels, so every cycle's work skips thousands of empty levels:
// expansion and context pushes between the bands, and reduction of the
// runs on the reduce stack, stolen groups nesting theirs above.
func TestSparseLevelsUnderThieves(t *testing.T) {
	const L = 4096
	batchesUnderThieves(t, L, func(k *Kernel, rng *rand.Rand) node.Ref {
		return randomDNFAt(k, rng, 24, 6, func() int {
			lvl := rng.Intn(16)
			if lvl >= 8 {
				lvl += L - 16
			}
			return lvl
		})
	})
}

// batchesUnderThieves runs two rounds of XOR and AND batches over twelve
// operands on a 2-worker par kernel with threshold 8, groups of 2 and
// Kernel.verifyScopes, and checks them against depth-first. The build
// must push contexts and steal groups.
func batchesUnderThieves(t *testing.T, L int, operand func(*Kernel, *rand.Rand) node.Ref) {
	t.Helper()
	ref := NewKernel(Options{Levels: L, Engine: EngineDF})
	defer ref.Close()
	k := NewKernel(Options{Levels: L, Engine: EnginePar, Workers: 2, EvalThreshold: 8, GroupSize: 2, Stealing: true})
	defer k.Close()
	k.verifyScopes = true
	operands := func(k *Kernel) []node.Ref {
		rng := rand.New(rand.NewSource(9))
		var fs []node.Ref
		for i := 0; i < 12; i++ {
			fs = append(fs, operand(k, rng))
		}
		return fs
	}
	fs, want := operands(k), operands(ref)
	for round := 0; round < 2; round++ {
		var batch, refBatch []BinOp
		for i := range fs {
			j := (i + round + 1) % len(fs)
			op := []Op{OpXor, OpAnd}[(i+round)%2]
			batch = append(batch, BinOp{Op: op, F: fs[i], G: fs[j]})
			refBatch = append(refBatch, BinOp{Op: op, F: want[i], G: want[j]})
		}
		got, exp := k.ApplyBatch(batch), ref.ApplyBatch(refBatch)
		if a, b := k.CanonicalSignature(got), ref.CanonicalSignature(exp); !slices.Equal(a, b) {
			t.Fatalf("round %d: the 2-worker batch differs from depth-first", round)
		}
	}
	st := k.TotalStats()
	t.Logf("steals %d, stolen ops %d, pushes %d, forced %d, stalls %d", st.Steals, st.StolenOps, st.ContextPushes, st.ForcedOps, st.Stalls)
	if st.Steals == 0 || st.ContextPushes == 0 {
		t.Fatalf("steals %d, context pushes %d: the build did not exercise release under thieves", st.Steals, st.ContextPushes)
	}
}
