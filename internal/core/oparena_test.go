package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
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

// TestOpArenaFloorAllocs guards the one-block floor of opArena.reset. A
// two-level operation and an eight-level one on disjoint levels, run
// alternately, allocate per operation no more than the two-level one
// repeated. Without the floor each would allocate a block for every level
// it touches, every time. The bound is relative, so it holds under -race
// too.
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
		one := testing.AllocsPerRun(100, narrow)
		alt := testing.AllocsPerRun(100, func() { narrow(); wide() }) / 2
		if alt > one {
			t.Errorf("%s: alternating operations allocate %.1f per operation, the two-level one repeated %.1f", optName(opts), alt, one)
		}
		k.Close()
	}
}
