package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"bfbdd/internal/node"
)

// countdownCtx is a context whose Err() starts returning
// context.DeadlineExceeded after `allow` calls. It gives the cancellation
// tests a deterministic mid-build trigger: the entry check consumes one
// call, and the first worker poll after that observes the expiry, without
// depending on wall-clock timing.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
	done      chan struct{}
}

func newCountdownCtx(allow int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.remaining.Store(allow)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// randomDNF builds the OR of `terms` random cubes over the given levels:
// a dense, irregular function whose pairwise XORs cost many Shannon
// expansions (random DNFs share little structure with each other).
func randomDNF(k *Kernel, rng *rand.Rand, levels, terms, width int) node.Ref {
	return randomDNFAt(k, rng, terms, width, func() int { return rng.Intn(levels) })
}

// randomDNFAt is randomDNF over the levels level returns.
func randomDNFAt(k *Kernel, rng *rand.Rand, terms, width int, level func() int) node.Ref {
	f := node.Zero
	for t := 0; t < terms; t++ {
		cube := node.One
		for j := 0; j < width; j++ {
			lvl := level()
			var lit node.Ref
			if rng.Intn(2) == 1 {
				lit = k.VarRef(lvl)
			} else {
				lit = k.MkNode(lvl, node.One, node.Zero)
			}
			cube = k.Apply(OpAnd, cube, lit)
		}
		f = k.Apply(OpOr, f, cube)
	}
	return f
}

// buildCancelBatch constructs a batch of operations over large pseudo-
// random operand BDDs — enough Shannon expansions that every engine is
// guaranteed to cross the worker poll interval several times.
func buildCancelBatch(k *Kernel, levels int) []BinOp {
	rng := rand.New(rand.NewSource(7))
	pins := make([]*Pin, 0, 32)
	for i := 0; i < 32; i++ {
		pins = append(pins, k.Pin(randomDNF(k, rng, levels, 48, 9)))
	}
	batch := make([]BinOp, 0, 16)
	for i := 0; i < 16; i++ {
		batch = append(batch, BinOp{Op: OpXor, F: pins[2*i].Ref(), G: pins[2*i+1].Ref()})
	}
	for _, p := range pins {
		k.Unpin(p)
	}
	return batch
}

func cancelTestKernel(engine Engine, workers int) *Kernel {
	return NewKernel(Options{
		Levels: 20, Engine: engine, Workers: workers,
		EvalThreshold: 256, GroupSize: 64, Stealing: true,
	})
}

func TestApplyCtxPreCanceled(t *testing.T) {
	k := cancelTestKernel(EnginePBF, 1)
	x, y := k.VarRef(0), k.VarRef(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := k.ApplyCtx(ctx, OpAnd, x, y); !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
	// The kernel must be untouched and fully usable.
	r, err := k.ApplyCtx(context.Background(), OpAnd, x, y)
	if err != nil {
		t.Fatalf("ApplyCtx after pre-cancel: %v", err)
	}
	if r != k.Apply(OpAnd, x, y) {
		t.Fatal("ApplyCtx result not canonical after pre-cancel")
	}
}

func TestApplyBatchCtxCancelMidBuild(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		engine  Engine
		workers int
	}{
		{"pbf", EnginePBF, 1},
		{"df", EngineDF, 1},
		{"par4", EnginePar, 4},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			// Reference run: same workload uncancelled, to confirm the
			// batch is big enough that workers must cross the poll
			// interval (so the cancellation below fires mid-build, not
			// never).
			ref := cancelTestKernel(cfg.engine, cfg.workers)
			refBatch := buildCancelBatch(ref, 20)
			ref.ResetStats()
			refResults := ref.ApplyBatch(refBatch)
			if ops := ref.TotalStats().Ops; ops < 4*cancelPollInterval {
				t.Fatalf("reference batch too small to guarantee polling: %d ops", ops)
			}

			k := cancelTestKernel(cfg.engine, cfg.workers)
			batch := buildCancelBatch(k, 20)
			basePins := k.NumPins()
			ctx := newCountdownCtx(2)
			res, err := k.ApplyBatchCtx(ctx, append([]BinOp(nil), batch...))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("ApplyBatchCtx: err = %v, want context.DeadlineExceeded", err)
			}
			if res != nil {
				t.Fatal("ApplyBatchCtx returned results alongside cancellation")
			}
			if got := k.NumPins(); got != basePins {
				t.Fatalf("aborted batch leaked pins: %d -> %d", basePins, got)
			}

			// The kernel must remain consistent: the same batch, run to
			// completion afterwards, produces results that agree with the
			// reference kernel under cross-evaluation.
			results, err := k.ApplyBatchCtx(context.Background(), batch)
			if err != nil {
				t.Fatalf("ApplyBatchCtx after abort: %v", err)
			}
			rng := rand.New(rand.NewSource(99))
			assignment := make([]bool, 20)
			for trial := 0; trial < 64; trial++ {
				for i := range assignment {
					assignment[i] = rng.Intn(2) == 1
				}
				for i := range results {
					if k.Eval(results[i], assignment) != ref.Eval(refResults[i], assignment) {
						t.Fatalf("post-abort result %d disagrees with reference", i)
					}
				}
			}
			checkInvariants(t, k, results)
		})
	}
}

func TestApplyCtxCompletesWhenNotCanceled(t *testing.T) {
	k := cancelTestKernel(EnginePar, 4)
	batch := buildCancelBatch(k, 20)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := k.ApplyCtx(ctx, batch[0].Op, batch[0].F, batch[0].G)
	if err != nil {
		t.Fatalf("ApplyCtx: %v", err)
	}
	if r != k.Apply(batch[0].Op, batch[0].F, batch[0].G) {
		t.Fatal("ApplyCtx result not canonical")
	}
}
