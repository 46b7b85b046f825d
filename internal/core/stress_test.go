package core

import (
	"math/rand"
	"testing"

	"bfbdd/internal/cache"
	"bfbdd/internal/node"
)

// TestParallelDeadlockRegression reproduces the configuration class that
// once deadlocked: many workers, tiny thresholds and groups (so expanded
// operator nodes are parked in pushed contexts while their branches are
// claimed across workers), heavy stealing pressure, and automatic GC. The
// fix escalates stalled reducers to depth-first self-computation; this
// test passes iff the build terminates (the test harness timeout is the
// failure detector) and stays canonical.
func TestParallelDeadlockRegression(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		k := NewKernel(Options{
			Levels: 16, Engine: EnginePar, Workers: 6,
			EvalThreshold: 8, GroupSize: 2, Stealing: true,
			GCMinNodes: 128, GCGrowth: 1.2,
		})
		rng := rand.New(rand.NewSource(seed))
		pins := make([]*Pin, 0, 64)
		refs := []node.Ref{node.Zero, node.One}
		for v := 0; v < 16; v++ {
			refs = append(refs, k.VarRef(v))
		}
		for i := 0; i < 120; i++ {
			op := Op(rng.Intn(int(numBinaryOps)))
			f := refs[rng.Intn(len(refs))]
			g := refs[rng.Intn(len(refs))]
			r := k.Apply(op, f, g)
			refs = append(refs, r)
			p := k.Pin(r)
			pins = append(pins, p)
			if len(pins) > 32 {
				k.Unpin(pins[0])
				pins = pins[1:]
			}
			// Refresh refs from pins after potential GC inside Apply.
			base := len(refs) - len(pins)
			for j, pp := range pins {
				refs[base+j] = pp.Ref()
			}
			refs = refs[max(0, len(refs)-40):]
		}
		roots := make([]node.Ref, len(pins))
		for i, p := range pins {
			roots[i] = p.Ref()
		}
		checkInvariants(t, k, roots)
		total := k.TotalStats()
		if total.ContextPushes == 0 {
			t.Fatal("stress config did not push contexts — not stressing the scheduler")
		}
	}
}

// TestForceResolveDirect exercises the escalation path deterministically:
// an operator node claimed by a worker that never finishes it (simulated
// by hand) must be computable by another worker's forceResolve.
func TestForceResolveDirect(t *testing.T) {
	k := NewKernel(Options{
		Levels: 6, Engine: EnginePar, Workers: 2,
		EvalThreshold: 1 << 20, Stealing: true,
	})
	w0, w1 := k.workers[0], k.workers[1]
	x0, x1 := k.VarRef(0), k.VarRef(1)

	// Fabricate a parent whose branch is a claimed-but-never-finished op
	// belonging to worker 1.
	childIdx, _ := w1.ops[0].alloc(OpAnd, x0, x1)
	childHandle := makeOpRef(1, 0, childIdx)
	parentIdx, _ := w0.ops[0].alloc(OpOr, x0, x1)
	parent := w0.ops[0].at(parentIdx)
	parent.b0 = childHandle.tagged()
	parent.b1 = cache.FromRef(x0)

	if _, ok := w0.resolve(parent.b0); ok {
		t.Fatal("unclaimed child should not resolve")
	}
	w0.forceResolve([]opRef{makeOpRef(0, 0, parentIdx)})
	r0, ok := w0.resolve(parent.b0)
	if !ok {
		t.Fatal("forceResolve did not publish the child result")
	}
	want := k.workers[0].dfApply(OpAnd, x0, x1)
	if r0 != want {
		t.Fatalf("forced result %v != df %v", r0, want)
	}
	if w0.st.ForcedOps != 1 {
		t.Fatalf("ForcedOps = %d", w0.st.ForcedOps)
	}
	// Idempotent: a second call must not recompute.
	w0.forceResolve([]opRef{makeOpRef(0, 0, parentIdx)})
	if w0.st.ForcedOps != 1 {
		t.Fatalf("forceResolve recomputed a done op: %d", w0.st.ForcedOps)
	}
}
