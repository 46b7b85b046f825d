package bfbdd_test

import (
	"context"
	"math/rand"
	"testing"

	"bfbdd"
)

// TestServedApplyLoopPeakFlat is the library form of one client applying
// and freeing against a long-lived session: xor of two of 16 variables,
// one operation per batch, then Free. The working set never changes, so
// peak memory must not grow with the number of operations. The compute
// cache is where it would: its op-handle entries go stale at every
// top-level boundary, and refilling those slots must not count as
// pressure to grow a segment.
func TestServedApplyLoopPeakFlat(t *testing.T) {
	const vars, steps = 16, 100_000
	m := bfbdd.New(vars)
	defer m.Close()
	v := make([]*bfbdd.BDD, vars)
	for i := range v {
		v[i] = m.Var(i)
	}
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	var early uint64
	for n := 1; n <= steps; n++ {
		i := rng.Intn(vars)
		j := rng.Intn(vars - 1)
		if j >= i {
			j++
		}
		out, err := m.ApplyBatchCtx(ctx, []bfbdd.BatchOp{{Kind: bfbdd.BatchXor, F: v[i], G: v[j]}})
		if err != nil {
			t.Fatal(err)
		}
		if got := out[0].Size(); got != 3 {
			t.Fatalf("step %d: xor of two variables has %d nodes, want 3", n, got)
		}
		out[0].Free()
		if n == 1000 {
			early = m.Stats().PeakBytes
		}
	}
	late := m.Stats().PeakBytes
	if late > early+early/10 {
		t.Fatalf("PeakBytes grew from %d after 1000 steps to %d after %d", early, late, steps)
	}
	t.Logf("PeakBytes %d after 1000 steps, %d after %d", early, late, steps)
}
