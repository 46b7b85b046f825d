package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bfbdd/internal/node"
	"bfbdd/internal/spill"
	"bfbdd/internal/stats"
)

// walkedAccount sums what the memory account counts by walking every
// structure it covers: each (worker, level) node arena not mapped to a
// spill file, each operator arena and block pool, each compute-cache
// segment and each unique table. The cache keeps its segments unexported, so the walk
// reads their lengths through reflection.
func walkedAccount(k *Kernel) stats.Parts {
	var a stats.Parts
	st := k.store
	for w := 0; w < st.Workers(); w++ {
		for l := 0; l < st.Levels(); l++ {
			if ar := st.Arena(w, l); !ar.Mapped() {
				a.NodeBytes += ar.Bytes()
			}
		}
	}
	for _, w := range k.workers {
		for i := range w.ops {
			a.OpBytes += w.ops[i].bytes()
		}
		a.OpBytes += uint64(len(w.pool)) * opBlockBytes
		segs := reflect.ValueOf(w.cache).Elem().FieldByName("segs")
		for i := 0; i < segs.Len(); i++ {
			entries := segs.Index(i).FieldByName("entries")
			a.CacheBytes += uint64(entries.Len()) * uint64(entries.Type().Elem().Size())
		}
	}
	for i := range k.tables {
		a.TableBytes += k.tables[i].Bytes()
	}
	return a
}

func (a *opArena) bytes() uint64 { return uint64(a.numBlocks()) * opBlockBytes }

// TestMemAccountMatchesWalk checks the running memory account and live
// count against walked sums after every kind of event that allocates or
// gives back storage: 1- and 2-worker builds under both collectors, a
// collection, a cache rebuild and shrink, a spill of every level, a
// build that unspills levels mid-build, a canceled build and a budget
// refusal.
func TestMemAccountMatchesWalk(t *testing.T) {
	const L = 20
	for _, workers := range []int{1, 2} {
		for _, gc := range []GCPolicy{GCCompact, GCFreeList} {
			t.Run(fmt.Sprintf("w%d/%v", workers, gc), func(t *testing.T) {
				k := NewKernel(Options{
					Levels: L, Engine: EnginePar, Workers: workers, GC: gc,
					EvalThreshold: 256, GroupSize: 64, Stealing: true,
					SpillDir: t.TempDir(),
				})
				defer k.Close()
				check := func(after string) {
					t.Helper()
					if got, want := k.account(), walkedAccount(k); got != want {
						t.Fatalf("after %s: account %+v, walk %+v", after, got, want)
					}
					if got, want := k.NumNodes(), k.store.NumNodes(); got != want {
						t.Fatalf("after %s: live count %d, arenas hold %d", after, got, want)
					}
				}

				rng := rand.New(rand.NewSource(int64(workers)))
				var pins []*Pin
				for i := 0; i < 8; i++ {
					pins = append(pins, k.Pin(randomDNF(k, rng, L, 48, 9)))
				}
				check("builds")
				batch := make([]BinOp, 0, len(pins)/2)
				for i := 0; i+1 < len(pins); i += 2 {
					batch = append(batch, BinOp{Op: OpXor, F: pins[i].Ref(), G: pins[i+1].Ref()})
				}
				for _, r := range k.ApplyBatch(batch) {
					pins = append(pins, k.Pin(r))
				}
				check("a batch")

				// Garbage enough to fill node blocks that only the
				// compacting collector gives back.
				for _, p := range pins[8:] {
					k.Unpin(p)
				}
				pins = pins[:8]
				for i := range pins {
					for j := i + 1; j < len(pins); j++ {
						k.Apply(OpXor, pins[i].Ref(), pins[j].Ref())
					}
				}
				before := k.store.ResidentBytes()
				k.GC()
				check("GC")
				if gc == GCCompact && k.store.ResidentBytes() >= before {
					t.Fatalf("compaction kept all %d bytes of node blocks", before)
				}
				k.Apply(OpAnd, pins[0].Ref(), pins[1].Ref())
				for _, w := range k.workers {
					w.cache.Rebuild()
				}
				check("cache Rebuild")
				k.Apply(OpOr, pins[2].Ref(), pins[3].Ref())
				for _, w := range k.workers {
					w.cache.Shrink()
				}
				check("cache Shrink")

				vars := make([]node.Ref, L)
				for l := range vars {
					vars[l] = k.VarRef(l)
				}
				if err := k.SpillAll(); err != nil {
					t.Fatal(err)
				}
				check("SpillAll")
				unspills := k.SpillStats().UnspillOps
				k.Apply(OpXor, pins[4].Ref(), vars[L-1])
				if spill.MmapEnabled && k.SpillStats().UnspillOps == unspills {
					t.Fatal("the build over a spilled store unspilled no level")
				}
				check("a build that unspilled levels")

				cancelBatch := []BinOp{
					{Op: OpXor, F: pins[5].Ref(), G: pins[6].Ref()},
					{Op: OpAnd, F: pins[7].Ref(), G: pins[0].Ref()},
				}
				if _, err := k.ApplyBatchCtx(newCountdownCtx(2), cancelBatch); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("canceled batch: err = %v, want context.DeadlineExceeded", err)
				}
				check("a canceled build")

				k.SetBudget(0, 1)
				if _, err := k.ApplyCtx(context.Background(), OpXor, pins[1].Ref(), pins[2].Ref()); !errors.Is(err, ErrBudgetExceeded) {
					t.Fatalf("build over a 1-byte budget: err = %v, want ErrBudgetExceeded", err)
				}
				check("a budget refusal")
				k.SetBudget(0, 0)
				for _, p := range pins {
					k.Unpin(p)
				}
			})
		}
	}
}

// TestBudgetGivesBackOperatorBlocks: the operator blocks a build keeps
// for the next one count in the account, and no collection frees them,
// so after a build aborts on a byte budget smaller than that floor the
// ladder must give them back, or every later operation is refused.
func TestBudgetGivesBackOperatorBlocks(t *testing.T) {
	const L = 24
	k := NewKernel(Options{Levels: L, Engine: EnginePBF, EvalThreshold: 16})
	defer k.Close()
	rng := rand.New(rand.NewSource(5))
	f := k.Pin(randomDNF(k, rng, L, 64, 10))
	g := k.Pin(randomDNF(k, rng, L, 64, 10))
	defer k.Unpin(f)
	defer k.Unpin(g)

	a := k.account()
	budget := a.Total() - a.OpBytes + 4*opBlockBytes
	k.SetBudget(0, budget)
	if _, err := k.ApplyCtx(context.Background(), OpXor, f.Ref(), g.Ref()); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("build over the budget: err = %v, want ErrBudgetExceeded", err)
	}
	if a := k.account(); a.Total() <= budget {
		t.Fatalf("the aborted build kept %d bytes of operator blocks, total %d: not above the %d-byte budget", a.OpBytes, a.Total(), budget)
	}
	if _, err := k.ApplyCtx(context.Background(), OpAnd, k.VarRef(0), k.VarRef(1)); err != nil {
		t.Fatalf("a small build after the abort: %v", err)
	}
}
