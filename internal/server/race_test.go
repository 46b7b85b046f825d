package server

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bfbdd"
	"bfbdd/internal/wal"
)

// TestExecutorSharedManagerRace has many goroutines driving one session's
// Manager exclusively through the session executor and coalescer —
// building, applying, querying, freeing, and collecting garbage
// concurrently. The Manager itself is single-writer; this test (run under
// -race in CI) proves the serving layer really does serialize all engine
// access while letting the engine's own workers parallelize each batch.
func TestExecutorSharedManagerRace(t *testing.T) {
	srv := New(Config{CoalesceWindow: time.Millisecond})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	const vars = 16
	sess, err := srv.reg.create(SessionOptions{Vars: vars, Engine: "par", Workers: 2})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}

	// Seed a pool of shared operand handles through the executor.
	var seeds []uint64
	err = sess.exec.submit(context.Background(), func(context.Context) error {
		for i := 0; i < vars; i++ {
			seeds = append(seeds, sess.st.Put(sess.mgr.Var(i)))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("seed: %v", err)
	}

	const (
		goroutines = 8
		iters      = 40
	)
	kinds := []bfbdd.BatchOpKind{bfbdd.BatchAnd, bfbdd.BatchOr, bfbdd.BatchXor}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			ctx := context.Background()
			var mine []uint64 // handles this goroutine owns and may free
			for i := 0; i < iters; i++ {
				f := seeds[rng.Intn(len(seeds))]
				h := seeds[rng.Intn(len(seeds))]
				switch i % 5 {
				case 0, 1: // coalesced apply — the contended hot path
					res, err := sess.coal.submit(ctx, kinds[rng.Intn(len(kinds))], f, h)
					if err != nil {
						t.Errorf("g%d apply: %v", g, err)
						return
					}
					mine = append(mine, res.handle)
				case 2: // direct executor batch
					err := sess.exec.submit(ctx, func(ctx context.Context) error {
						bf, err := sess.st.Get(f)
						if err != nil {
							return err
						}
						bg, err := sess.st.Get(h)
						if err != nil {
							return err
						}
						out, err := sess.mgr.ApplyBatchCtx(ctx, []bfbdd.BatchOp{
							{Kind: bfbdd.BatchXor, F: bf, G: bg},
							{Kind: bfbdd.BatchAnd, F: bf, G: bg},
						})
						if err != nil {
							return err
						}
						for _, b := range out {
							mine = append(mine, sess.st.Put(b))
						}
						return nil
					})
					if err != nil {
						t.Errorf("g%d batch: %v", g, err)
						return
					}
				case 3: // queries + occasional GC
					err := sess.exec.submit(ctx, func(context.Context) error {
						b, err := sess.st.Get(f)
						if err != nil {
							return err
						}
						_ = b.Size()
						_, _ = b.AnySat()
						if rng.Intn(8) == 0 {
							sess.mgr.GC()
						}
						return nil
					})
					if err != nil {
						t.Errorf("g%d query: %v", g, err)
						return
					}
				case 4: // free half of what we built; read stats lock-free
					if len(mine) > 4 {
						toFree := mine[:2]
						mine = mine[2:]
						err := sess.exec.submit(ctx, func(context.Context) error {
							return sess.st.Apply(wal.FreeRec{Handles: toFree})
						})
						if err != nil {
							t.Errorf("g%d free: %v", g, err)
							return
						}
					}
					if st := sess.stats(); st == nil {
						t.Errorf("g%d: nil stats snapshot", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The engine must have done real coalesced work, and the structure must
	// still be internally consistent: cross-check a sample result against a
	// fresh single-threaded manager.
	if srv.metrics.coalescedOps.Load() == 0 {
		t.Fatalf("no ops went through the coalescer")
	}
	ref := bfbdd.New(vars)
	defer ref.Close()
	err = sess.exec.submit(context.Background(), func(context.Context) error {
		a, err := sess.st.Get(seeds[0])
		if err != nil {
			return err
		}
		b, err := sess.st.Get(seeds[1])
		if err != nil {
			return err
		}
		got := a.Xor(b)
		want := ref.Var(0).Xor(ref.Var(1))
		for trial := 0; trial < 32; trial++ {
			assign := make([]bool, vars)
			for i := range assign {
				assign[i] = trial&(1<<uint(i%8)) != 0 || i*trial%3 == 0
			}
			if got.Eval(assign) != want.Eval(assign) {
				return fmt.Errorf("post-race xor disagrees with reference on %v", assign)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("cross-check: %v", err)
	}
}

// TestExecutorQueueBound checks the per-session admission half: a full
// queue rejects instead of blocking.
func TestExecutorQueueBound(t *testing.T) {
	e := newExecutor(2, nil)
	defer e.close()

	block := make(chan struct{})
	var unblockOnce sync.Once
	unblock := func() { unblockOnce.Do(func() { close(block) }) }
	defer unblock() // keep e.close() from hanging if an assertion fails

	started := make(chan struct{})
	// Occupy the loop goroutine.
	running, err := e.start(context.Background(), func(context.Context) error {
		close(started)
		<-block
		return nil
	})
	if err != nil {
		t.Fatalf("start blocker: %v", err)
	}
	// Wait until the loop has dequeued the blocker so the queue is empty.
	<-started
	// Fill the queue.
	for i := 0; i < 2; i++ {
		if _, err := e.start(context.Background(), func(context.Context) error { return nil }); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	// Next one must be rejected, not queued.
	if _, err := e.start(context.Background(), func(context.Context) error { return nil }); err != errQueueFull {
		t.Fatalf("overflow start: err = %v, want errQueueFull", err)
	}
	unblock()
	<-running.done

	// A task whose submitter's context is already dead gets skipped.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err = e.submit(ctx, func(context.Context) error { ran = true; return nil })
	if err != context.Canceled {
		t.Fatalf("dead-ctx submit: err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatalf("task with dead submitter context was executed")
	}
}
