package core

import (
	"sync"
	"sync/atomic"
	"time"

	"bfbdd/internal/faultinject"
	"bfbdd/internal/node"
	"bfbdd/internal/stats"
	"bfbdd/internal/trace"
)

// barrier is a reusable P-party synchronization barrier for the GC's
// per-variable mark synchronization (§3.4: "each process will synchronize
// at each variable").
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	gen := b.gen
	for b.gen == gen {
		b.cond.Wait()
	}
}

// markBit sets the mark bit for r with a CAS loop; nodes at one level can
// be marked concurrently by every worker whose nodes reference them.
func markBit(st *node.Store, r node.Ref) {
	if r.IsTerminal() {
		return
	}
	a := st.Arena(r.Worker(), r.Level())
	word, bit := a.MarkWord(r.Index())
	for {
		old := atomic.LoadUint64(word)
		if old&bit != 0 {
			return
		}
		if atomic.CompareAndSwapUint64(word, old, old|bit) {
			return
		}
	}
}

// GC runs a full collection with the configured policy. It must be called
// only at top-level-operation boundaries, with all workers quiescent and
// every live external BDD protected in the root registry.
func (k *Kernel) GC() {
	// Collection mutates arenas (compaction replaces them; the free-list
	// sweep threads freed slots through their Low fields), so every
	// spilled level must come home first. Quiescent here, so retired
	// mappings can be released too.
	k.ensureAllResident("GC")
	t0 := time.Now()
	// Phase-time snapshot for the gc span of a traced build: the delta
	// across the collection attributes the three sub-phase times (summed
	// over workers) to this specific collection.
	var before stats.Worker
	if k.btr != nil {
		before = k.TotalStats()
	}
	if k.opts.GC == GCFreeList {
		k.gcFreeList()
	} else {
		k.gcCompact()
	}
	for _, w := range k.workers {
		w.cache.Rebuild()
	}
	// Re-derive the counts a collection changes: frees and moves change
	// live nodes and blocks, and the rehash or sweep resizes every table.
	k.store.SyncLive()
	var tableB uint64
	for i := range k.tables {
		tableB += k.tables[i].Bytes()
	}
	k.tableBytes.Store(tableB)
	k.gcLiveAfter = k.NumNodes()
	k.mem.GCCount++
	k.sampleMemory()
	if k.btr != nil {
		after := k.TotalStats()
		phase := func(p stats.Phase) int64 { return int64(after.PhaseTime(p) - before.PhaseTime(p)) }
		k.btr.Add(k.btrParent, "gc", t0, time.Now(),
			trace.I("mark_ns", phase(stats.PhaseGCMark)),
			trace.I("fix_ns", phase(stats.PhaseGCFix)),
			trace.I("rehash_ns", phase(stats.PhaseGCRehash)),
			trace.I("live_after", int64(k.gcLiveAfter)))
	}
}

// prepareMarksAndRoots sizes the mark bitmaps and marks the externally
// referenced roots.
func (k *Kernel) prepareMarksAndRoots() {
	st := k.store
	for w := 0; w < st.Workers(); w++ {
		for l := 0; l < st.Levels(); l++ {
			st.Arena(w, l).PrepareMarks()
		}
	}
	k.pinsMu.Lock()
	for p := range k.pins {
		markBit(st, p.ref)
	}
	k.pinsMu.Unlock()
}

// gcCompact is the paper's three-phase collector: (1) top-down
// breadth-first mark, one variable at a time with a barrier per variable,
// fused with sliding compaction of each worker's own marked nodes; (2) a
// fully parallel fix phase rewriting child references through the
// forwarding tables; (3) a rehash phase rebuilding every per-variable
// unique table, with workers visiting variables in trylock order to dodge
// held locks.
func (k *Kernel) gcCompact() {
	st := k.store
	W, L := st.Workers(), st.Levels()
	k.prepareMarksAndRoots()

	// Per-(worker, level) replacement arenas and old→new index forwarding.
	newArenas := make([][]node.Arena, W)
	fwd := make([][][]uint32, W)
	for w := 0; w < W; w++ {
		newArenas[w] = make([]node.Arena, L)
		fwd[w] = make([][]uint32, L)
	}

	bar := newBarrier(W)
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := k.workers[w]

			// Phase 1: mark + compact, level by level, barrier per level.
			tMark := time.Now()
			for lvl := 0; lvl < L; lvl++ {
				if faultinject.Enabled {
					// Stall only: an injected failure inside the barrier
					// protocol would deadlock the other mark goroutines.
					// The delay widens the mid-collection window for
					// cancel-during-GC tests.
					faultinject.Stall(faultinject.GCStall)
				}
				old := st.Arena(w, lvl)
				n := old.Len()
				f := make([]uint32, n)
				na := &newArenas[w][lvl]
				for i := uint64(0); i < n; i++ {
					if !old.Marked(i) {
						continue
					}
					nd := old.At(i)
					markBit(st, nd.Low)
					markBit(st, nd.High)
					f[i] = uint32(na.Alloc(nd.Low, nd.High))
				}
				fwd[w][lvl] = f
				bar.wait()
			}
			wk.st.AddPhase(stats.PhaseGCMark, time.Since(tMark))

			// Phase 2: fix references, fully parallel (each worker
			// rewrites only nodes it owns).
			tFix := time.Now()
			for lvl := 0; lvl < L; lvl++ {
				na := &newArenas[w][lvl]
				for i := uint64(0); i < na.Len(); i++ {
					nd := na.At(i)
					nd.Low = forward(fwd, nd.Low)
					nd.High = forward(fwd, nd.High)
				}
			}
			wk.st.AddPhase(stats.PhaseGCFix, time.Since(tFix))
		}(w)
	}
	wg.Wait()

	// Swap in the compacted arenas and remap the root registry (serial,
	// cheap relative to the parallel phases).
	for w := 0; w < W; w++ {
		for lvl := 0; lvl < L; lvl++ {
			st.Arena(w, lvl).ReplaceWith(&newArenas[w][lvl])
		}
	}
	k.pinsMu.Lock()
	for p := range k.pins {
		p.ref = forward(fwd, p.ref)
	}
	k.pinsMu.Unlock()

	// Phase 3: rehash. Reset buckets serially (sized for the survivors),
	// then each worker inserts its own nodes, preferring unlocked
	// variables first (§3.4).
	for lvl := 0; lvl < L; lvl++ {
		k.tables[lvl].ResetBuckets(st.NodesAtLevel(lvl))
	}
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			k.rehashWorker(w)
			k.workers[w].st.AddPhase(stats.PhaseGCRehash, time.Since(t0))
		}(w)
	}
	wg.Wait()
}

// forward remaps a pre-compaction ref through the forwarding tables.
func forward(fwd [][][]uint32, r node.Ref) node.Ref {
	if r.IsTerminal() {
		return r
	}
	return node.MakeRef(r.Level(), r.Worker(), uint64(fwd[r.Worker()][r.Level()][r.Index()]))
}

// rehashWorker inserts worker w's nodes into the per-variable unique
// tables. Variables whose lock is momentarily held by another worker are
// deferred and retried, exactly as the paper describes for the rehash
// phase; if a full scan makes no progress the worker blocks on the first
// remaining variable.
func (k *Kernel) rehashWorker(w int) {
	st := k.store
	var remaining []int
	for lvl := 0; lvl < st.Levels(); lvl++ {
		if st.Arena(w, lvl).Len() > 0 {
			remaining = append(remaining, lvl)
		}
	}
	insert := func(lvl int) {
		t := &k.tables[lvl]
		a := st.Arena(w, lvl)
		for i := uint64(0); i < a.Len(); i++ {
			t.Insert(st, node.MakeRef(lvl, w, i))
		}
	}
	for len(remaining) > 0 {
		progressed := false
		kept := remaining[:0]
		for _, lvl := range remaining {
			if k.tables[lvl].TryLock() {
				insert(lvl)
				k.tables[lvl].Unlock()
				progressed = true
			} else {
				kept = append(kept, lvl)
			}
		}
		remaining = kept
		if !progressed && len(remaining) > 0 {
			lvl := remaining[0]
			k.workers[w].st.LockWaitNs += int64(k.tables[lvl].Lock())
			insert(lvl)
			k.tables[lvl].Unlock()
			remaining = remaining[1:]
		}
	}
}

// gcFreeList is the non-compacting ablation policy: mark exactly as the
// compacting collector does, then sweep unmarked nodes out of the unique
// tables onto per-arena free lists. Nodes never move, so no fix or rehash
// phase is needed — at the cost of the scattered allocation the paper's
// §3.4 argues against.
func (k *Kernel) gcFreeList() {
	st := k.store
	W, L := st.Workers(), st.Levels()
	k.prepareMarksAndRoots()

	bar := newBarrier(W)
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := k.workers[w]
			tMark := time.Now()
			for lvl := 0; lvl < L; lvl++ {
				a := st.Arena(w, lvl)
				for i := uint64(0); i < a.Len(); i++ {
					if !a.Marked(i) {
						continue
					}
					nd := a.At(i)
					markBit(st, nd.Low)
					markBit(st, nd.High)
				}
				bar.wait()
			}
			wk.st.AddPhase(stats.PhaseGCMark, time.Since(tMark))

			// Sweep: levels are striped across workers; a level's unique
			// chain spans all workers' arenas but distinct levels touch
			// disjoint arenas, so the striping is race free.
			tSweep := time.Now()
			for lvl := w; lvl < L; lvl += W {
				k.tables[lvl].RemoveUnmarked(st, func(r node.Ref) {
					st.Arena(r.Worker(), r.Level()).Free(r.Index())
				})
			}
			wk.st.AddPhase(stats.PhaseGCFix, time.Since(tSweep))
		}(w)
	}
	wg.Wait()
}
