// Package unique implements the per-variable unique tables that guarantee
// BDD canonicity. There is one Table per variable level, shared by all
// workers, with one lock per table — the synchronization structure the
// paper uses for the parallel reduction phase (§3.2) and whose contention
// it measures in Figures 16 and 17.
package unique

import (
	"sync"
	"sync/atomic"
	"time"

	"bfbdd/internal/faultinject"
	"bfbdd/internal/node"
)

// hashRef mixes a pair of child refs into a 64-bit hash. The paper notes
// the hash function depends on the location of a node's children, which is
// why compaction forces the rehash phase of garbage collection; packed
// refs have the same property since a child's index changes when it moves.
// A table takes its home slot from the low bits and its fingerprint from
// the top 16.
func hashRef(low, high node.Ref) uint64 {
	h := uint64(low)*0x9E3779B97F4A7C15 ^ uint64(high)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// A slot is one uint64: fingerprint(16) | worker(8) | index(40). The low
// 48 bits sit exactly where a node.Ref keeps its worker and index, so a
// slot decodes to a Ref by OR-ing in the table's level bits. The
// fingerprint is never zero, so the zero slot means empty.
const (
	fpShift = 48
	refMask = 1<<fpShift - 1

	minSlots = 64

	// loadEighths is the load limit, in eighths of the slots: a table
	// grows past it, doubling, and a collection sizes one to stay within
	// it.
	loadEighths = 7
)

// overLoad reports whether n entries in slots slots exceed the load limit.
func overLoad(n, slots uint64) bool { return n*8 > slots*loadEighths }

// fingerprint returns h's top 16 bits in slot position, mapping 0 to 1 so
// that no occupied slot is zero.
func fingerprint(h uint64) uint64 {
	fp := h >> fpShift
	if fp == 0 {
		fp = 1
	}
	return fp << fpShift
}

// Table is the unique table for one variable level: an open-addressed
// array of slots with linear probing, kept at most 7/8 full. A probe
// reads a node from the arena only when the slot's fingerprint matches
// the key's, so a miss costs a cache line or two of slots rather than one
// arena read per entry. Entries may live in the arenas of several
// workers.
//
// All mutating access (FindOrAdd, RemoveUnmarked, ResetBuckets, Insert)
// requires holding the table's lock via Lock/Unlock, except where a phase
// barrier already guarantees exclusivity (noted per method). The zero
// Table is empty and ready to use.
type Table struct {
	mu sync.Mutex

	slots []uint64
	count uint64
	// level holds the level bits of every ref in the table (a Ref with
	// worker and index 0). FindOrAdd and Insert both set it, so a table
	// whose first entries come from a collector's rehash decodes them
	// correctly too.
	level node.Ref

	// maxCount tracks the high-water node count for this variable,
	// reproducing the paper's Figure 15 (max BDD nodes per variable).
	maxCount uint64

	// lockWaitNs accumulates time spent waiting to acquire the lock,
	// reproducing Figures 16/17. Updated atomically by Lock.
	lockWaitNs atomic.Int64

	// hits/misses count FindOrAdd outcomes for diagnostics.
	hits, misses uint64
}

// Lock acquires the table lock, accumulating contention wait time, and
// returns the wait so the caller can charge it to its own counters too.
// The fast path (uncontended TryLock) costs one atomic operation and
// records no wait.
func (t *Table) Lock() time.Duration {
	if t.mu.TryLock() {
		return 0
	}
	start := time.Now()
	t.mu.Lock()
	d := time.Since(start)
	t.lockWaitNs.Add(int64(d))
	return d
}

// TryLock attempts to acquire the lock without blocking.
func (t *Table) TryLock() bool { return t.mu.TryLock() }

// Unlock releases the table lock.
func (t *Table) Unlock() { t.mu.Unlock() }

// LockWait returns the accumulated lock acquisition wait time.
func (t *Table) LockWait() time.Duration { return time.Duration(t.lockWaitNs.Load()) }

// ResetLockWait clears the contention counter (used between experiment
// phases so Figure 16 reports reduction-phase waiting only).
func (t *Table) ResetLockWait() { t.lockWaitNs.Store(0) }

// Count returns the number of nodes currently in the table. Callers
// should hold the lock or be at a barrier for an exact value.
func (t *Table) Count() uint64 { return t.count }

// MaxCount returns the high-water node count for this variable.
func (t *Table) MaxCount() uint64 { return t.maxCount }

// Bytes returns the memory footprint of the slot array. Callers should
// hold the lock or be at a barrier.
func (t *Table) Bytes() uint64 { return uint64(len(t.slots)) * 8 }

// Hits and Misses return FindOrAdd outcome counters.
func (t *Table) Hits() uint64   { return t.hits }
func (t *Table) Misses() uint64 { return t.misses }

// FindOrAdd returns the canonical node for (level, low, high), creating it
// in worker w's arena if absent. The caller must hold the lock and must
// have already applied the reduction rule (low != high).
//
// Under -tags=faultinject it panics a *faultinject.Error when the
// unique-add or arena-alloc point is armed, modeling insert/allocation
// failure; callers (the kernel) unwind it through their abort machinery
// and must therefore release the table lock via defer. The slot is
// written only after the allocation returns, so such a panic leaves the
// table unchanged.
func (t *Table) FindOrAdd(st *node.Store, w, level int, low, high node.Ref) node.Ref {
	if faultinject.Enabled {
		if err := faultinject.Check(faultinject.UniqueAdd); err != nil {
			panic(err)
		}
	}
	t.level = node.MakeRef(level, 0, 0)
	if len(t.slots) == 0 {
		t.slots = make([]uint64, minSlots)
	}
	h := hashRef(low, high)
	fp := fingerprint(h)
	mask := uint64(len(t.slots) - 1)
	i := t.home(h)
	for s := t.slots[i]; s != 0; s = t.slots[i] {
		if s&^refMask == fp {
			r := t.level | node.Ref(s&refMask)
			if nd := st.Node(r); nd.Low == low && nd.High == high {
				t.hits++
				return r
			}
		}
		i = (i + 1) & mask
	}
	t.misses++
	if faultinject.Enabled {
		if err := faultinject.Check(faultinject.ArenaAlloc); err != nil {
			panic(err)
		}
	}
	r := st.NewNode(w, level, low, high)
	t.slots[i] = fp | uint64(r)&refMask
	t.added(st)
	return r
}

// home is the first slot a probe for a key with hash h reads.
func (t *Table) home(h uint64) uint64 { return h & uint64(len(t.slots)-1) }

// added counts one new entry and grows the slot array past the load
// limit.
func (t *Table) added(st *node.Store) {
	t.count++
	if t.count > t.maxCount {
		t.maxCount = t.count
	}
	if overLoad(t.count, uint64(len(t.slots))) {
		old := t.slots
		t.slots = make([]uint64, len(old)*2)
		for _, s := range old {
			if s != 0 {
				t.place(st, s&refMask)
			}
		}
	}
}

// place puts the entry whose worker and index bits are ref into its first
// free slot, re-hashing the node's children for its home slot and
// fingerprint. The entry must be absent.
func (t *Table) place(st *node.Store, ref uint64) {
	nd := st.Node(t.level | node.Ref(ref))
	h := hashRef(nd.Low, nd.High)
	mask := uint64(len(t.slots) - 1)
	i := t.home(h)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = fingerprint(h) | ref
}

// slotsFor is the slot count that holds n entries within the load limit.
func slotsFor(n uint64) uint64 {
	s := uint64(minSlots)
	for overLoad(n, s) {
		s *= 2
	}
	return s
}

// ResetBuckets empties the table in preparation for the rehash phase of a
// compacting collection, sized so that sizeHint entries stay within the
// load limit. Exclusivity is guaranteed by the GC barrier, not the lock.
func (t *Table) ResetBuckets(sizeHint uint64) {
	if n := slotsFor(sizeHint); uint64(len(t.slots)) != n {
		t.slots = make([]uint64, n)
	} else {
		clear(t.slots)
	}
	t.count = 0
}

// Insert adds a node known to be absent (rehash phase). The caller must
// hold the lock. Unlike FindOrAdd it never allocates a node; ResetBuckets
// pre-sizes the slots for the rehash, so it grows only if the hint was
// short.
func (t *Table) Insert(st *node.Store, r node.Ref) {
	t.level = r &^ refMask
	if len(t.slots) == 0 {
		t.slots = make([]uint64, minSlots)
	}
	t.place(st, uint64(r)&refMask)
	t.added(st)
}

// RemoveUnmarked drops every node whose arena mark bit is clear
// (free-list GC sweep), invoking free for each removed ref, and re-places
// the survivors in a fresh slot array sized for them as ResetBuckets
// sizes one. Exclusivity is guaranteed by the GC barrier.
func (t *Table) RemoveUnmarked(st *node.Store, free func(node.Ref)) {
	if len(t.slots) == 0 {
		return
	}
	live := t.slots[:0] // survivors overwrite slots already read
	for _, s := range t.slots {
		if s == 0 {
			continue
		}
		r := t.level | node.Ref(s&refMask)
		if st.Arena(r.Worker(), r.Level()).Marked(r.Index()) {
			live = append(live, s)
		} else {
			free(r)
		}
	}
	t.count = uint64(len(live))
	t.slots = make([]uint64, slotsFor(t.count))
	for _, s := range live {
		t.place(st, s&refMask)
	}
}
