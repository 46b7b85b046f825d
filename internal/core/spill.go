package core

import (
	"time"

	"bfbdd/internal/spill"
	"bfbdd/internal/trace"
)

// Memory tiering (see DESIGN.md §14).
//
// A kernel created with Options.SpillDir owns a spill.Tier. Fully
// reduced levels can be written to level-major spill files and their
// heap blocks released; on platforms with an mmap backend the level
// stays readable through a read-only file mapping, so the Ref
// resolution hot path is unchanged and only writes need the level back
// on the heap.
//
// The invariants the hooks below maintain:
//
//   - Write paths pin: any site that allocates into or mutates a
//     level's arenas (FindOrAdd via mkNode or the reduce sweep) calls
//     pinLevel first, which unspills that one level. The fast path is
//     two atomic loads and costs nothing while no level is spilled.
//   - GC and reordering run fully resident: compaction replaces
//     arenas and the free-list sweep writes freed slots' Low fields,
//     so both unspill everything first (ensureAllResident).
//   - Read paths on mmap platforms need nothing: a spilled level
//     resolves refs through the mapping and the OS faults pages in.
//     On other platforms every read entry calls ensureReadable, which
//     unspills everything.
//   - Mappings retired by an unspill are unmapped only at quiescent
//     boundaries (ReleaseRetired from sampleMemory), because readers
//     racing with the unspill may still hold the old block table.
//   - Spilling itself happens only at quiescent boundaries: the
//     public SpillLevels/SpillAll (manager-driven tier-down) and the
//     budget ladder's spill rung inside budgetGate.

// spillPrefetchAhead is how many levels ahead of the reduce sweep the
// kernel issues WILLNEED advice for, in sweep order (bottom-up).
const spillPrefetchAhead = 4

// EnableSpill creates (or reopens) the spill tier rooted at dir. It is
// called once right after kernel construction, before any operation;
// stale spill files under dir are removed. Enabling twice replaces the
// tier only if the first had no spilled levels (it never does at call
// time).
func (k *Kernel) EnableSpill(dir string) error {
	t, err := spill.Open(dir)
	if err != nil {
		return err
	}
	k.tier.Store(t)
	return nil
}

// SpillEnabled reports whether a spill tier is attached.
func (k *Kernel) SpillEnabled() bool { return k.tier.Load() != nil }

// SpillStats returns the tier's activity counters (zero value without
// a tier).
func (k *Kernel) SpillStats() spill.Stats {
	if t := k.tier.Load(); t != nil {
		return t.Stats()
	}
	return spill.Stats{}
}

// SpilledLevels returns the currently spilled level numbers.
func (k *Kernel) SpilledLevels() []int {
	if t := k.tier.Load(); t != nil {
		return t.SpilledLevels()
	}
	return nil
}

// pinLevel brings one level back to the heap before a write touches its
// arenas. Hot-path cost while nothing is spilled: one atomic pointer
// load and one atomic counter load. Safe from any worker: the spill
// mutex serializes racing pins, and readers concurrently resolving refs
// through the old (mapped) block table stay valid until ReleaseRetired.
func (k *Kernel) pinLevel(level int) {
	t := k.tier.Load()
	if t == nil || t.SpilledLevelCount() == 0 {
		return
	}
	if !t.IsSpilled(level) {
		return
	}
	k.spillMu.Lock()
	defer k.spillMu.Unlock()
	if !t.IsSpilled(level) {
		return
	}
	t0 := time.Now()
	if err := t.UnspillLevel(k.store, level); err != nil {
		// An unreadable spill file would lose nodes; treat it like any
		// other kernel invariant violation so the serving layer poisons
		// just this session.
		panic(internalf("spill", "unspill level %d: %v", level, err))
	}
	if k.btr != nil {
		k.btr.Add(k.btrParent, "unspill", t0, time.Now(), trace.I("level", int64(level)))
	}
}

// prefetchAhead advises the OS about the next levels the bottom-up
// reduce sweep will touch.
func (k *Kernel) prefetchAhead(level int) {
	t := k.tier.Load()
	if t == nil || t.SpilledLevelCount() == 0 {
		return
	}
	var next []int
	for l := level - 1; l >= 0 && l >= level-spillPrefetchAhead; l-- {
		next = append(next, l)
	}
	if len(next) == 0 {
		return
	}
	t0 := time.Now()
	t.Prefetch(next)
	if k.btr != nil {
		k.btr.Add(k.btrParent, "prefetch", t0, time.Now(),
			trace.I("level", int64(level)), trace.I("ahead", int64(len(next))))
	}
}

// ensureReadable makes every level resolvable before a read-only
// traversal. With an mmap backend this is free — spilled levels serve
// reads through their mappings. Without one, spilled levels have no
// blocks at all, so everything is unspilled. Every walk starts here, so
// this is also where a walk on a closed kernel panics.
func (k *Kernel) ensureReadable() {
	k.checkOpen()
	if spill.MmapEnabled {
		return
	}
	k.ensureAllResident("read")
}

// EnsureReadable makes every level resolvable before an external
// traversal of the store (snapshot.Write, DOT export). Free on mmap
// platforms; unspills everything elsewhere.
func (k *Kernel) EnsureReadable() { k.ensureReadable() }

// ensureAllResident unspills every level; required before GC (arenas
// are replaced or mutated) and level reordering.
func (k *Kernel) ensureAllResident(site string) {
	t := k.tier.Load()
	if t == nil || t.SpilledLevelCount() == 0 {
		return
	}
	k.spillMu.Lock()
	defer k.spillMu.Unlock()
	t0 := time.Now()
	n := t.SpilledLevelCount()
	if err := t.UnspillAll(k.store); err != nil {
		panic(internalf(site, "unspill: %v", err))
	}
	if k.btr != nil {
		k.btr.Add(k.btrParent, "unspill", t0, time.Now(), trace.I("levels", int64(n)))
	}
}

// SpillLevels writes the given levels (all spillable levels when nil)
// to the spill tier and releases their heap blocks. Levels are spilled
// deepest first — the bottom of the order is the coldest region of a
// top-down traversal. Must be called at a quiescent boundary (the
// manager serializes it against operations). Without a tier it is a
// no-op. On error the affected level stays fully resident.
func (k *Kernel) SpillLevels(levels []int) error {
	k.checkOpen()
	t := k.tier.Load()
	if t == nil {
		return nil
	}
	k.spillMu.Lock()
	defer k.spillMu.Unlock()
	if levels == nil {
		for l := k.opts.Levels - 1; l >= 0; l-- {
			levels = append(levels, l)
		}
	}
	t0 := time.Now()
	var spilled int
	for _, l := range levels {
		if l < 0 || l >= k.opts.Levels {
			continue
		}
		if err := k.spillOneLocked(t, l); err != nil {
			return err
		}
		spilled++
	}
	k.sampleMemory()
	if k.btr != nil {
		k.btr.Add(k.btrParent, "spill", t0, time.Now(),
			trace.I("levels", int64(spilled)), trace.I("spilled_bytes", int64(t.SpilledBytes())))
	}
	return nil
}

// SpillAll tiers the whole store down to disk.
func (k *Kernel) SpillAll() error { return k.SpillLevels(nil) }

// Unspill brings every spilled level back to the heap and releases the
// retired mappings. Quiescent-boundary only.
func (k *Kernel) Unspill() error {
	k.checkOpen()
	t := k.tier.Load()
	if t == nil {
		return nil
	}
	k.spillMu.Lock()
	defer k.spillMu.Unlock()
	if err := t.UnspillAll(k.store); err != nil {
		return err
	}
	t.ReleaseRetired()
	k.sampleMemory()
	return nil
}

// spillOneLocked spills one level with the spill mutex held.
func (k *Kernel) spillOneLocked(t *spill.Tier, level int) error {
	return t.SpillLevel(k.store, level)
}

// spillColdest is the budget ladder's spill rung: with the byte budget
// still busted after forced GC, cache shrink, and threshold
// degradation, spill levels deepest-first until usage drops below the
// soft threshold (or nothing spillable remains). Returns whether any
// level was spilled. Quiescent (budgetGate) only.
func (k *Kernel) spillColdest(live uint64) bool {
	t := k.tier.Load()
	if t == nil {
		return false
	}
	k.spillMu.Lock()
	defer k.spillMu.Unlock()
	t0 := time.Now()
	var spilled int
	for l := k.opts.Levels - 1; l >= 0; l-- {
		if t.IsSpilled(l) {
			continue
		}
		if err := k.spillOneLocked(t, l); err != nil {
			// Disk trouble must not turn into a wrong answer; fall through
			// to the *BudgetError rung with whatever was spilled so far.
			break
		}
		spilled++
		if !k.budget.overSoft(live, k.MemBytes()) {
			break
		}
	}
	if spilled == 0 {
		return false
	}
	k.budget.spills.Add(1)
	k.sampleMemory()
	if k.btr != nil {
		k.btr.Add(k.btrParent, "spill", t0, time.Now(),
			trace.I("levels", int64(spilled)), trace.I("spilled_bytes", int64(t.SpilledBytes())))
	}
	return true
}

// MemReport is the per-manager memory-tiering breakdown: how many bytes
// are heap-resident vs. spilled, and where each level lives.
type MemReport struct {
	ResidentBytes uint64
	SpilledBytes  uint64
	Levels        []LevelMem
}

// LevelMem describes one variable level's storage.
type LevelMem struct {
	Level   int
	Nodes   uint64
	Bytes   uint64
	Spilled bool
}

// MemReport returns the tiering breakdown. Levels with no storage are
// omitted. Safe at quiescent boundaries (the manager serializes it).
func (k *Kernel) MemReport() MemReport {
	k.checkOpen()
	r := MemReport{ResidentBytes: k.store.ResidentBytes()}
	t := k.tier.Load()
	if t != nil {
		r.SpilledBytes = t.SpilledBytes()
	}
	for l := 0; l < k.opts.Levels; l++ {
		bytes, mapped := k.store.LevelBytes(l)
		if t != nil {
			if sb := t.LevelBytes(l); sb > 0 {
				// Portable spill drops the blocks entirely; report the
				// on-disk footprint instead of the (zero) heap one.
				bytes, mapped = sb, true
			}
		}
		nodes := k.store.NodesAtLevel(l)
		if bytes == 0 && nodes == 0 {
			continue
		}
		r.Levels = append(r.Levels, LevelMem{Level: l, Nodes: nodes, Bytes: bytes, Spilled: mapped})
	}
	return r
}

// closeSpill tears the tier down with the kernel; spill files are
// scratch state scoped to the kernel's lifetime.
func (k *Kernel) closeSpill() {
	if t := k.tier.Load(); t != nil {
		t.Close(true)
		k.tier.Store(nil)
	}
}
