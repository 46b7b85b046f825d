package core

import (
	"fmt"

	"bfbdd/internal/node"
)

// ReorderLevels changes the variable order: levelMap[old] gives the new
// level of the variable currently at level old, and must be a permutation
// of [0, Levels). Every pinned BDD is rebuilt under the new order and its
// pin updated in place; the old-order forest is then garbage collected.
//
// The paper cites Rudell's dynamic variable reordering as the
// complementary line of work on BDD sizes (§1, [22]). Classic sifting
// relies on in-place adjacent level swaps, which require node identities
// that survive relabeling; with packed (level, worker, index) refs we
// instead rebuild the pinned functions under the target order — an
// O(size × levels) transformation that reuses the engine's own Apply
// machinery, trading swap efficiency for compatibility with the
// compaction-oriented memory layout.
func (k *Kernel) ReorderLevels(levelMap []int) {
	if len(levelMap) != k.opts.Levels {
		panic(fmt.Sprintf("core: ReorderLevels with %d entries for %d levels",
			len(levelMap), k.opts.Levels))
	}
	seen := make([]bool, len(levelMap))
	identity := true
	for old, nw := range levelMap {
		if nw < 0 || nw >= len(levelMap) || seen[nw] {
			panic("core: ReorderLevels map is not a permutation")
		}
		seen[nw] = true
		if nw != old {
			identity = false
		}
	}
	if identity {
		return
	}
	// The rebuild traverses every pinned node and the final GC replaces
	// arenas; run fully resident.
	k.ensureAllResident("ReorderLevels")

	k.InhibitGC()
	// Snapshot the pins; Apply (used by the rebuild) takes pinsMu for its
	// operand pins, so the registry must not be held while rebuilding.
	k.pinsMu.Lock()
	snapshot := make([]*Pin, 0, len(k.pins))
	for p := range k.pins {
		snapshot = append(snapshot, p)
	}
	k.pinsMu.Unlock()

	memo := node.NewTable[memoRef](k.store)
	rebuilt := make([]node.Ref, len(snapshot))
	for i, p := range snapshot {
		rebuilt[i] = k.permuteRec(p.ref, levelMap, memo)
	}
	k.pinsMu.Lock()
	for i, p := range snapshot {
		p.ref = rebuilt[i]
	}
	k.pinsMu.Unlock()
	k.ReleaseGC()

	// The old-order forest is dead; compact it away (also invalidates
	// every compute cache, whose entries mix orders otherwise).
	k.GC()
}

// permuteRec rebuilds f with each variable moved to its new level. The
// ITE on the renamed variable handles arbitrary permutations, including
// ones that invert the relative order of f's variables.
func (k *Kernel) permuteRec(f node.Ref, levelMap []int, memo *node.Table[memoRef]) node.Ref {
	if f.IsTerminal() {
		return f
	}
	if m := memo.Get(f); m.ok {
		return m.r
	}
	nd := k.store.Node(f)
	r0 := k.permuteRec(nd.Low, levelMap, memo)
	r1 := k.permuteRec(nd.High, levelMap, memo)
	v := k.MkNode(levelMap[f.Level()], node.Zero, node.One)
	res := k.ITE(v, r1, r0)
	*memo.At(f) = memoRef{res, true}
	return res
}
