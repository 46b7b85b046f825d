package core

import (
	"fmt"

	"bfbdd/internal/node"
)

// LevelMajorOrder returns every non-terminal node reachable from roots in
// a deterministic breadth-first, level-major order: all nodes of the
// shallowest (highest-precedence) level first, then the next level, and
// so on. Within a level, nodes appear in first-discovery order — roots in
// argument order, then children low-before-high as the shallower levels
// are scanned.
//
// The order is a pure function of the graph's structure and the root
// list: it does not depend on arena layout, worker count, engine, or GC
// history, so two kernels holding the same Boolean functions under the
// same variable order export identical sequences. That stability is what
// lets compiled artifacts and their serialized bytes be compared across
// engines.
//
// It also returns each node's position in the order, plus one, in a side
// table over the kernel's arenas: the numbering a level-major artifact
// gives its nodes.
//
// The caller must guarantee quiescence (no concurrent mutation of the
// store), exactly as for snapshot.Write.
func (k *Kernel) LevelMajorOrder(roots []node.Ref) ([]node.Ref, *node.Table[uint32], error) {
	k.ensureReadable()
	L := k.opts.Levels
	perLevel := make([][]node.Ref, L)
	// pos holds 1 once a node is discovered, its position plus one at the
	// end.
	pos := node.NewTable[uint32](k.store)
	push := func(r node.Ref) error {
		if r.IsTerminal() {
			return nil
		}
		if !r.Valid() || r.Level() >= L || r.Worker() >= k.store.Workers() {
			return fmt.Errorf("core: export reached invalid ref %v", r)
		}
		if p := pos.At(r); *p == 0 {
			*p = 1
			perLevel[r.Level()] = append(perLevel[r.Level()], r)
		}
		return nil
	}
	for _, r := range roots {
		if err := push(r); err != nil {
			return nil, nil, err
		}
	}
	// Children live at strictly deeper levels than their parent, so by the
	// time a level's bucket is scanned it is complete: scanning can only
	// append to deeper buckets.
	total := 0
	for lvl := 0; lvl < L; lvl++ {
		for i := 0; i < len(perLevel[lvl]); i++ {
			nd := k.store.Node(perLevel[lvl][i])
			if nd.Low.Level() <= lvl || nd.High.Level() <= lvl {
				return nil, nil, fmt.Errorf("core: export found non-descending child at level %d", lvl)
			}
			if err := push(nd.Low); err != nil {
				return nil, nil, err
			}
			if err := push(nd.High); err != nil {
				return nil, nil, err
			}
		}
		total += len(perLevel[lvl])
	}
	out := make([]node.Ref, 0, total)
	for lvl := 0; lvl < L; lvl++ {
		for _, r := range perLevel[lvl] {
			out = append(out, r)
			*pos.At(r) = uint32(len(out))
		}
	}
	return out, pos, nil
}
