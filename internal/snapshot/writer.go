package snapshot

import (
	"fmt"
	"io"

	"bfbdd/internal/levelfmt"
	"bfbdd/internal/node"
)

// Options tunes the writer.
type Options struct {
	// RawRefs disables the per-level varint delta encoding of child
	// references (clears flag bit 0). Raw streams are larger but useful
	// for format debugging and as an encoding ablation.
	RawRefs bool
}

// Write serializes the subgraph reachable from roots into the snapshot
// format. The caller must guarantee quiescence: no concurrent mutation of
// the store while Write scans it. Only nodes reachable from the given
// roots are emitted — dead nodes are dropped at save time, so a restored
// manager starts from a garbage-free, densely renumbered node space.
//
// The emitted byte stream is a deterministic function of the store's
// physical layout and the root list: snapshotting the same manager twice
// yields identical bytes.
func Write(w io.Writer, st *node.Store, var2level []int, roots []Root, opts Options) error {
	L := st.Levels()
	if len(var2level) != L {
		return fmt.Errorf("snapshot: var2level has %d entries for %d levels", len(var2level), L)
	}

	// Phase 1: mark the subgraph reachable from the roots with a level
	// sweep, the way the collector marks. A slot is 0 until its node is
	// marked.
	refs := make([]node.Ref, len(roots))
	for i, rt := range roots {
		if !rt.Ref.Valid() {
			return fmt.Errorf("snapshot: root %d has invalid ref %v", i, rt.Ref)
		}
		refs[i] = rt.Ref
	}
	seq := node.NewTable[uint32](st)
	var total uint64
	if err := seq.Reach(refs, 1, func(node.Ref) { total++ }); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	enc, err := format.NewEncoder(w, var2level, len(roots), total, opts.RawRefs)
	if err != nil {
		return wrap(err)
	}

	// Phase 2: emit the level segments bottom-up (deepest level first,
	// then worker, then arena index), each a sequential scan of the marked
	// slots, numbering nodes as they go: a marked slot becomes its node's
	// stream position plus one. Every child, at a strictly deeper level, is
	// numbered before its parent is emitted.
	code := func(r node.Ref) uint64 {
		switch {
		case r.IsZero():
			return levelfmt.Zero
		case r.IsOne():
			return levelfmt.One
		}
		return uint64(seq.Get(r) - 1)
	}
	var next uint32
	for lvl := L - 1; lvl >= 0; lvl-- {
		seq.Sweep(lvl, func(r node.Ref, s *uint32) {
			next++
			*s = next
			nd := st.Node(r)
			enc.Node(lvl, code(nd.Low), code(nd.High))
		})
	}
	lroots := make([]levelfmt.Root, len(roots))
	for i, rt := range roots {
		lroots[i] = levelfmt.Root{ID: rt.ID, Node: code(rt.Ref)}
	}
	return wrap(enc.Finish(lroots))
}
