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
	W, L := st.Workers(), st.Levels()
	if len(var2level) != L {
		return fmt.Errorf("snapshot: var2level has %d entries for %d levels", len(var2level), L)
	}

	// Phase 1: mark the subgraph reachable from the roots. seq holds one
	// slot per node of each (worker, level) arena, allocated lazily so
	// untouched arenas cost nothing; a slot is 0 until its node is marked.
	seq := make([][][]uint32, W)
	for wk := range seq {
		seq[wk] = make([][]uint32, L)
	}
	var stack []node.Ref
	for i, rt := range roots {
		if !rt.Ref.Valid() {
			return fmt.Errorf("snapshot: root %d has invalid ref %v", i, rt.Ref)
		}
		stack = append(stack, rt.Ref)
	}
	var total uint64
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if r.IsTerminal() {
			continue
		}
		sq := &seq[r.Worker()][r.Level()]
		if *sq == nil {
			*sq = make([]uint32, st.Arena(r.Worker(), r.Level()).Len())
		}
		if (*sq)[r.Index()] != 0 {
			continue
		}
		(*sq)[r.Index()] = 1
		total++
		nd := st.Node(r)
		stack = append(stack, nd.Low, nd.High)
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
		return uint64(seq[r.Worker()][r.Level()][r.Index()] - 1)
	}
	var next uint32
	for lvl := L - 1; lvl >= 0; lvl-- {
		for wk, sqs := range seq {
			a := st.Arena(wk, lvl)
			for i, s := range sqs[lvl] {
				if s != 0 {
					next++
					sqs[lvl][i] = next
					nd := a.At(uint64(i))
					enc.Node(lvl, code(nd.Low), code(nd.High))
				}
			}
		}
	}
	lroots := make([]levelfmt.Root, len(roots))
	for i, rt := range roots {
		lroots[i] = levelfmt.Root{ID: rt.ID, Node: code(rt.Ref)}
	}
	return wrap(enc.Finish(lroots))
}
