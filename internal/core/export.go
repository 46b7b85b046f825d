package core

import (
	"bufio"
	"fmt"
	"io"

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

// WriteDOT renders roots as a Graphviz DOT graph. Dashed edges are
// 0-branches, solid edges 1-branches, matching the paper's figures, and
// shared subgraphs are emitted once. names labels the roots (f0, f1, …
// where a name is missing or empty); level2var maps a node's level to
// the variable index its label shows.
//
// The output is deterministic: node identifiers are assigned in
// first-reference (depth-first preorder) order from the roots, so two
// structurally equal BDDs render byte-identically regardless of which
// engine, worker, or allocation history produced them.
func (k *Kernel) WriteDOT(w io.Writer, roots []node.Ref, names []string, level2var []int) error {
	k.ensureReadable() // the emitter traverses the store directly
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph bdd {")
	fmt.Fprintln(bw, "  rankdir=TB;")
	fmt.Fprintln(bw, `  node [shape=circle];`)
	fmt.Fprintln(bw, `  t0 [label="0", shape=box];`)
	fmt.Fprintln(bw, `  t1 [label="1", shape=box];`)

	// Each node's slot holds its sequence number plus one, assigned in
	// first-reference order, and whether it was emitted; the physical
	// (level, worker, index) identity never leaks into the output, where
	// it would vary run to run under the parallel engine.
	slots := node.NewTable[dotNode](k.store)
	next := uint32(0)
	id := func(r node.Ref) string {
		switch {
		case r.IsZero():
			return "t0"
		case r.IsOne():
			return "t1"
		}
		s := slots.At(r)
		if s.id == 0 {
			next++
			s.id = next
		}
		return fmt.Sprintf("n%d", s.id-1)
	}
	var emit func(r node.Ref)
	emit = func(r node.Ref) {
		if r.IsTerminal() {
			return
		}
		s := slots.At(r)
		if s.emitted {
			return
		}
		s.emitted = true
		nd := k.store.Node(r)
		fmt.Fprintf(bw, "  %s [label=\"x%d\"];\n", id(r), level2var[r.Level()])
		fmt.Fprintf(bw, "  %s -> %s [style=dashed];\n", id(r), id(nd.Low))
		fmt.Fprintf(bw, "  %s -> %s;\n", id(r), id(nd.High))
		emit(nd.Low)
		emit(nd.High)
	}
	for i, r := range roots {
		label := fmt.Sprintf("f%d", i)
		if i < len(names) && names[i] != "" {
			label = names[i]
		}
		root := fmt.Sprintf("r%d", i)
		fmt.Fprintf(bw, "  %s [label=%q, shape=plaintext];\n", root, label)
		fmt.Fprintf(bw, "  %s -> %s;\n", root, id(r))
		emit(r)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// dotNode is WriteDOT's per-node state: the DOT sequence number plus one
// (0 = not yet referenced) and whether the node's lines were written.
type dotNode struct {
	id      uint32
	emitted bool
}
