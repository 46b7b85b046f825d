package bfbdd

import (
	"bufio"
	"fmt"
	"io"

	"bfbdd/internal/node"
)

// WriteDOT renders the given BDDs as a Graphviz DOT graph. Dashed edges
// are 0-branches, solid edges 1-branches, matching the paper's figures.
// Shared subgraphs are emitted once. names labels the roots; pass nil for
// automatic f0, f1, … labels.
//
// The output is deterministic: node identifiers are assigned in
// first-reference (depth-first preorder) order from the roots, so two
// structurally equal BDDs render byte-identically regardless of which
// engine, worker, or allocation history produced them. Snapshots and DOT
// dumps of the same function therefore diff cleanly.
func WriteDOT(w io.Writer, names []string, bdds ...*BDD) error {
	if len(bdds) == 0 {
		return fmt.Errorf("bfbdd: WriteDOT needs at least one BDD")
	}
	m := bdds[0].m
	for _, b := range bdds {
		if b.m != m {
			return fmt.Errorf("bfbdd: WriteDOT across managers")
		}
	}
	m.k.EnsureReadable() // the emitter traverses the store directly
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
	slots := node.NewTable[dotNode](m.k.Store())
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
		nd := m.k.Store().Node(r)
		fmt.Fprintf(bw, "  %s [label=\"x%d\"];\n", id(r), m.level2var[r.Level()])
		fmt.Fprintf(bw, "  %s -> %s [style=dashed];\n", id(r), id(nd.Low))
		fmt.Fprintf(bw, "  %s -> %s;\n", id(r), id(nd.High))
		emit(nd.Low)
		emit(nd.High)
	}
	for i, b := range bdds {
		label := fmt.Sprintf("f%d", i)
		if i < len(names) && names[i] != "" {
			label = names[i]
		}
		root := fmt.Sprintf("r%d", i)
		fmt.Fprintf(bw, "  %s [label=%q, shape=plaintext];\n", root, label)
		fmt.Fprintf(bw, "  %s -> %s;\n", root, id(b.ref()))
		emit(b.ref())
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
