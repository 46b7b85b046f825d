package bfbdd

import (
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
	roots := make([]node.Ref, len(bdds))
	for i, b := range bdds {
		if b.m != m {
			return fmt.Errorf("bfbdd: WriteDOT across managers")
		}
		roots[i] = b.ref()
	}
	return m.k.WriteDOT(w, roots, names, m.level2var)
}
