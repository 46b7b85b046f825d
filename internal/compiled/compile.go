package compiled

import (
	"fmt"

	"bfbdd/internal/core"
	"bfbdd/internal/levelfmt"
	"bfbdd/internal/node"
)

// Compile freezes the subgraph reachable from roots into an immutable
// Func. The kernel is only read — Compile must be serialized against
// mutation exactly like snapshotting (the server runs it on the session
// executor) — and the resulting Func holds no reference to the kernel,
// so it remains valid after the kernel is GC'd, reordered, or closed.
//
// var2level is the manager's variable order (entry v = level of public
// variable v). Because the node order and numbering come from
// Kernel.LevelMajorOrder, compiling the same functions under the same
// order on any engine yields byte-identical artifacts.
func Compile(k *core.Kernel, var2level []int, roots []Root) (*Func, error) {
	L := k.Levels()
	if len(var2level) != L {
		return nil, fmt.Errorf("compiled: var2level has %d entries for %d levels", len(var2level), L)
	}
	level2var, ok := levelfmt.InvertOrder(var2level)
	if !ok {
		return nil, fmt.Errorf("compiled: variable order is not a permutation of [0,%d)", L)
	}
	refs := make([]node.Ref, len(roots))
	for i, rt := range roots {
		if !rt.Ref.Valid() {
			return nil, fmt.Errorf("compiled: root %d has invalid ref %v", i, rt.Ref)
		}
		refs[i] = rt.Ref
	}
	order, pos, err := k.LevelMajorOrder(refs)
	if err != nil {
		return nil, err
	}
	if uint64(len(order)) > maxNodes {
		return nil, fmt.Errorf("compiled: %w: %d nodes", ErrTooLarge, len(order))
	}

	code := func(c node.Ref) uint64 {
		switch {
		case c.IsZero():
			return levelfmt.Zero
		case c.IsOne():
			return levelfmt.One
		default:
			return uint64(pos.Get(c) - 1)
		}
	}

	f := &Func{
		numVars:   L,
		nodes:     make([]packed, 0, len(order)),
		var2level: append([]int(nil), var2level...),
		level2var: level2var,
	}
	st := k.Store()
	for _, r := range order {
		nd := st.Node(r)
		f.fill(r.Level(), code(nd.Low), code(nd.High))
	}
	for _, rt := range roots {
		f.roots = append(f.roots, funcRoot{id: rt.ID, node: uint32(code(rt.Ref))})
	}
	f.buildVarOf()
	return f, nil
}
