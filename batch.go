package bfbdd

import (
	"context"

	"bfbdd/internal/core"
	"bfbdd/internal/node"
)

// BatchOpKind names a binary operation for ApplyBatch.
type BatchOpKind int

// The operations accepted by ApplyBatch.
const (
	BatchAnd BatchOpKind = iota
	BatchOr
	BatchXor
	BatchNand
	BatchNor
	BatchXnor
	BatchDiff
	BatchImplies
)

func (k BatchOpKind) op() core.Op {
	switch k {
	case BatchAnd:
		return core.OpAnd
	case BatchOr:
		return core.OpOr
	case BatchXor:
		return core.OpXor
	case BatchNand:
		return core.OpNand
	case BatchNor:
		return core.OpNor
	case BatchXnor:
		return core.OpXnor
	case BatchDiff:
		return core.OpDiff
	case BatchImplies:
		return core.OpImp
	}
	panic("bfbdd: unknown batch op kind")
}

// BatchOp is one operation of an ApplyBatch call.
type BatchOp struct {
	Kind BatchOpKind
	F, G *BDD
}

// ApplyBatch computes a set of independent operations as one unit: with
// EnginePar the operations are seeded across the workers and constructed
// cooperatively (work stealing balances the remainder), and garbage
// collection runs at the batch boundary instead of between operations —
// the paper's "set of top level operations we queued" usage mode. The
// results are returned in order.
func (m *Manager) ApplyBatch(ops []BatchOp) []*BDD {
	refs := m.k.ApplyBatch(m.binOps(ops))
	out := make([]*BDD, len(refs))
	for i, r := range refs {
		out[i] = m.wrap(r)
	}
	return out
}

// ApplyBatchCtx is ApplyBatch with cooperative cancellation: when ctx is
// canceled (or its deadline passes) mid-construction, the workers abandon
// the batch at their next poll point, the kernel discards the transient
// build state, and ctx's error is returned. The manager remains fully
// usable; no results are returned for a canceled batch.
//
// When the batch aborts on a typed error instead — a *BudgetError after
// the budget escalation ladder is exhausted, or an injected fault — the
// returned slice has len(ops) entries reporting which operations
// completed before the abort: a valid handle for each finished op, nil
// for the rest. The completed handles are fully usable.
func (m *Manager) ApplyBatchCtx(ctx context.Context, ops []BatchOp) ([]*BDD, error) {
	bin := m.binOps(ops)
	b := m.startBuild(ctx)
	refs, err := m.k.ApplyBatchCtx(ctx, bin)
	m.endBuild(b)
	if err != nil {
		if len(refs) == 0 {
			return nil, err
		}
		// Partial completion: wrap (pin) the finished results immediately,
		// before any later operation can trigger a collection that would
		// reclaim them.
		out := make([]*BDD, len(refs))
		for i, r := range refs {
			if r != node.Nil {
				out[i] = m.wrap(r)
			}
		}
		return out, err
	}
	out := make([]*BDD, len(refs))
	for i, r := range refs {
		out[i] = m.wrap(r)
	}
	return out, nil
}

// ApplyCtx computes f <kind> g with cooperative cancellation (see
// ApplyBatchCtx).
func (m *Manager) ApplyCtx(ctx context.Context, kind BatchOpKind, f, g *BDD) (*BDD, error) {
	f.mustShareManager(g)
	if f.m != m {
		panic("bfbdd: ApplyCtx operand from another manager")
	}
	b := m.startBuild(ctx)
	r, err := m.k.ApplyCtx(ctx, kind.op(), f.ref(), g.ref())
	m.endBuild(b)
	if err != nil {
		return nil, err
	}
	return m.wrap(r), nil
}

// binOps validates the batch and lowers it to kernel operations.
func (m *Manager) binOps(ops []BatchOp) []core.BinOp {
	bin := make([]core.BinOp, len(ops))
	for i, op := range ops {
		op.F.mustShareManager(op.G)
		if op.F.m != m {
			panic("bfbdd: ApplyBatch operand from another manager")
		}
		bin[i] = core.BinOp{Op: op.Kind.op(), F: op.F.ref(), G: op.G.ref()}
	}
	return bin
}
