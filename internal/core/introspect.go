package core

import (
	"bfbdd/internal/node"
)

// CanonicalSignature returns a deterministic, manager-independent
// encoding of the multi-rooted BDD reachable from roots. Refs are only
// meaningful inside their own kernel (they pack arena coordinates), so
// canonical handles from two managers cannot be compared directly; the
// signature re-numbers nodes in a traversal order that depends only on
// the diagram's structure, making the encodings comparable across
// managers.
//
// Nodes are numbered by completion order of a depth-first traversal of
// the roots in argument order (low child explored before high). Codes 0
// and 1 are the terminals; the i-th internal node to complete gets code
// i+2, and its triple (level, lowCode, highCode) sits at sig[3(i)] —
// so the layout is [triples for nodes 2..n+1, then one code per root].
//
// Because BDDs are canonical, two kernels over the same variable order
// produce equal signatures exactly when the corresponding roots denote
// the same Boolean functions. This is the cross-engine comparison hook
// used by the differential oracle (internal/oracle).
func (k *Kernel) CanonicalSignature(roots []node.Ref) []uint64 {
	k.ensureReadable()
	code := node.NewTable[uint64](k.store)
	var sig []uint64
	next := uint64(2)
	var visit func(r node.Ref) uint64
	visit = func(r node.Ref) uint64 {
		if r.IsZero() {
			return 0
		}
		if r.IsOne() {
			return 1
		}
		if c := code.Get(r); c != 0 {
			return c
		}
		nd := k.store.Node(r)
		lo := visit(nd.Low)
		hi := visit(nd.High)
		c := next
		next++
		*code.At(r) = c
		sig = append(sig, uint64(r.Level()), lo, hi)
		return c
	}
	for _, r := range roots {
		sig = append(sig, visit(r))
	}
	return sig
}

// SetBudget replaces the kernel's node and byte budgets at a top-level
// operation boundary (0 disables the corresponding limit). Disabling the
// budget also lifts any threshold degradation still in effect. The
// differential oracle uses this to probe budget-abort recovery in the
// middle of an operation sequence; like every other kernel call it must
// not race with a build in flight.
func (k *Kernel) SetBudget(maxNodes, maxBytes uint64) {
	k.checkOpen()
	k.opts.MaxNodes, k.opts.MaxBytes = maxNodes, maxBytes
	k.budget.init(k.opts)
	if !k.budget.enabled {
		k.budget.degraded.Store(false)
		k.effThreshold.Store(int64(k.opts.EvalThreshold))
	}
}
