package core

import (
	"sync/atomic"
	"unsafe"

	"bfbdd/internal/cache"
	"bfbdd/internal/node"
)

// Operator-node states. An operator node is created claimed by the worker
// whose expansion produced it; a context push releases the still-unexpanded
// remainder into stealable groups; claiming (by the owner draining its own
// groups, by a cache hit, or by a thief) happens with a CAS so exactly one
// worker expands and reduces each node.
const (
	opQueued   uint32 = iota // sitting in a context group, unowned
	opClaimed                // owned by a worker's pending queue
	opDone                   // Result is valid
	opReleased               // given back by a scope (Kernel.verifyScopes only)
)

// opNode is one pending Shannon expansion: the paper's operator node, with
// branch0/branch1 holding either BDD refs or references to child operator
// nodes, and result filled in by the reduction phase.
//
// Cross-worker protocol: only the claiming worker writes f/g/b0/b1; other
// workers read result only after observing state == opDone (release /
// acquire pairing via state). The result itself is atomic because a
// worker stalled on a claimed operator node may escalate and compute the
// value depth-first (see worker.forceResolve): both writers store the
// same canonical ref, and publishing through state keeps readers correct
// whichever store lands first.
type opNode struct {
	f, g   node.Ref
	b0, b1 cache.Tagged
	result atomic.Uint64 // holds a node.Ref
	state  atomic.Uint32
	op     Op
}

// setResult publishes the operator node's result.
func (o *opNode) setResult(r node.Ref) {
	o.result.Store(uint64(r))
	o.state.Store(opDone)
}

// resultRef reads the published result; valid only after state == opDone.
func (o *opNode) resultRef() node.Ref { return node.Ref(o.result.Load()) }

// opNodeBytes is the footprint of one operator node for the memory
// accounting (Fig 9/10).
const opNodeBytes = uint64(unsafe.Sizeof(opNode{}))

// opRef is a packed handle to an operator node: bit 63 set (so it is
// distinguishable from a node.Ref inside a cache.Tagged word), owner
// worker in bits 48..55, level in bits 32..47, arena index in bits 0..31.
type opRef uint64

func makeOpRef(worker, level int, idx uint32) opRef {
	return opRef(1)<<63 | opRef(worker)<<48 | opRef(level)<<32 | opRef(idx)
}

func (r opRef) worker() int   { return int(r>>48) & 0xFF }
func (r opRef) level() int    { return int(r>>32) & 0xFFFF }
func (r opRef) index() uint32 { return uint32(r) }

func (r opRef) tagged() cache.Tagged { return cache.Tagged(r) }

const (
	opBlockShift = 10
	opBlockSize  = 1 << opBlockShift
	opBlockMask  = opBlockSize - 1
	opBlockBytes = opBlockSize * opNodeBytes
)

// opArena is the operator-node manager for one (worker, variable) pair.
// Like the BDD node arenas, it allocates in blocks, so the nodes one
// expansion creates at a level sit side by side, in the order the level's
// pending queue and the worker's reduce stack hold their handles. Its
// blocks come from, and go back to, the owning worker's pool (see
// worker.newOpBlock and worker.truncateOps).
//
// Only the owning worker allocates, but any peer resolves operator nodes
// through at while the owner keeps allocating. The block table is
// therefore published through an atomic pointer, and the owner writes
// only table slots no peer reads: those past the arena's last node when
// it grows, those past the truncation point when it shrinks. A table is
// replaced, by a copy twice as long, only when it is full, so an arena
// that shrinks and regrows does not allocate.
type opArena struct {
	blocks atomic.Pointer[[]*opBlock] // the arena's blocks, then nil slots
	n      uint32
}

type opBlock [opBlockSize]opNode

// alloc allocates an operator node. At a block boundary (n a multiple
// of opBlockSize) the caller must first grow the arena by a block.
func (a *opArena) alloc(op Op, f, g node.Ref) uint32 {
	i := a.n
	a.n++
	nd := a.at(i)
	nd.op, nd.f, nd.g = op, f, g
	nd.b0, nd.b1 = 0, 0
	nd.result.Store(uint64(node.Nil))
	nd.state.Store(opClaimed)
	return i
}

// grow appends b to the block table, publishing a longer table first if
// this one is full.
func (a *opArena) grow(b *opBlock) {
	j := int(a.n >> opBlockShift)
	t := a.blocks.Load()
	if t == nil || j == len(*t) {
		nt := make([]*opBlock, max(2*j, 4))
		if t != nil {
			copy(nt, *t)
		}
		t = &nt
		a.blocks.Store(t)
	}
	(*t)[j] = b
}

func (a *opArena) at(i uint32) *opNode {
	return &(*a.blocks.Load())[i>>opBlockShift][i&opBlockMask]
}

// numBlocks is the number of blocks the arena holds: every block up to
// the one its last node sits in.
func (a *opArena) numBlocks() int { return int((a.n + opBlockMask) >> opBlockShift) }

// truncate drops every operator node from index n on and appends the
// blocks that held only dropped nodes to free. A peer may still read
// nodes below n.
func (a *opArena) truncate(n uint32, free []*opBlock) []*opBlock {
	keep, held := int((n+opBlockMask)>>opBlockShift), a.numBlocks()
	if held > keep {
		t := *a.blocks.Load()
		free = append(free, t[keep:held]...)
		clear(t[keep:held])
	}
	a.n = n
	return free
}

// Evaluation scopes (§3.1). The evaluation threshold bounds how many
// operator nodes one evaluation context expands, and a context's
// operator nodes are garbage once it has been reduced, so each nested
// evalCycle (a drained group, or a stolen one in runIsolated) runs as a
// scope that gives back, when it returns, every operator node allocated
// since it opened. A scope logs (level, length) the first time it
// allocates at a level, so opening and closing one costs in proportion
// to the levels it touched, not to the declared levels.
//
// Three things may still name a released node. The worker's compute
// cache: cachedOp checks a hit's key against the node it names. The
// nodes of the scopes still open: every node a scope expanded is
// reduced before it returns, and a reduced node is read only for its
// result, never for its branches. And a thief expanding or resolving a
// group stolen from a context pushed within the scope: while one does,
// the scope keeps its nodes (stolen counts such groups by the depth of
// their context) and the enclosing scope that finds none in flight
// gives them back. A context holds only its worker's own nodes (see
// pushContext), so a thief holds no node its victim's count misses.

// opMark is one undo-log entry: an operator arena's length when a scope
// first allocated in it.
type opMark struct {
	level, n uint32
}

// opScope is an open evaluation scope: the scope it nests in, and where
// its part of the undo log starts.
type opScope struct {
	parent uint64
	log    int
}

// maxScopeDepth bounds the per-depth stolen counters; contexts pushed
// deeper share the last one, which only makes scopes that deep keep
// their nodes more often.
const maxScopeDepth = 64

// allocOp allocates an operator node at lvl, logging the level for the
// open scope and taking a block from the pool at a block boundary.
func (w *worker) allocOp(lvl int, op Op, f, g node.Ref) opRef {
	a := &w.ops[lvl]
	if w.opLogged[lvl] != w.scope {
		w.opLogged[lvl] = w.scope
		w.opLog = append(w.opLog, opMark{uint32(lvl), a.n})
	}
	if a.n&opBlockMask == 0 {
		a.grow(w.newOpBlock())
	}
	return makeOpRef(w.id, lvl, a.alloc(op, f, g))
}

// newOpBlock takes a block from the pool, or from the Go heap when the
// pool is empty. Only a heap block adds to the account, so what the
// operator arenas and the pool hold together only grows during a
// top-level operation, and opPeak, raised here, is its high-water.
func (w *worker) newOpBlock() *opBlock {
	if n := len(w.pool); n > 0 {
		b := w.pool[n-1]
		w.pool[n-1] = nil
		w.pool = w.pool[:n-1]
		return b
	}
	w.opPeak = max(w.opPeak, w.opBytes.Add(opBlockBytes))
	return new(opBlock)
}

// cachedOp returns the operator node a compute-cache entry for
// (op, f, g) names, or nil when a scope has given it back: its slot is
// past the arena's end or holds another operation's node.
func (w *worker) cachedOp(h opRef, op Op, f, g node.Ref) *opNode {
	a := &w.ops[h.level()]
	if h.index() >= a.n {
		return nil
	}
	o := a.at(h.index())
	if o.op != op || o.f != f || o.g != g {
		return nil
	}
	return o
}

func (w *worker) newScope() uint64 {
	w.scopes++
	return w.scopes
}

// enterScope opens an evaluation scope one level deeper.
func (w *worker) enterScope() opScope {
	s := opScope{w.scope, len(w.opLog)}
	w.scope = w.newScope()
	w.depth++
	return s
}

// leaveScope closes s, giving back every operator node allocated since
// it opened unless a thief holds a group of a context pushed within it.
func (w *worker) leaveScope(s opScope) {
	w.depth--
	w.scope = s.parent
	for d := min(w.depth+1, maxScopeDepth-1); d < maxScopeDepth; d++ {
		if w.stolen[d].Load() != 0 {
			return
		}
	}
	if w.k.verifyScopes {
		w.quarantine(s.log)
		return
	}
	w.truncateOps(s.log)
}

// quarantine is truncateOps(from) for Kernel.verifyScopes: it checks
// that every node it gives back is reduced and marks it opReleased, and
// it sets the freed blocks aside instead of pooling them, for endOps to
// check that nothing wrote to them since.
func (w *worker) quarantine(from int) {
	for _, m := range w.opLog[from:] {
		a := &w.ops[m.level]
		for i := m.n; i < a.n; i++ {
			o := a.at(i)
			if st := o.state.Load(); st != opDone && st != opReleased { // an older entry repeats a level
				panic(internalf("leaveScope", "worker %d gives back unreduced operator node %d at level %d", w.id, i, m.level))
			}
			o.state.Store(opReleased)
		}
	}
	pooled := len(w.pool)
	w.truncateOps(from)
	for _, b := range w.pool[pooled:] {
		for i := range b { // the slots past the last node too
			b[i].state.Store(opReleased)
		}
	}
	w.released = append(w.released, w.pool[pooled:]...)
	w.pool = w.pool[:pooled]
}

// truncateOps undoes the log back to entry from, newest first, moving
// the blocks it frees to the pool.
func (w *worker) truncateOps(from int) {
	for i := len(w.opLog) - 1; i >= from; i-- {
		m := w.opLog[i]
		w.pool = w.ops[m.level].truncate(m.n, w.pool)
	}
	w.opLog = w.opLog[:from]
}

// endOps empties every operator arena at the end of a top-level
// operation and keeps in the pool one block for each level left in the
// undo log (at most one per level the operation touched), so a run of
// small operations draws every block from the pool.
func (w *worker) endOps() {
	for _, b := range w.released {
		for i := range b {
			if b[i].state.Load() != opReleased {
				panic(internalf("endTopLevel", "worker %d: an operator node was written after its scope gave it back", w.id))
			}
		}
	}
	w.pool = append(w.pool, w.released...)
	w.released = w.released[:0]
	stamp := w.newScope()
	keep := 0
	for _, m := range w.opLog {
		if w.opLogged[m.level] != stamp {
			w.opLogged[m.level] = stamp
			keep++
		}
	}
	w.truncateOps(0)
	w.scope = w.newScope()
	w.trimPool(keep)
}

// trimPool gives the pooled blocks past the first keep back to the Go
// heap; the arenas must be empty.
func (w *worker) trimPool(keep int) {
	if len(w.pool) > keep {
		clear(w.pool[keep:])
		w.pool = w.pool[:keep]
	}
	w.opBytes.Store(uint64(len(w.pool)) * opBlockBytes)
}
