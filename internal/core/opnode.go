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
	opQueued  uint32 = iota // sitting in a context group, unowned
	opClaimed               // owned by a worker's pending queue
	opDone                  // Result is valid
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
// Like the BDD node arenas, it allocates in blocks and is walked
// contiguously, which is what makes the breadth-first queues cache
// friendly; the arena itself doubles as backing storage for both the
// operator queue and the reduce queue.
//
// Only the owning worker allocates, but any peer resolves operator nodes
// through at while the owner keeps allocating. The block table is
// therefore published through an atomic pointer: the owner never writes
// a table header a peer can load, only appends into slots past every
// published length and stores a fresh header (see grow).
type opArena struct {
	blocks atomic.Pointer[[]*opBlock]
	n      uint32
}

type opBlock [opBlockSize]opNode

// alloc allocates an operator node, reporting whether it added a block.
func (a *opArena) alloc(op Op, f, g node.Ref) (idx uint32, grew bool) {
	i := a.n
	if grew = i&opBlockMask == 0 && int(i>>opBlockShift) == a.numBlocks(); grew {
		a.grow()
	}
	a.n++
	nd := a.at(i)
	nd.op, nd.f, nd.g = op, f, g
	nd.b0, nd.b1 = 0, 0
	nd.result.Store(uint64(node.Nil))
	nd.state.Store(opClaimed)
	return i, grew
}

// grow publishes a block table one block longer.
func (a *opArena) grow() {
	var t []*opBlock
	if old := a.blocks.Load(); old != nil {
		t = *old
	}
	t = append(t, new(opBlock))
	a.blocks.Store(&t)
}

func (a *opArena) at(i uint32) *opNode {
	return &(*a.blocks.Load())[i>>opBlockShift][i&opBlockMask]
}

func (a *opArena) numBlocks() int {
	if t := a.blocks.Load(); t != nil {
		return len(*t)
	}
	return 0
}

// reset drops all operator nodes, gives back every block past the first
// keep and returns the bytes the arena held. A block kept for the next
// operation counts in that operation's peak whether it needs the block
// or not; a one-block floor lets a run of small operations reuse their
// block instead of allocating it each time. reset runs only at
// quiescence, when no peer holds the table it shortens.
func (a *opArena) reset(keep int) uint64 {
	held := a.bytes()
	if t := a.blocks.Load(); t != nil && len(*t) > keep {
		s := *t
		clear(s[keep:])
		s = s[:keep]
		a.blocks.Store(&s)
	}
	a.n = 0
	return held
}

func (a *opArena) bytes() uint64 { return uint64(a.numBlocks()) * opBlockBytes }
