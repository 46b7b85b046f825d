package node

import "sync/atomic"

// Node is one BDD internal vertex. Low is the 0-branch child and High the
// 1-branch child. The unique tables keep their own slot arrays, so a node
// carries no link field.
//
// The node deliberately carries no variable field: a node's variable is
// implied by the arena (and thus the Ref) that holds it, which is how the
// paper's per-variable node managers cluster same-variable nodes.
type Node struct {
	Low, High Ref
}

const (
	// BlockShift determines the arena block size (nodes per block).
	BlockShift = 12
	// BlockSize is the number of nodes allocated per block.
	BlockSize = 1 << BlockShift
	blockMask = BlockSize - 1
)

// NodeBytes is the in-memory footprint of one Node, used for the memory
// accounting that reproduces the paper's Figure 9/10.
const NodeBytes = 16

// Arena is a block-structured allocator for the nodes of one
// (worker, variable) pair. Nodes are allocated contiguously within blocks
// so that walking an arena touches memory sequentially — the paper's
// "allocating memory in terms of blocks and allocat[ing] BDD nodes
// contiguously within each block".
//
// Concurrency contract: exactly one worker (the owner) allocates; any
// worker may concurrently read nodes whose refs were published to it
// through a synchronizing channel (a unique-table lock, an operator
// node's atomic state word, or a context registration mutex). To make
// owner appends safe against concurrent reads, the block table is
// immutable and replaced copy-on-write through an atomic pointer — a
// reader holding an old table can still resolve every ref published to
// it. The remaining fields (n, free lists, marks) are touched only by the
// owner or at phase barriers.
type Arena struct {
	blocks atomic.Pointer[[][]Node]
	n      uint64

	// marks is the GC mark bitmap, one bit per node slot. It is sized by
	// PrepareMarks before a collection and accessed with atomic word
	// operations by the collector (nodes of one arena can be marked by any
	// worker whose nodes point at them).
	marks []uint64

	// free is the head of the free list (index+1, 0 = empty) used by the
	// non-compacting free-list GC policy. Freed slots chain through the
	// Low field, reinterpreted as an index+1 value.
	free uint64

	// nFree counts slots currently on the free list.
	nFree uint64

	// mapped is set while the arena's blocks alias a read-only file
	// mapping installed by the spill tier. A mapped arena serves reads
	// (At/Low/High traversal) exactly like a heap arena, but allocation
	// and free-list writes are forbidden until the tier swaps heap blocks
	// back in. Read by any goroutine (resident-byte accounting, alloc
	// guards), written only under the tier's spill serialization.
	mapped atomic.Bool
}

// Len returns the number of slots ever allocated (including freed slots
// when the free-list policy is in use).
func (a *Arena) Len() uint64 { return a.n }

// Live returns the number of allocated, non-freed slots.
func (a *Arena) Live() uint64 { return a.n - a.nFree }

// loadBlocks returns the current immutable block table (may be nil).
func (a *Arena) loadBlocks() [][]Node {
	if p := a.blocks.Load(); p != nil {
		return *p
	}
	return nil
}

// Bytes returns the memory footprint of the arena's node storage,
// whether the blocks are heap-resident or a spill-file mapping.
func (a *Arena) Bytes() uint64 {
	return uint64(len(a.loadBlocks())) * BlockSize * NodeBytes
}

// Mapped reports whether the arena's blocks currently alias a read-only
// spill-file mapping rather than heap memory.
func (a *Arena) Mapped() bool { return a.mapped.Load() }

// residentBytes is Bytes for a heap arena and zero for a mapped one.
func (a *Arena) residentBytes() uint64 {
	if a.mapped.Load() {
		return 0
	}
	return a.Bytes()
}

// ExportBlocks hands the spill tier the arena's current block table and
// allocator state. The returned slice is the live table — callers must
// treat it as read-only. Only valid at a quiescent boundary (no build in
// flight) under the tier's serialization.
func (a *Arena) ExportBlocks() (blocks [][]Node, n, free, nFree uint64) {
	return a.loadBlocks(), a.n, a.free, a.nFree
}

// AdoptBlocks installs a replacement block table — either a read-only
// spill mapping (mapped=true) or heap blocks copied back from a spill
// file (mapped=false) — while preserving the allocator state captured by
// ExportBlocks. The table is swapped atomically, so concurrent readers
// that loaded the old table keep resolving refs through it; both tables
// hold identical node payloads, which is what makes the swap safe
// mid-traversal. Marks are dropped: GC always re-prepares them, and a
// mapped arena must never be collected anyway.
func (a *Arena) AdoptBlocks(blocks [][]Node, n, free, nFree uint64, mapped bool) {
	if len(blocks) == 0 {
		a.blocks.Store(nil)
	} else {
		a.blocks.Store(&blocks)
	}
	a.n = n
	a.free = free
	a.nFree = nFree
	a.marks = nil
	a.mapped.Store(mapped)
}

// At returns the node at index i. It panics (via slice bounds) if i was
// never allocated.
func (a *Arena) At(i uint64) *Node {
	return &a.loadBlocks()[i>>BlockShift][i&blockMask]
}

// Alloc allocates a new node slot initialized to (low, high) and returns
// its index. If the free-list has entries they are reused first. Only the
// owning worker may call Alloc. The store's arenas allocate through
// Store.NewNode instead, which counts the node and any block it adds.
func (a *Arena) Alloc(low, high Ref) uint64 {
	i, _ := a.alloc(low, high)
	return i
}

// alloc is Alloc, also reporting whether it appended a block.
func (a *Arena) alloc(low, high Ref) (i uint64, grew bool) {
	if a.mapped.Load() {
		panic("node: allocation into mapped (spilled) arena")
	}
	if a.free != 0 {
		i = a.free - 1
		nd := a.At(i)
		a.free = uint64(nd.Low)
		a.nFree--
		nd.Low, nd.High = low, high
		return i, false
	}
	i = a.n
	bs := a.loadBlocks()
	if grew = i>>BlockShift == uint64(len(bs)); grew {
		// Copy-on-write: concurrent readers keep resolving old indices
		// through the table they already loaded.
		nb := make([][]Node, len(bs)+1)
		copy(nb, bs)
		nb[len(bs)] = make([]Node, BlockSize)
		a.blocks.Store(&nb)
		bs = nb
	}
	a.n++
	nd := &bs[i>>BlockShift][i&blockMask]
	nd.Low, nd.High = low, high
	return i, grew
}

// Free pushes slot i onto the free list (free-list GC policy only). The
// slot's fields are overwritten: Low holds the next free slot (index+1)
// and High is Nil. Callers must have already removed the node from its
// unique table.
func (a *Arena) Free(i uint64) {
	if a.mapped.Load() {
		panic("node: free into mapped (spilled) arena")
	}
	nd := a.At(i)
	nd.Low, nd.High = Ref(a.free), Nil
	a.free = i + 1
	a.nFree++
}

// Reset drops all nodes but keeps the allocated blocks for reuse.
func (a *Arena) Reset() {
	a.n = 0
	a.free = 0
	a.nFree = 0
}

// ReleaseBlocks drops node storage entirely, returning memory to the Go
// runtime. Used after compaction replaces an arena.
func (a *Arena) ReleaseBlocks() {
	a.blocks.Store(nil)
	a.n = 0
	a.free = 0
	a.nFree = 0
	a.marks = nil
	a.mapped.Store(false)
}

// ReplaceWith moves b's storage into a (and resets b), used by the
// compacting collector to swap in a freshly built arena. Arenas contain
// an atomic field and must not be copied by value.
func (a *Arena) ReplaceWith(b *Arena) {
	a.blocks.Store(b.blocks.Load())
	a.n = b.n
	a.free = b.free
	a.nFree = b.nFree
	a.marks = b.marks
	a.mapped.Store(b.mapped.Load())
	b.ReleaseBlocks()
}

// PrepareMarks (re)sizes and clears the mark bitmap for a collection.
func (a *Arena) PrepareMarks() {
	words := int((a.n + 63) / 64)
	if cap(a.marks) < words {
		a.marks = make([]uint64, words)
		return
	}
	a.marks = a.marks[:words]
	for i := range a.marks {
		a.marks[i] = 0
	}
}

// Marked reports whether slot i is marked. Safe for concurrent use with
// MarkAtomic on distinct or equal slots.
func (a *Arena) Marked(i uint64) bool {
	return a.marks[i>>6]&(1<<(i&63)) != 0
}

// MarkWord exposes the mark bitmap word containing slot i and the bit
// within it, for the collector's atomic mark operation.
func (a *Arena) MarkWord(i uint64) (word *uint64, bit uint64) {
	return &a.marks[i>>6], 1 << (i & 63)
}
