// Package cache implements the compute cache of the hybrid/partial
// breadth-first algorithm: a lossy, direct-mapped table that stores both
// computed operations (result is a BDD ref) and uncomputed operations
// (result is a handle to an operator node still awaiting its reduction).
//
// Following the paper (§3.2), the cache is private to a worker — sharing
// would require synchronization on every lookup — and, following the
// per-variable data layout (§3.1), it is segmented by the operation's top
// variable so that cache probes during the expansion of variable x touch
// only x's segment.
//
// Every entry dies at a garbage collection, which moves or frees nodes,
// so the collector calls Rebuild: each segment gets fresh, empty storage
// at half its size and does not keep its high-water size for good.
// Between collections only op-handle entries go stale, lazily, when the
// op generation advances at a top-level boundary (operator arenas are
// recycled once a top-level operation completes).
//
// Each segment starts at 2^8 entries and doubles, up to the cache's max
// bits, once its live conflicts outnumber its slots. A live conflict is an
// insert that evicts a live entry holding a different key. Filling an
// empty or stale slot, or rewriting the same key, is not one: otherwise a
// long build or session, whose op-handle entries all go stale at every
// top-level boundary, would grow its segments to the cap with the number
// of inserts it ever made rather than with its working set.
package cache

import (
	"sync/atomic"
	"unsafe"

	"bfbdd/internal/node"
)

// Tagged is a tagged result word: either a node.Ref (bit 63 clear) or an
// operator-node handle (bit 63 set). The core package defines the handle
// encoding; the cache only preserves the tag.
type Tagged uint64

// IsOpHandle reports whether v holds an operator-node handle.
func (v Tagged) IsOpHandle() bool { return v>>63 == 1 }

// Ref returns the BDD ref stored in v. Only valid when !IsOpHandle.
func (v Tagged) Ref() node.Ref { return node.Ref(v) }

// FromRef wraps a BDD ref as a tagged word.
func FromRef(r node.Ref) Tagged { return Tagged(r) }

type entry struct {
	f, g node.Ref
	val  Tagged
	op   uint8
	gen  uint32 // op generation of an op-handle val; unused for a ref
}

const (
	emptyF     = node.Nil // sentinel: entry unused
	entryBytes = uint64(unsafe.Sizeof(entry{}))

	// initialBits sizes a fresh per-variable segment at 2^initialBits.
	initialBits = 8
)

type segment struct {
	entries []entry
	mask    uint64
	// pressure counts live conflicts since the last resize: inserts that
	// evicted a live entry with a different (op, f, g). When it exceeds
	// the segment size the segment doubles (up to the cache's max bits),
	// so segments grow with the working set, not the number of inserts.
	pressure uint64
}

// Cache is one worker's compute cache, segmented by variable level. It
// is one 64-byte cache line (TestHotStructSizes in internal/core).
type Cache struct {
	segs []segment
	// bytes is the segments' footprint. The owner writes it as segments
	// are replaced; peers read it for the budget poll.
	bytes   atomic.Int64
	maxBits uint8
	opGen   uint32

	hits, misses, inserts uint64
}

// New creates a cache with one segment per level. maxBits bounds each
// segment at 2^maxBits entries.
func New(levels int, maxBits uint) *Cache {
	maxBits = min(max(maxBits, initialBits), 63)
	return &Cache{segs: make([]segment, levels), maxBits: uint8(maxBits)}
}

// Hits, Misses and Inserts return lookup/insert counters.
func (c *Cache) Hits() uint64    { return c.hits }
func (c *Cache) Misses() uint64  { return c.misses }
func (c *Cache) Inserts() uint64 { return c.inserts }

// InvalidateOps advances the op generation: every entry whose value is an
// operator-node handle becomes stale. Called when operator arenas are
// recycled at the end of a top-level operation.
func (c *Cache) InvalidateOps() { c.opGen++ }

// Bytes returns the cache's memory footprint. Safe to call from any
// goroutine.
func (c *Cache) Bytes() uint64 { return uint64(c.bytes.Load()) }

// Rebuild drops every entry, which a garbage collection leaves stale.
// Each segment gets fresh storage at half its size; one that would fall
// below 2^8 entries is freed until its next Insert.
func (c *Cache) Rebuild() { c.rebuild(1 << c.maxBits) }

// Shrink is Rebuild with a ceiling of zero entries: it frees every
// segment and returns the bytes released. It is the budget ladder's rung
// between an early GC and an abort (the cache is lossy, so dropping it
// only costs recomputation); like Rebuild, it runs only at quiescent
// boundaries, with no in-flight build's op handles to lose.
func (c *Cache) Shrink() uint64 { return c.rebuild(0) }

// rebuild gives each segment fresh, empty storage at half its size, at
// most ceil entries, and frees one that would fall below 2^8.
func (c *Cache) rebuild(ceil int) uint64 {
	before := c.Bytes()
	for i := range c.segs {
		n := min(len(c.segs[i].entries)/2, ceil)
		if n < 1<<initialBits {
			n = 0
		}
		c.setSegment(&c.segs[i], n)
	}
	return before - c.Bytes()
}

// setSegment gives s fresh, empty storage for n entries (none when n is
// 0) and moves the size difference into the cache's byte count.
func (c *Cache) setSegment(s *segment, n int) {
	c.bytes.Add(int64(n-len(s.entries)) * int64(entryBytes))
	if n == 0 {
		*s = segment{}
		return
	}
	*s = segment{entries: make([]entry, n), mask: uint64(n) - 1}
	for i := range s.entries {
		s.entries[i].f = emptyF
	}
}

func hash3(op uint8, f, g node.Ref) uint64 {
	h := uint64(f)*0x9E3779B97F4A7C15 + uint64(g)*0xC2B2AE3D27D4EB4F + uint64(op)*0x165667B19E3779F9
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 29
	return h
}

// live reports whether e holds an entry that has not gone stale.
func (c *Cache) live(e *entry) bool {
	return e.f != emptyF && (!e.val.IsOpHandle() || e.gen == c.opGen)
}

// Lookup returns the cached result for (op, f, g) at the given level, if
// present and current.
func (c *Cache) Lookup(level int, op uint8, f, g node.Ref) (Tagged, bool) {
	s := &c.segs[level]
	if s.entries == nil {
		c.misses++
		return 0, false
	}
	e := &s.entries[hash3(op, f, g)&s.mask]
	if e.f == f && e.g == g && e.op == op && c.live(e) {
		c.hits++
		return e.val, true
	}
	c.misses++
	return 0, false
}

// Insert records the result for (op, f, g) at the given level, evicting
// whatever occupied the slot. Direct-mapped and lossy by design: the
// hybrid algorithm deliberately bounds cache memory rather than keeping a
// complete table of uncomputed operations.
func (c *Cache) Insert(level int, op uint8, f, g node.Ref, val Tagged) {
	s := &c.segs[level]
	if s.entries == nil {
		c.setSegment(s, 1<<initialBits)
	} else if s.pressure > uint64(len(s.entries)) && uint64(len(s.entries)) < 1<<c.maxBits {
		c.growSegment(s)
	}
	c.inserts++
	e := &s.entries[hash3(op, f, g)&s.mask]
	if c.live(e) && (e.op != op || e.f != f || e.g != g) {
		s.pressure++
	}
	e.op, e.f, e.g, e.val, e.gen = op, f, g, val, c.opGen
}

// growSegment doubles a segment, rehashing live entries.
func (c *Cache) growSegment(s *segment) {
	old := s.entries
	c.setSegment(s, len(old)*2)
	for i := range old {
		if e := &old[i]; c.live(e) {
			s.entries[hash3(e.op, e.f, e.g)&s.mask] = *e
		}
	}
}

// Update rewrites the cached value for (op, f, g) if the entry is still
// present, e.g. to replace an uncomputed op handle with its final BDD ref
// so later probes skip the operator node.
func (c *Cache) Update(level int, op uint8, f, g node.Ref, val Tagged) {
	s := &c.segs[level]
	if s.entries == nil {
		return
	}
	e := &s.entries[hash3(op, f, g)&s.mask]
	if e.f == f && e.g == g && e.op == op {
		e.val, e.gen = val, c.opGen
	}
}
