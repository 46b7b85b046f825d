package node

import (
	"fmt"
	"sync/atomic"
)

// Store owns all BDD node storage for one manager: a matrix of arenas
// indexed by (worker, level). Worker 0 exists even in sequential mode; the
// parallel engine gives each of its P workers its own arena row so that
// node creation during the reduction phase allocates from worker-local
// memory (the paper's per-process BDD-node managers).
//
// The store also keeps a per-worker approximate live-node counter so that
// budget enforcement can poll total usage in O(workers) instead of walking
// the full worker×level arena matrix. Allocation sites bump the counter of
// the allocating worker (own-cacheline slot, no contention); SyncLive
// recomputes the exact figure from the arenas at collection boundaries.
type Store struct {
	workers int
	levels  int
	arenas  [][]Arena // [worker][level]
	live    []liveCounter
}

// liveCounter is padded to its own cache line so per-worker allocation
// bursts do not false-share.
type liveCounter struct {
	n atomic.Uint64
	_ [7]uint64
}

// NewStore creates a store for the given worker count and variable count.
func NewStore(workers, levels int) *Store {
	if workers < 1 || workers > MaxWorkers {
		panic(fmt.Sprintf("node: worker count %d out of range [1,%d]", workers, MaxWorkers))
	}
	if levels < 0 || levels >= MaxLevels {
		panic(fmt.Sprintf("node: level count %d out of range [0,%d)", levels, MaxLevels))
	}
	s := &Store{workers: workers, levels: levels}
	s.arenas = make([][]Arena, workers)
	for w := range s.arenas {
		s.arenas[w] = make([]Arena, levels)
	}
	s.live = make([]liveCounter, workers)
	return s
}

// NoteAlloc records one node allocation by worker in the approximate
// live counter. Call sites that allocate through an Arena directly (the
// unique tables, NewNode) must pair every Alloc with a NoteAlloc.
func (s *Store) NoteAlloc(worker int) { s.live[worker].n.Add(1) }

// ApproxLive returns the live node count maintained by NoteAlloc/SyncLive.
// Only a collection frees nodes, and it ends with SyncLive, so the count
// is exact everywhere but inside a collection, where it can drift above
// the true figure (the safe direction for budget enforcement).
func (s *Store) ApproxLive() uint64 {
	var total uint64
	for w := range s.live {
		total += s.live[w].n.Load()
	}
	return total
}

// SyncLive recomputes the per-worker live counters exactly from the
// arenas. Callers must be quiescent with respect to allocation (it runs
// at GC and top-level-operation boundaries).
func (s *Store) SyncLive() {
	for w := range s.arenas {
		var n uint64
		for l := range s.arenas[w] {
			n += s.arenas[w][l].Live()
		}
		s.live[w].n.Store(n)
	}
}

// Workers returns the number of worker arena rows.
func (s *Store) Workers() int { return s.workers }

// Levels returns the number of variable levels.
func (s *Store) Levels() int { return s.levels }

// Arena returns the arena for (worker, level).
func (s *Store) Arena(worker, level int) *Arena { return &s.arenas[worker][level] }

// Node resolves a non-terminal Ref to its node. The caller must ensure r
// is a valid non-terminal reference.
func (s *Store) Node(r Ref) *Node {
	return s.arenas[r.Worker()][r.Level()].At(r.Index())
}

// Low returns the 0-branch cofactor of r with respect to level: r's low
// child if r's root is at level, else r itself (the variable does not
// appear in r, so both cofactors are r).
func (s *Store) Low(r Ref, level int) Ref {
	if r.Level() == level {
		return s.Node(r).Low
	}
	return r
}

// High returns the 1-branch cofactor of r with respect to level.
func (s *Store) High(r Ref, level int) Ref {
	if r.Level() == level {
		return s.Node(r).High
	}
	return r
}

// NewNode allocates a node at (worker, level) and returns its Ref. It does
// not consult any unique table; that is the caller's responsibility.
func (s *Store) NewNode(worker, level int, low, high Ref) Ref {
	idx := s.arenas[worker][level].Alloc(low, high)
	s.NoteAlloc(worker)
	return MakeRef(level, worker, idx)
}

// Bytes returns the total node-storage footprint across all arenas.
func (s *Store) Bytes() uint64 {
	var total uint64
	for w := range s.arenas {
		for l := range s.arenas[w] {
			total += s.arenas[w][l].Bytes()
		}
	}
	return total
}

// ResidentBytes returns the heap node-storage footprint across all
// arenas, excluding levels whose blocks currently alias a read-only
// spill mapping.
func (s *Store) ResidentBytes() uint64 {
	var total uint64
	for w := range s.arenas {
		for l := range s.arenas[w] {
			total += s.arenas[w][l].ResidentBytes()
		}
	}
	return total
}

// LevelBytes returns the node-storage footprint of one variable level
// summed across workers, and whether any of its arenas are mapped to a
// spill file. All workers' arenas at a level spill together, so mapped
// is uniform across the level in practice.
func (s *Store) LevelBytes(level int) (bytes uint64, mapped bool) {
	for w := 0; w < s.workers; w++ {
		bytes += s.arenas[w][level].Bytes()
		mapped = mapped || s.arenas[w][level].Mapped()
	}
	return bytes, mapped
}

// NumNodes returns the total count of live nodes across all arenas.
func (s *Store) NumNodes() uint64 {
	var total uint64
	for w := range s.arenas {
		for l := range s.arenas[w] {
			total += s.arenas[w][l].Live()
		}
	}
	return total
}

// NodesAtLevel returns the live node count for one variable level summed
// across workers.
func (s *Store) NodesAtLevel(level int) uint64 {
	var total uint64
	for w := 0; w < s.workers; w++ {
		total += s.arenas[w][level].Live()
	}
	return total
}
