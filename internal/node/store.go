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
// The store also counts, per worker, live nodes and heap-resident block
// bytes, so usage reads in O(workers) instead of walking the worker×level
// arena matrix. NewNode and AdoptBlocks keep the counts, and SyncLive
// recomputes them from the arenas after a collection.
type Store struct {
	workers int
	levels  int
	arenas  [][]Arena // [worker][level]
	counts  []workerCounts
}

// workerCounts is padded to its own cache line so per-worker allocation
// bursts do not false-share.
type workerCounts struct {
	live  atomic.Uint64
	bytes atomic.Int64 // heap-resident node blocks
	_     [6]uint64
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
	s.counts = make([]workerCounts, workers)
	return s
}

// ApproxLive returns the live node count kept by NewNode and SyncLive.
// Only a collection frees nodes, and it ends with SyncLive, so the count
// is exact everywhere but inside a collection, where it can drift above
// the true figure (the safe direction for budget enforcement).
func (s *Store) ApproxLive() uint64 {
	var total uint64
	for w := range s.counts {
		total += s.counts[w].live.Load()
	}
	return total
}

// ResidentBytes returns the bytes of node blocks on the heap, excluding
// levels whose blocks alias a read-only spill mapping (those bytes are
// the OS page cache's to keep or drop). Safe during a build.
func (s *Store) ResidentBytes() uint64 {
	var total int64
	for w := range s.counts {
		total += s.counts[w].bytes.Load()
	}
	return uint64(total)
}

// SyncLive recomputes the per-worker live counts and resident bytes
// exactly from the arenas. Callers must be quiescent with respect to
// allocation (it ends every collection, which moves and frees nodes).
func (s *Store) SyncLive() {
	for w := range s.arenas {
		var n, b uint64
		for l := range s.arenas[w] {
			a := &s.arenas[w][l]
			n += a.Live()
			b += a.residentBytes()
		}
		s.counts[w].live.Store(n)
		s.counts[w].bytes.Store(int64(b))
	}
}

// AdoptBlocks is Arena.AdoptBlocks on (worker, level), counting the
// change in heap-resident bytes. The spill tier calls it, mid-build too,
// from any worker.
func (s *Store) AdoptBlocks(worker, level int, blocks [][]Node, n, free, nFree uint64, mapped bool) {
	a := &s.arenas[worker][level]
	before := a.residentBytes()
	a.AdoptBlocks(blocks, n, free, nFree, mapped)
	s.counts[worker].bytes.Add(int64(a.residentBytes()) - int64(before))
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
// not consult any unique table; that is the caller's responsibility. Only
// the worker that owns the arena row may call it.
func (s *Store) NewNode(worker, level int, low, high Ref) Ref {
	idx, grew := s.arenas[worker][level].alloc(low, high)
	c := &s.counts[worker]
	c.live.Add(1)
	if grew {
		c.bytes.Add(BlockSize * NodeBytes)
	}
	return MakeRef(level, worker, idx)
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

// NumNodes returns the total count of live nodes across all arenas,
// walking every arena; ApproxLive reads the same figure from the counts.
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
