package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"bfbdd/internal/node"
)

// TestOpArenaPublishRace is the operator-arena half of a steal: the owner
// keeps allocating, growing its block table, while peers resolve operator
// nodes it has already published, as stallHelp and runIsolated do. Run
// under -race, it fails if a peer can read the block table while the
// owner writes it.
func TestOpArenaPublishRace(t *testing.T) {
	var a opArena
	allocWhileRead(t, &a, 8*opBlockSize, nil)
	if got, want := a.bytes(), uint64(8*opBlockSize*opNodeBytes); got != want {
		t.Errorf("bytes = %d, want %d", got, want)
	}
}

// TestOpArenaTrimRace grows an arena, truncates it to one block, as a
// released scope does, and grows it again from the freed blocks while
// peers read the next nodes. The regrown table is the truncated one, so
// under -race this fails if the slots truncate cleared can be read while
// the owner refills them.
func TestOpArenaTrimRace(t *testing.T) {
	var a opArena
	allocWhileRead(t, &a, 8*opBlockSize, nil)
	free := a.truncate(opBlockSize, nil)
	if len(free) != 7 {
		t.Errorf("truncate freed %d blocks, want 7", len(free))
	}
	if got, want := a.bytes(), uint64(opBlockSize*opNodeBytes); got != want {
		t.Errorf("bytes after truncate = %d, want one block, %d", got, want)
	}
	table := a.blocks.Load()
	allocWhileRead(t, &a, 5*opBlockSize, free)
	if got, want := a.bytes(), uint64(6*opBlockSize*opNodeBytes); got != want {
		t.Errorf("bytes after regrowth = %d, want %d", got, want)
	}
	if a.blocks.Load() != table {
		t.Error("regrowth within the table's length replaced the table")
	}
}

// allocWhileRead allocates total more operator nodes into a, taking
// blocks from free before the Go heap, while two peers read back each
// node the owner has published.
func allocWhileRead(t *testing.T, a *opArena, total uint32, free []*opBlock) {
	t.Helper()
	start := a.n
	var published atomic.Uint32
	published.Store(start)
	end := start + total
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := published.Load()
				if n > start && a.at(n-1).f != node.Ref(n-1) {
					t.Errorf("operator node %d: f = %d, want %d", n-1, a.at(n-1).f, n-1)
					return
				}
				if n == end {
					return
				}
			}
		}()
	}
	for i := start; i < end; i++ {
		if i&opBlockMask == 0 {
			b := new(opBlock)
			if len(free) > 0 {
				b, free = free[0], free[1:]
			}
			a.grow(b)
		}
		a.alloc(OpAnd, node.Ref(i), node.Ref(i))
		published.Store(i + 1)
	}
	wg.Wait()
}
