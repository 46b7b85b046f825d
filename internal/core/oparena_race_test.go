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
	allocWhileRead(t, &a, 8*opBlockSize)
	if got, want := a.bytes(), uint64(8*opBlockSize*opNodeBytes); got != want {
		t.Errorf("bytes = %d, want %d", got, want)
	}
}

// TestOpArenaTrimRace grows an arena, has reset trim it to one block,
// and grows it again while peers read the next operation's nodes. The
// regrown table reuses the trimmed one's backing array, so under -race
// this fails if the slots reset cleared can be read while the owner
// refills them.
func TestOpArenaTrimRace(t *testing.T) {
	var a opArena
	allocWhileRead(t, &a, 8*opBlockSize)
	if got, want := a.reset(1), uint64(8*opBlockSize*opNodeBytes); got != want {
		t.Errorf("reset returned %d held bytes, want %d", got, want)
	}
	if got, want := a.bytes(), uint64(opBlockSize*opNodeBytes); got != want {
		t.Errorf("bytes after reset = %d, want one block, %d", got, want)
	}
	allocWhileRead(t, &a, 6*opBlockSize)
	if got, want := a.bytes(), uint64(6*opBlockSize*opNodeBytes); got != want {
		t.Errorf("bytes after regrowth = %d, want %d", got, want)
	}
}

// allocWhileRead allocates total operator nodes into a, one operation's
// worth, while two peers read back each node the owner has published.
func allocWhileRead(t *testing.T, a *opArena, total uint32) {
	t.Helper()
	var published atomic.Uint32
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := published.Load()
				if n > 0 && a.at(n-1).f != node.Ref(n-1) {
					t.Errorf("operator node %d: f = %d, want %d", n-1, a.at(n-1).f, n-1)
					return
				}
				if n == total {
					return
				}
			}
		}()
	}
	for i := uint32(0); i < total; i++ {
		a.alloc(OpAnd, node.Ref(i), node.Ref(i))
		published.Store(i + 1)
	}
	wg.Wait()
}
