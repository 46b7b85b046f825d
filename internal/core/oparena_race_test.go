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
	const total = 8 * opBlockSize
	var a opArena
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
	if got, want := a.bytes(), uint64(8*opBlockSize*opNodeBytes); got != want {
		t.Errorf("bytes = %d, want %d", got, want)
	}
}
