package unique

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"bfbdd/internal/node"
)

func TestFindOrAddCanonical(t *testing.T) {
	st := node.NewStore(1, 2)
	var tab Table
	tab.Lock()
	a := tab.FindOrAdd(st, 0, 1, node.Zero, node.One)
	b := tab.FindOrAdd(st, 0, 1, node.Zero, node.One)
	c := tab.FindOrAdd(st, 0, 1, node.One, node.Zero)
	tab.Unlock()
	if a != b {
		t.Fatalf("duplicate insert returned different refs: %v vs %v", a, b)
	}
	if a == c {
		t.Fatal("distinct children returned same ref")
	}
	if tab.Count() != 2 {
		t.Fatalf("Count = %d", tab.Count())
	}
	if tab.Hits() != 1 || tab.Misses() != 2 {
		t.Fatalf("hits=%d misses=%d", tab.Hits(), tab.Misses())
	}
}

func TestFindOrAddGrowth(t *testing.T) {
	st := node.NewStore(1, 2)
	var tab Table
	const n = 10000
	refs := make([]node.Ref, n)
	tab.Lock()
	for i := 0; i < n; i++ {
		low := node.MakeRef(1, 0, uint64(i))
		refs[i] = tab.FindOrAdd(st, 0, 0, low, node.One)
	}
	tab.Unlock()
	if tab.Count() != n {
		t.Fatalf("Count = %d want %d", tab.Count(), n)
	}
	if tab.MaxCount() != n {
		t.Fatalf("MaxCount = %d", tab.MaxCount())
	}
	// All still findable after growth rechaining.
	tab.Lock()
	for i := 0; i < n; i++ {
		low := node.MakeRef(1, 0, uint64(i))
		if got := tab.FindOrAdd(st, 0, 0, low, node.One); got != refs[i] {
			t.Fatalf("after growth: ref %d changed: %v vs %v", i, got, refs[i])
		}
	}
	tab.Unlock()
}

func TestFindOrAddCounters(t *testing.T) {
	st := node.NewStore(1, 2)
	var tab Table
	if tab.Count() != 0 || tab.Bytes() != 0 {
		t.Fatalf("zero table: Count=%d Bytes=%d", tab.Count(), tab.Bytes())
	}
	tab.Lock()
	r := tab.FindOrAdd(st, 0, 1, node.Zero, node.One)
	if tab.Hits() != 0 || tab.Misses() != 1 {
		t.Fatalf("first insert: hits=%d misses=%d", tab.Hits(), tab.Misses())
	}
	if got := tab.FindOrAdd(st, 0, 1, node.Zero, node.One); got != r || tab.Hits() != 1 || tab.Misses() != 1 {
		t.Fatalf("repeat: got %v want %v, hits=%d misses=%d", got, r, tab.Hits(), tab.Misses())
	}
	if got := tab.FindOrAdd(st, 0, 1, node.One, node.Zero); got == r || tab.Hits() != 1 || tab.Misses() != 2 {
		t.Fatalf("distinct key: got %v, hits=%d misses=%d", got, tab.Hits(), tab.Misses())
	}
	tab.Unlock()
	if tab.Bytes() != minSlots*8 {
		t.Fatalf("Bytes = %d want %d", tab.Bytes(), minSlots*8)
	}
}

func TestConcurrentFindOrAdd(t *testing.T) {
	st := node.NewStore(4, 1)
	var tab Table
	const perWorker = 2000
	var wg sync.WaitGroup
	results := make([][]node.Ref, 4)
	for w := 0; w < 4; w++ {
		results[w] = make([]node.Ref, perWorker)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Same logical nodes from every worker: canonicity must hold.
				low := node.Zero
				high := node.MakeRef(node.TermLevel, 0, uint64(1)) // One
				if i%2 == 0 {
					low, high = high, low
				}
				_ = low
				tab.Lock()
				results[w][i] = tab.FindOrAdd(st, w, 0, low, high)
				tab.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if tab.Count() != 2 {
		t.Fatalf("Count = %d want 2", tab.Count())
	}
	for w := 1; w < 4; w++ {
		for i := 0; i < perWorker; i++ {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d item %d: %v != %v", w, i, results[w][i], results[0][i])
			}
		}
	}
}

func TestRemoveUnmarked(t *testing.T) {
	st := node.NewStore(1, 1)
	var tab Table
	const n = 100
	refs := make([]node.Ref, n)
	tab.Lock()
	for i := 0; i < n; i++ {
		refs[i] = tab.FindOrAdd(st, 0, 0, node.MakeRef(node.TermLevel, 0, 0), node.MakeRef(0, 0, uint64(i+1000)))
	}
	tab.Unlock()
	ar := st.Arena(0, 0)
	ar.PrepareMarks()
	keep := map[node.Ref]bool{}
	rng := rand.New(rand.NewSource(7))
	for _, r := range refs {
		if rng.Intn(2) == 0 {
			word, bit := ar.MarkWord(r.Index())
			*word |= bit
			keep[r] = true
		}
	}
	var freed []node.Ref
	tab.RemoveUnmarked(st, func(r node.Ref) { freed = append(freed, r) })
	if int(tab.Count()) != len(keep) {
		t.Fatalf("Count = %d want %d", tab.Count(), len(keep))
	}
	if len(freed)+len(keep) != n {
		t.Fatalf("freed %d + kept %d != %d", len(freed), len(keep), n)
	}
	for _, r := range freed {
		if keep[r] {
			t.Fatalf("marked node %v was freed", r)
		}
	}
	// Survivors still findable: every probe is a hit on the same ref.
	misses := tab.Misses()
	for r := range keep {
		nd := st.Node(r)
		if got := tab.FindOrAdd(st, 0, 0, nd.Low, nd.High); got != r {
			t.Fatalf("survivor %v lost: got %v", r, got)
		}
	}
	if tab.Misses() != misses {
		t.Fatalf("survivor probes missed %d times", tab.Misses()-misses)
	}
}

// TestRemoveUnmarkedShrinks checks that a free-list sweep sizes the
// survivors' slot array as ResetBuckets would: a sweep that leaves no
// survivors returns the table to its minimum size.
func TestRemoveUnmarkedShrinks(t *testing.T) {
	for _, kept := range []int{0, 1, 100, 1000} {
		st := node.NewStore(1, 1)
		var tab Table
		tab.Lock()
		for i := 0; i < 1000; i++ {
			tab.FindOrAdd(st, 0, 0, node.Zero, node.MakeRef(0, 0, uint64(i+1000)))
		}
		tab.Unlock()
		grown := tab.Bytes()
		ar := st.Arena(0, 0)
		ar.PrepareMarks()
		for i := 0; i < kept; i++ {
			word, bit := ar.MarkWord(uint64(i))
			*word |= bit
		}
		tab.RemoveUnmarked(st, func(node.Ref) {})
		var sized Table
		sized.ResetBuckets(uint64(kept))
		if tab.Count() != uint64(kept) || tab.Bytes() != sized.Bytes() {
			t.Errorf("kept %d of 1000: Count %d, Bytes %d (was %d), want Bytes %d",
				kept, tab.Count(), tab.Bytes(), grown, sized.Bytes())
		}
		if kept == 0 && tab.Bytes() != minSlots*8 {
			t.Errorf("empty sweep left %d bytes, want %d", tab.Bytes(), minSlots*8)
		}
	}
}

func TestResetBucketsAndInsert(t *testing.T) {
	st := node.NewStore(1, 1)
	var tab Table
	tab.Lock()
	r1 := tab.FindOrAdd(st, 0, 0, node.Zero, node.One)
	r2 := tab.FindOrAdd(st, 0, 0, node.One, node.Zero)
	tab.Unlock()
	tab.ResetBuckets(2)
	if tab.Count() != 0 {
		t.Fatalf("Count after reset = %d", tab.Count())
	}
	tab.Lock()
	tab.Insert(st, r1)
	tab.Insert(st, r2)
	tab.Unlock()
	if tab.Count() != 2 {
		t.Fatalf("Count after reinsert = %d", tab.Count())
	}
	if got := tab.FindOrAdd(st, 0, 0, node.Zero, node.One); got != r1 {
		t.Fatalf("r1 lost after rehash: got %v", got)
	}
	if got := tab.FindOrAdd(st, 0, 0, node.One, node.Zero); got != r2 {
		t.Fatalf("r2 lost after rehash: got %v", got)
	}
	if tab.Misses() != 2 || tab.Count() != 2 {
		t.Fatalf("rehash lookups missed: misses=%d Count=%d", tab.Misses(), tab.Count())
	}
	// MaxCount survives the reset (high-water semantics).
	if tab.MaxCount() < 2 {
		t.Fatalf("MaxCount = %d", tab.MaxCount())
	}
}

// TestLockWaitAccumulates checks that Lock returns exactly the wait it
// adds to the table's total, and zero when uncontended.
func TestLockWaitAccumulates(t *testing.T) {
	var tab Table
	var returned time.Duration
	for try := 0; try < 10 && returned == 0; try++ {
		if d := tab.Lock(); d != 0 {
			t.Fatalf("uncontended Lock returned %v", d)
		}
		started, done := make(chan struct{}), make(chan time.Duration)
		go func() {
			close(started)
			d := tab.Lock() // blocks until the holder lets go
			tab.Unlock()
			done <- d
		}()
		<-started
		time.Sleep(time.Millisecond)
		tab.Unlock()
		returned += <-done
	}
	if returned == 0 || tab.LockWait() != returned {
		t.Fatalf("LockWait %v, Lock returned %v in total", tab.LockWait(), returned)
	}
	tab.ResetLockWait()
	if tab.LockWait() != 0 {
		t.Fatalf("LockWait after reset: %v", tab.LockWait())
	}
}
