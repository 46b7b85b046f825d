package node

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// The spill tier reinterprets node blocks as bytes through unsafe, and
// the memory accounting counts NodeBytes per node: both need the constant
// to be the struct's real size.
func TestNodeBytesIsNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != NodeBytes {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, NodeBytes = %d", got, NodeBytes)
	}
}

func TestRefPackUnpack(t *testing.T) {
	cases := []struct {
		level, worker int
		index         uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{0, 1, 0},
		{100, 7, 123456},
		{TermLevel - 1, MaxWorkers - 1, indexMask},
	}
	for _, c := range cases {
		r := MakeRef(c.level, c.worker, c.index)
		if r.Level() != c.level {
			t.Errorf("MakeRef(%d,%d,%d).Level() = %d", c.level, c.worker, c.index, r.Level())
		}
		if r.Worker() != c.worker {
			t.Errorf("MakeRef(%d,%d,%d).Worker() = %d", c.level, c.worker, c.index, r.Worker())
		}
		if r.Index() != c.index {
			t.Errorf("MakeRef(%d,%d,%d).Index() = %d", c.level, c.worker, c.index, r.Index())
		}
		if !r.Valid() {
			t.Errorf("MakeRef(%d,%d,%d) not Valid", c.level, c.worker, c.index)
		}
		if r.IsTerminal() {
			t.Errorf("MakeRef(%d,%d,%d) claims terminal", c.level, c.worker, c.index)
		}
	}
}

func TestRefPackUnpackQuick(t *testing.T) {
	f := func(level uint16, worker uint8, index uint64) bool {
		l := int(level) % (TermLevel - 1)
		idx := index & indexMask
		r := MakeRef(l, int(worker), idx)
		return r.Level() == l && r.Worker() == int(worker) && r.Index() == idx && r.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTerminals(t *testing.T) {
	if !Zero.IsTerminal() || !Zero.IsZero() || Zero.IsOne() {
		t.Errorf("Zero misclassified: %v", Zero)
	}
	if !One.IsTerminal() || !One.IsOne() || One.IsZero() {
		t.Errorf("One misclassified: %v", One)
	}
	if Zero == One {
		t.Error("Zero == One")
	}
	if Zero.Level() != TermLevel || One.Level() != TermLevel {
		t.Errorf("terminal levels: %d, %d", Zero.Level(), One.Level())
	}
	if !Zero.Valid() || !One.Valid() {
		t.Error("terminals must be Valid")
	}
	if Nil.Valid() {
		t.Error("Nil must not be Valid")
	}
}

func TestTopLevel(t *testing.T) {
	a := MakeRef(3, 0, 0)
	b := MakeRef(7, 0, 0)
	if got := TopLevel(a, b); got != 3 {
		t.Errorf("TopLevel(3,7) = %d", got)
	}
	if got := TopLevel(b, a); got != 3 {
		t.Errorf("TopLevel(7,3) = %d", got)
	}
	if got := TopLevel(a, Zero); got != 3 {
		t.Errorf("TopLevel(3,terminal) = %d", got)
	}
	if got := TopLevel(Zero, One); got != TermLevel {
		t.Errorf("TopLevel(terminals) = %d", got)
	}
}

func TestRefString(t *testing.T) {
	if Zero.String() != "0" || One.String() != "1" || Nil.String() != "nil" {
		t.Errorf("terminal strings: %q %q %q", Zero.String(), One.String(), Nil.String())
	}
	r := MakeRef(2, 1, 42)
	if r.String() != "v2/w1/42" {
		t.Errorf("ref string: %q", r.String())
	}
}

func TestArenaAllocAt(t *testing.T) {
	var a Arena
	const n = 3*BlockSize + 17
	for i := uint64(0); i < n; i++ {
		idx := a.Alloc(Zero, One)
		if idx != i {
			t.Fatalf("Alloc #%d returned index %d", i, idx)
		}
	}
	if a.Len() != n || a.Live() != n {
		t.Fatalf("Len=%d Live=%d want %d", a.Len(), a.Live(), n)
	}
	for i := uint64(0); i < n; i++ {
		nd := a.At(i)
		if nd.Low != Zero || nd.High != One {
			t.Fatalf("node %d = %+v", i, *nd)
		}
	}
	wantBlocks := uint64(4) // ceil((3*BlockSize+17)/BlockSize)
	if a.Bytes() != wantBlocks*BlockSize*NodeBytes {
		t.Fatalf("Bytes = %d", a.Bytes())
	}
}

func TestArenaFreeListReuse(t *testing.T) {
	var a Arena
	for i := 0; i < 10; i++ {
		a.Alloc(Zero, One)
	}
	a.Free(3)
	a.Free(7)
	if a.Live() != 8 {
		t.Fatalf("Live = %d after 2 frees", a.Live())
	}
	// LIFO reuse: last freed first.
	if idx := a.Alloc(One, Zero); idx != 7 {
		t.Fatalf("reuse alloc got %d want 7", idx)
	}
	if idx := a.Alloc(One, Zero); idx != 3 {
		t.Fatalf("reuse alloc got %d want 3", idx)
	}
	if idx := a.Alloc(One, Zero); idx != 10 {
		t.Fatalf("fresh alloc got %d want 10", idx)
	}
	if a.Live() != 11 || a.Len() != 11 {
		t.Fatalf("Live=%d Len=%d", a.Live(), a.Len())
	}
	nd := a.At(7)
	if nd.Low != One || nd.High != Zero {
		t.Fatalf("reused node = %+v", *nd)
	}
}

func TestArenaReset(t *testing.T) {
	var a Arena
	for i := 0; i < 100; i++ {
		a.Alloc(Zero, One)
	}
	a.Free(5)
	a.Reset()
	if a.Len() != 0 || a.Live() != 0 {
		t.Fatalf("after Reset: Len=%d Live=%d", a.Len(), a.Live())
	}
	if a.Bytes() == 0 {
		t.Fatal("Reset should retain blocks")
	}
	if idx := a.Alloc(Zero, One); idx != 0 {
		t.Fatalf("post-reset alloc = %d", idx)
	}
	a.ReleaseBlocks()
	if a.Bytes() != 0 {
		t.Fatal("ReleaseBlocks should drop storage")
	}
}

func TestArenaMarks(t *testing.T) {
	var a Arena
	const n = 200
	for i := 0; i < n; i++ {
		a.Alloc(Zero, One)
	}
	a.PrepareMarks()
	for i := uint64(0); i < n; i++ {
		if a.Marked(i) {
			t.Fatalf("slot %d marked before any mark", i)
		}
	}
	rng := rand.New(rand.NewSource(1))
	want := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		slot := uint64(rng.Intn(n))
		want[slot] = true
		word, bit := a.MarkWord(slot)
		*word |= bit
	}
	for i := uint64(0); i < n; i++ {
		if a.Marked(i) != want[i] {
			t.Fatalf("slot %d marked=%v want %v", i, a.Marked(i), want[i])
		}
	}
	// PrepareMarks must clear previous marks.
	a.PrepareMarks()
	for i := uint64(0); i < n; i++ {
		if a.Marked(i) {
			t.Fatalf("slot %d still marked after PrepareMarks", i)
		}
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore(2, 4)
	if s.Workers() != 2 || s.Levels() != 4 {
		t.Fatalf("dims: %d,%d", s.Workers(), s.Levels())
	}
	r := s.NewNode(1, 2, Zero, One)
	if r.Worker() != 1 || r.Level() != 2 || r.Index() != 0 {
		t.Fatalf("NewNode ref = %v", r)
	}
	nd := s.Node(r)
	if nd.Low != Zero || nd.High != One {
		t.Fatalf("node = %+v", *nd)
	}
	if s.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d", s.NumNodes())
	}
	if s.NodesAtLevel(2) != 1 || s.NodesAtLevel(0) != 0 {
		t.Fatalf("NodesAtLevel: %d, %d", s.NodesAtLevel(2), s.NodesAtLevel(0))
	}
	if s.ResidentBytes() != BlockSize*NodeBytes {
		t.Fatalf("ResidentBytes = %d after one allocation, want one block", s.ResidentBytes())
	}
}

func TestStoreCofactors(t *testing.T) {
	s := NewStore(1, 4)
	r := s.NewNode(0, 1, Zero, One) // node at level 1
	if got := s.Low(r, 1); got != Zero {
		t.Errorf("Low at own level = %v", got)
	}
	if got := s.High(r, 1); got != One {
		t.Errorf("High at own level = %v", got)
	}
	// Cofactor w.r.t. a higher-precedence variable leaves r unchanged.
	if got := s.Low(r, 0); got != r {
		t.Errorf("Low at level 0 = %v", got)
	}
	if got := s.High(r, 0); got != r {
		t.Errorf("High at level 0 = %v", got)
	}
	// Terminals are fixed points of cofactoring.
	if got := s.Low(One, 0); got != One {
		t.Errorf("Low(One) = %v", got)
	}
}

func TestStorePanicsOnBadDims(t *testing.T) {
	for _, c := range []struct{ w, l int }{{0, 1}, {MaxWorkers + 1, 1}, {1, MaxLevels}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStore(%d,%d) did not panic", c.w, c.l)
				}
			}()
			NewStore(c.w, c.l)
		}()
	}
}
