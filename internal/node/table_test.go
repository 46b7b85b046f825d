package node

import (
	"reflect"
	"testing"
)

func TestTableSlotsAndPages(t *testing.T) {
	st := NewStore(2, 3)
	var refs []Ref
	for i := 0; i < 3*pageSize; i++ {
		refs = append(refs, st.NewNode(i%2, 1, Zero, One))
	}
	tb := NewTable[uint32](st)
	if got := tb.Get(refs[0]); got != 0 {
		t.Fatalf("Get on an empty table = %d", got)
	}
	if len(tb.pages) != 0 {
		t.Fatalf("Get added %d page lists", len(tb.pages))
	}
	// Touch the last node of worker 1 only: one page, in a list that
	// covers the whole arena.
	last := refs[len(refs)-1]
	*tb.At(last) = 7
	if len(tb.pages) != 1 {
		t.Fatalf("touching one arena added %d page lists", len(tb.pages))
	}
	ps := tb.list(1*2 + 1)
	if len(ps) != 2 {
		t.Fatalf("worker 1 page list has %d entries, want 2", len(ps))
	}
	if ps[0] != nil || ps[1] == nil {
		t.Fatal("only the touched page should be allocated")
	}
	if got := tb.Get(last); got != 7 {
		t.Fatalf("Get = %d, want 7", got)
	}
	// The arena grows after the table saw it: the page list extends.
	late := st.NewNode(1, 1, Zero, One)
	for st.Arena(1, 1).Len() < 4*pageSize {
		late = st.NewNode(1, 1, Zero, One)
	}
	*tb.At(late) = 9
	if got := tb.Get(late); got != 9 {
		t.Fatalf("Get after growth = %d, want 9", got)
	}
}

func TestTableSweepOrder(t *testing.T) {
	st := NewStore(2, 2)
	var refs []Ref
	for i := 0; i < 600; i++ {
		refs = append(refs, st.NewNode(i%2, 0, Zero, One))
	}
	st.NewNode(0, 1, Zero, One)
	tb := NewTable[bool](st)
	marked := []Ref{refs[599], refs[4], refs[1], refs[300], refs[0]}
	for _, r := range marked {
		*tb.At(r) = true
	}
	*tb.At(MakeRef(1, 0, 0)) = true
	var got []Ref
	tb.Sweep(0, func(r Ref, v *bool) {
		if !*v {
			t.Fatalf("Sweep visited unset slot %v", r)
		}
		got = append(got, r)
	})
	want := []Ref{refs[0], refs[4], refs[300], refs[1], refs[599]}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Sweep order %v, want %v", got, want)
	}
}

func TestTableRejectsForeignWorker(t *testing.T) {
	st := NewStore(1, 2)
	tb := NewTable[bool](st)
	defer func() {
		if recover() == nil {
			t.Fatal("At on a worker the store lacks did not panic")
		}
	}()
	tb.At(MakeRef(0, 1, 0))
}

func TestTableReachRejectsNonDescendingChild(t *testing.T) {
	st := NewStore(1, 2)
	up := st.NewNode(0, 0, Zero, One)
	bad := st.NewNode(0, 1, up, One) // child at a shallower level
	root := st.NewNode(0, 0, bad, Zero)
	var visited int
	err := NewTable[bool](st).Reach([]Ref{root}, true, func(Ref) { visited++ })
	if err == nil {
		t.Fatal("Reach accepted a child above its parent")
	}
	if visited != 2 {
		t.Fatalf("visited %d nodes before the error, want 2", visited)
	}
}

// TestTableReachManyArenas reaches a chain through 300 levels whose
// nodes alternate between two workers' arenas, so the range of page
// lists grows several times while Reach sweeps it.
func TestTableReachManyArenas(t *testing.T) {
	const levels = 300
	st := NewStore(2, levels)
	root := One
	var chain []Ref
	for l := levels - 1; l >= 0; l-- {
		root = st.NewNode(l%2, l, Zero, root)
		chain = append(chain, root)
	}
	tb := NewTable[bool](st)
	var got []Ref
	if err := tb.Reach([]Ref{root}, true, func(r Ref) { got = append(got, r) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != levels {
		t.Fatalf("Reach visited %d nodes, want %d", len(got), levels)
	}
	for i, r := range got {
		if want := chain[levels-1-i]; r != want {
			t.Fatalf("visit %d: %v, want %v", i, r, want)
		}
		if !tb.Get(r) {
			t.Fatalf("%v not marked", r)
		}
	}
	if len(tb.pages) > 2*levels {
		t.Fatalf("%d page lists for a store of %d arenas", len(tb.pages), 2*levels)
	}
}
