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
	if n := len(tb.pages[1*2+0]); n != 0 {
		t.Fatalf("Get allocated %d page slots", n)
	}
	// Touch the last node of worker 1 only: one page, in a list that
	// covers the whole arena.
	last := refs[len(refs)-1]
	*tb.At(last) = 7
	ps := tb.pages[1*2+1]
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
