package walreplay

import (
	"errors"
	"reflect"
	"testing"

	"bfbdd"
	"bfbdd/internal/node"
	"bfbdd/internal/wal"
)

// history is a short session over 4 variables exercising every
// state-bearing record kind: f = (x0 ∧ x1) ∨ ¬x2, then quantify,
// restrict, compose, an ITE, a free, and a collection.
func history() []wal.Record {
	return []wal.Record{
		wal.CreateRec{Options: []byte(`{"vars":4}`)},
		wal.VarRec{Index: 0, Handle: 1},
		wal.VarRec{Index: 1, Handle: 2},
		wal.VarRec{Index: 2, Negated: true, Handle: 3},
		wal.ApplyRec{Op: uint8(bfbdd.BatchAnd), F: 1, G: 2, Handle: 4},
		wal.ApplyRec{Op: uint8(bfbdd.BatchOr), F: 4, G: 3, Handle: 5},
		wal.BatchRec{Ops: []wal.ApplyRec{
			{Op: uint8(bfbdd.BatchXor), F: 5, G: 1, Handle: 6},
			{Op: uint8(bfbdd.BatchNand), F: 5, G: 2, Handle: 7},
		}},
		wal.ITERec{F: 5, G: 6, H: 7, Handle: 8},
		wal.NotRec{F: 8, Handle: 9},
		wal.QuantifyRec{F: 5, Vars: []int{0, 2}, Handle: 10},
		wal.QuantifyRec{Forall: true, F: 5, Vars: []int{1}, Handle: 11},
		wal.RestrictRec{F: 5, Var: 1, Value: true, Handle: 12},
		wal.ComposeRec{F: 5, G: 6, Var: 0, Handle: 13},
		wal.ConstRec{Value: true, Handle: 14},
		wal.FreeRec{Handles: []uint64{6, 7}},
		wal.GCRec{},
		wal.SnapshotRec{},
		wal.PublishRec{Name: "f-x", Handles: []uint64{5}},
	}
}

func replayAll(t *testing.T, recs []wal.Record) *State {
	t.Helper()
	st := NewState(bfbdd.New(4))
	for i, r := range recs {
		if err := st.Apply(r); err != nil {
			t.Fatalf("record %d (%s): %v", i, r.Kind(), err)
		}
	}
	return st
}

func TestReplayRebuildsState(t *testing.T) {
	st := replayAll(t, history())
	defer st.Mgr.Close()

	// Freed handles are gone, everything else is live.
	for _, h := range []uint64{6, 7} {
		if _, ok := st.Handles[h]; ok {
			t.Errorf("freed handle %d still bound", h)
		}
	}
	want := []uint64{1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 14}
	for _, h := range want {
		if _, ok := st.Handles[h]; !ok {
			t.Errorf("handle %d missing", h)
		}
	}
	if len(st.Handles) != len(want) {
		t.Errorf("%d handles, want %d", len(st.Handles), len(want))
	}
	if st.NextHandle != 14 {
		t.Errorf("NextHandle = %d, want 14", st.NextHandle)
	}
	if st.Closed {
		t.Error("Closed latched without a close record")
	}

	// Semantic spot checks against direct construction.
	m := st.Mgr
	x0, x1 := m.Var(0), m.Var(1)
	nx2 := m.NVar(2)
	f := x0.And(x1).Or(nx2)
	if !st.Handles[5].Equal(f) {
		t.Error("handle 5 is not (x0∧x1)∨¬x2")
	}
	if !st.Handles[9].Equal(st.Handles[8].Not()) {
		t.Error("handle 9 is not ¬handle8")
	}
	if !st.Handles[10].Equal(f.Exists(0, 2)) {
		t.Error("handle 10 is not ∃(x0,x2)f")
	}
	if !st.Handles[11].Equal(f.Forall(1)) {
		t.Error("handle 11 is not ∀(x1)f")
	}
	if !st.Handles[12].Equal(f.Restrict(1, true)) {
		t.Error("handle 12 is not f|x1=1")
	}
	if !st.Handles[14].Equal(m.One()) {
		t.Error("handle 14 is not the one constant")
	}
}

// TestReplayDeterminism replays the same history twice and requires
// structurally identical results — the property that makes "snapshot +
// tail" a faithful reconstruction.
func TestReplayDeterminism(t *testing.T) {
	a := replayAll(t, history())
	defer a.Mgr.Close()
	b := replayAll(t, history())
	defer b.Mgr.Close()
	if len(a.Handles) != len(b.Handles) {
		t.Fatalf("handle counts diverged: %d vs %d", len(a.Handles), len(b.Handles))
	}
	for h, ba := range a.Handles {
		bb, ok := b.Handles[h]
		if !ok {
			t.Fatalf("handle %d missing from second replay", h)
		}
		sa := a.Mgr.Kernel().CanonicalSignature([]node.Ref{ba.Ref()})
		sb := b.Mgr.Kernel().CanonicalSignature([]node.Ref{bb.Ref()})
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("handle %d: canonical signatures diverged", h)
		}
	}
}

func TestCloseLatches(t *testing.T) {
	st := NewState(bfbdd.New(2))
	defer st.Mgr.Close()
	if err := st.Apply(wal.CloseRec{}); err != nil {
		t.Fatal(err)
	}
	if !st.Closed {
		t.Fatal("close record did not latch Closed")
	}
}

// TestHandleOverwriteFreesOld proves last-write-wins handle reuse: a
// rolled-back op whose record survived on disk may be followed by a
// fresh op acknowledged under the same handle.
func TestHandleOverwriteFreesOld(t *testing.T) {
	st := NewState(bfbdd.New(2))
	defer st.Mgr.Close()
	if err := st.Apply(wal.VarRec{Index: 0, Handle: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(wal.VarRec{Index: 1, Handle: 1}); err != nil {
		t.Fatal(err)
	}
	if len(st.Handles) != 1 {
		t.Fatalf("%d handles after overwrite", len(st.Handles))
	}
	if !st.Handles[1].Equal(st.Mgr.Var(1)) {
		t.Fatal("overwrite did not win")
	}
}

// TestReplayRejectsInvalidHistories: records a valid server never writes
// must fail with a typed error instead of panicking or silently
// diverging — the live routes map ErrNoHandle and ErrInvalid to 400.
func TestReplayRejectsInvalidHistories(t *testing.T) {
	cases := []struct {
		name string
		recs []wal.Record
		want error
	}{
		{"unknown operand", []wal.Record{
			wal.ApplyRec{Op: 0, F: 99, G: 99, Handle: 1}}, ErrNoHandle},
		{"op out of range", []wal.Record{
			wal.VarRec{Index: 0, Handle: 1},
			wal.ApplyRec{Op: wal.NumOps, F: 1, G: 1, Handle: 2}}, ErrInvalid},
		{"var out of range", []wal.Record{
			wal.VarRec{Index: 7, Handle: 1}}, ErrInvalid},
		{"quantify var out of range", []wal.Record{
			wal.VarRec{Index: 0, Handle: 1},
			wal.QuantifyRec{F: 1, Vars: []int{9}, Handle: 2}}, ErrInvalid},
		{"restrict var out of range", []wal.Record{
			wal.VarRec{Index: 0, Handle: 1},
			wal.RestrictRec{F: 1, Var: -1, Handle: 2}}, ErrInvalid},
		{"compose var out of range", []wal.Record{
			wal.VarRec{Index: 0, Handle: 1},
			wal.ComposeRec{F: 1, G: 1, Var: 2, Handle: 2}}, ErrInvalid},
		{"free unknown handle", []wal.Record{
			wal.FreeRec{Handles: []uint64{5}}}, ErrNoHandle},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := NewState(bfbdd.New(2))
			defer st.Mgr.Close()
			var err error
			for _, r := range tc.recs {
				if err = st.Apply(r); err != nil {
					break
				}
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestPutUndoRewinds: the live path's rollback of a refused operation
// frees the binding and hands its number to the next operation.
func TestPutUndoRewinds(t *testing.T) {
	st := NewState(bfbdd.New(2))
	defer st.Mgr.Close()
	h1 := st.Put(st.Mgr.Var(0))
	if err := st.Apply(wal.NotRec{F: h1, Handle: st.NextHandle + 1}); err != nil {
		t.Fatal(err)
	}
	h2 := st.NextHandle
	st.Undo(h2)
	if _, err := st.Get(h2); !errors.Is(err, ErrNoHandle) {
		t.Fatalf("undone handle still bound: %v", err)
	}
	if h := st.Put(st.Mgr.Var(1)); h != h2 {
		t.Fatalf("handle after undo = %d, want %d", h, h2)
	}
}
