package walreplay

import (
	"testing"

	"bfbdd"
	"bfbdd/internal/wal"
)

// frames renders records as a headerless wire-frame stream, sequenced
// from 1.
func frames(recs ...wal.Record) []byte {
	var b []byte
	for i, r := range recs {
		b = wal.AppendFrame(b, wal.EncodeRecord(uint64(i+1), r))
	}
	return b
}

// FuzzApply drives hostile frame streams through the shared
// record-to-engine path. Apply serves live construction requests,
// follower-shipped frames, recovery and the `bfbdd wal` tool, so every
// record that decodes must either apply or return an error — never panic
// — and every handle left bound must still be a usable BDD.
func FuzzApply(f *testing.F) {
	f.Add(frames(history()...))
	f.Add(frames(
		wal.VarRec{Index: 0, Handle: 1},
		wal.ComposeRec{F: 1, G: 1, Var: 9, Handle: 2},
		wal.QuantifyRec{F: 1, Vars: []int{-1}, Handle: 3},
		wal.FreeRec{Handles: []uint64{1, 1}},
		wal.NotRec{F: 1, Handle: 4},
	))
	// Kind 13 is the retired variable-order record: a length-correct body
	// with an out-of-range level must be refused by the decoder.
	f.Add(wal.AppendFrame(nil, []byte{1, 13, 4, 9, 9, 9, 9}))

	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewState(bfbdd.New(4))
		defer st.Mgr.Close()
		_, _ = wal.ScanFrames(data, func(e wal.Entry) error {
			_ = st.Apply(e.Rec) // errors are expected; panics are bugs
			return nil
		})
		for h, b := range st.Handles {
			if h > st.NextHandle {
				t.Fatalf("handle %d bound above NextHandle %d", h, st.NextHandle)
			}
			_ = b.Size()
		}
	})
}
