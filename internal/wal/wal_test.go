package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// allKinds is one record of every kind, with every field populated, so
// the roundtrip test covers the full body grammar.
func allKinds() []Record {
	return []Record{
		CreateRec{Options: []byte(`{"vars":16,"engine":"par"}`)},
		VarRec{Index: 3, Negated: true, Handle: 7},
		ConstRec{Value: true, Handle: 8},
		ApplyRec{Op: 2, F: 7, G: 8, Handle: 9},
		BatchRec{Ops: []ApplyRec{{Op: 0, F: 1, G: 2, Handle: 10}, {Op: 7, F: 9, G: 10, Handle: 11}}},
		ITERec{F: 7, G: 8, H: 9, Handle: 12},
		NotRec{F: 12, Handle: 13},
		QuantifyRec{Forall: true, F: 13, Vars: []int{0, 2, 5}, Handle: 14},
		RestrictRec{F: 14, Var: 1, Value: false, Handle: 15},
		ComposeRec{F: 15, G: 7, Var: 4, Handle: 16},
		FreeRec{Handles: []uint64{7, 8, 16}},
		GCRec{},
		SnapshotRec{},
		PublishRec{Name: "f-abc", Handles: []uint64{13, 14}},
		CloseRec{},
	}
}

func TestRecordRoundtrip(t *testing.T) {
	for i, rec := range allKinds() {
		seq := uint64(i + 1)
		payload := EncodeRecord(seq, rec)
		ent, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", rec.Kind(), err)
		}
		if ent.Seq != seq {
			t.Fatalf("%s: seq %d, want %d", rec.Kind(), ent.Seq, seq)
		}
		if !reflect.DeepEqual(ent.Rec, rec) {
			t.Fatalf("%s: roundtrip %+v != %+v", rec.Kind(), ent.Rec, rec)
		}
	}
}

func TestDecodeRejectsHostileRecords(t *testing.T) {
	good := EncodeRecord(1, VarRec{Index: 1, Handle: 2})
	cases := map[string][]byte{
		"empty":        nil,
		"seq only":     good[:1],
		"unknown kind": append(appendUvarint(nil, 1), 200),
		// Kind 13 is reserved (a never-written variable-order record).
		"reserved kind":  append(appendUvarint(nil, 1), 13, 1, 0),
		"trailing bytes": append(append([]byte(nil), good...), 0xFF),
		"bad bool":       EncodeRecord(1, ConstRec{})[:2+1], // truncated before handle
		"op range":       append(appendUvarint(nil, 1), byte(KindApply), 99, 0, 0, 0),
		"hostile count": append(append(appendUvarint(nil, 1), byte(KindFree)),
			appendUvarint(nil, 1<<40)...),
	}
	for name, payload := range cases {
		if _, err := DecodeRecord(payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// segmentBytes renders an in-memory segment: header plus each record in
// its own frame, sequenced densely from base+1.
func segmentBytes(t *testing.T, base uint64, recs ...Record) []byte {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, "s-test", base, Options{Policy: SyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, SegmentName("s-test", base)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTornTailEveryPrefix truncates a three-record segment at every byte
// boundary: a prefix inside the header is a typed error, any longer
// prefix scans cleanly and yields exactly the records whose frames
// survived whole — the crash-shape contract recovery depends on.
func TestTornTailEveryPrefix(t *testing.T) {
	recs := allKinds()
	data := segmentBytes(t, 0, recs...)
	for n := 0; n <= len(data); n++ {
		st, err := ScanSegment(bytes.NewReader(data[:n]), func(Entry) error { return nil })
		if n < HeaderSize {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("prefix %d: err = %v, want a typed header error", n, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("prefix %d: unexpected error %v", n, err)
		}
		if n == len(data) && (st.Torn || st.Records != len(recs)) {
			t.Fatalf("full segment: records %d torn %v", st.Records, st.Torn)
		}
		if n < len(data) && !st.Torn && st.Records != len(recs) {
			// A shorter prefix may still be frame-aligned (clean EOF); then
			// it must hold a strict prefix of the records.
			if st.Records >= len(recs) {
				t.Fatalf("prefix %d: %d records from a truncated stream", n, st.Records)
			}
		}
	}
}

// TestCorruptionStopsScan flips every byte of the record region in turn;
// the scan must stop at or before the corrupted record, never panic, and
// never deliver more records than the file holds.
func TestCorruptionStopsScan(t *testing.T) {
	recs := allKinds()
	data := segmentBytes(t, 0, recs...)
	for i := HeaderSize; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xA5
		st, err := ScanSegment(bytes.NewReader(mut), func(Entry) error { return nil })
		if err != nil {
			t.Fatalf("flip at %d: scan error %v", i, err)
		}
		if st.Records > len(recs) {
			t.Fatalf("flip at %d: %d records out of %d", i, st.Records, len(recs))
		}
	}
	// Header corruption is a typed error, not a torn tail.
	for i := 0; i < HeaderSize; i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xA5
		if _, err := ScanSegment(bytes.NewReader(mut), func(Entry) error { return nil }); err == nil {
			t.Fatalf("flip at header byte %d: scan accepted a corrupt header", i)
		}
	}
}

func TestAppendAssignsDenseSequences(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, "s-seq", 10, Options{Policy: SyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(GCRec{}, GCRec{}, GCRec{}); err != nil {
		t.Fatal(err)
	}
	if got := l.Seq(); got != 13 {
		t.Fatalf("Seq = %d, want 13", got)
	}
	if err := l.Append(CloseRec{}); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	st, err := ScanSegmentFile(filepath.Join(dir, SegmentName("s-seq", 10)), func(e Entry) error {
		seqs = append(seqs, e.Seq)
		return nil
	})
	if err != nil || st.Torn {
		t.Fatalf("scan: %v torn=%v", err, st.Torn)
	}
	if want := []uint64{11, 12, 13, 14}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("seqs = %v, want %v", seqs, want)
	}
}

func TestRotateAndTruncate(t *testing.T) {
	dir := t.TempDir()
	var ctr Counters
	l, err := Open(dir, "s-rot", 0, Options{Policy: SyncNone}, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Rotate with nothing appended is a no-op: same single segment.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := ListSegments(dir, "s-rot"); len(segs) != 1 {
		t.Fatalf("no-op rotate created a segment: %v", segs)
	}

	for i := 0; i < 3; i++ {
		if err := l.Append(VarRec{Index: i, Handle: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if got := ctr.Rotations.Load(); got != 1 {
		t.Fatalf("Rotations = %d, want 1", got)
	}
	for i := 3; i < 5; i++ {
		if err := l.Append(VarRec{Index: i, Handle: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}

	segs, err := ListSegments(dir, "s-rot")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].Base != 0 || segs[1].Base != 3 {
		t.Fatalf("segments = %+v, want bases 0 and 3", segs)
	}

	// The full chain replays all five records from zero.
	var n int
	st, err := ReplayTail(dir, "s-rot", 0, func(Entry) error { n++; return nil })
	if err != nil || st.Gap || n != 5 {
		t.Fatalf("replay: n=%d gap=%v err=%v", n, st.Gap, err)
	}
	// Replaying from mid-first-segment skips the covered prefix.
	st, err = ReplayTail(dir, "s-rot", 2, func(Entry) error { return nil })
	if err != nil || st.Gap || st.Replayed != 3 || st.Skipped != 2 {
		t.Fatalf("partial replay: %+v err=%v", st, err)
	}

	// A checkpoint at seq 3 covers the first segment; truncation removes
	// it but never the active one.
	if err := l.TruncateTo(3); err != nil {
		t.Fatal(err)
	}
	if got := ctr.Truncated.Load(); got != 1 {
		t.Fatalf("Truncated = %d, want 1", got)
	}
	segs, _ = ListSegments(dir, "s-rot")
	if len(segs) != 1 || segs[0].Base != 3 {
		t.Fatalf("segments after truncate = %+v", segs)
	}
	st, err = ReplayTail(dir, "s-rot", 3, func(Entry) error { return nil })
	if err != nil || st.Gap || st.Replayed != 2 {
		t.Fatalf("post-truncate replay: %+v err=%v", st, err)
	}

	// Replaying from zero is now impossible — the chain must report the
	// gap instead of silently serving a partial history.
	st, err = ReplayTail(dir, "s-rot", 0, func(Entry) error { return nil })
	if err != nil || !st.Gap || st.GapBase != 3 {
		t.Fatalf("gap detection: %+v err=%v", st, err)
	}
}

func TestBrokenLatch(t *testing.T) {
	dir := t.TempDir()
	var ctr Counters
	l, err := Open(dir, "s-broke", 0, Options{Policy: SyncNone}, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(GCRec{}); err != nil {
		t.Fatal(err)
	}
	// Yank the fd out from under the log: the write fails, and the rewind
	// (Truncate on a closed file) fails too, so the log must latch broken.
	l.f.Close()
	if err := l.Append(GCRec{}); err == nil {
		t.Fatal("append over a dead fd succeeded")
	}
	if err := l.Append(GCRec{}); !errors.Is(err, ErrBroken) {
		t.Fatalf("append after broken latch: %v, want ErrBroken", err)
	}
	if got := ctr.AppendErrors.Load(); got == 0 {
		t.Fatal("AppendErrors not counted")
	}
	if err := l.Rotate(); !errors.Is(err, ErrBroken) {
		t.Fatalf("rotate on broken log: %v, want ErrBroken", err)
	}
	// The durable prefix is still exactly the acknowledged history.
	st, err := ScanSegmentFile(filepath.Join(dir, SegmentName("s-broke", 0)), func(Entry) error { return nil })
	if err != nil || st.Records != 1 {
		t.Fatalf("surviving prefix: %+v err=%v", st, err)
	}
}

func TestCloseSemantics(t *testing.T) {
	l, err := Open(t.TempDir(), "s-close", 0, Options{Policy: SyncInterval}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(GCRec{}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := l.Append(GCRec{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v, want ErrClosed", err)
	}
}

func TestParseNames(t *testing.T) {
	id, base, ok := ParseSegmentName(SegmentName("s-ab12", 42))
	if !ok || id != "s-ab12" || base != 42 {
		t.Fatalf("segment name roundtrip: %q %d %v", id, base, ok)
	}
	id, seq, ok := ParseSnapshotName(SnapshotName("s-ab12", 7))
	if !ok || id != "s-ab12" || seq != 7 {
		t.Fatalf("snapshot name roundtrip: %q %d %v", id, seq, ok)
	}
	for _, bad := range []string{
		"", "x.wal", "x.123.wal", "x.00000000000000000042.snap",
		"x.0000000000000000004x.wal", "justafile",
	} {
		if _, _, ok := ParseSegmentName(bad); ok {
			t.Errorf("ParseSegmentName(%q) accepted", bad)
		}
	}
	if _, _, ok := ParseSnapshotName("x.00000000000000000042.wal"); ok {
		t.Error("ParseSnapshotName accepted a .wal name")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{
		"": SyncInterval, "interval": SyncInterval,
		"always": SyncAlways, "none": SyncNone,
	} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSyncPolicy("fsync"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
}

func TestSessionIDs(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"s-bb", "s-aa"} {
		l, err := Open(dir, id, 0, Options{Policy: SyncNone}, nil)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644)
	ids, err := SessionIDs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"s-aa", "s-bb"}) {
		t.Fatalf("ids = %v", ids)
	}
	if ids, err := SessionIDs(filepath.Join(dir, "missing")); err != nil || ids != nil {
		t.Fatalf("missing dir: %v %v", ids, err)
	}
}

// TestOpenResumeAtBase proves the server's recovery attach: after a
// replay ends at sequence N, a fresh segment based at N chains onto the
// surviving history.
func TestOpenResumeAtBase(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, "s-res", 0, Options{Policy: SyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(VarRec{Index: 0, Handle: 1})
	l.Append(VarRec{Index: 1, Handle: 2})
	l.Close()

	l2, err := Open(dir, "s-res", 2, Options{Policy: SyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2.Append(VarRec{Index: 2, Handle: 3})
	l2.Close()

	var n int
	st, err := ReplayTail(dir, "s-res", 0, func(e Entry) error {
		n++
		if e.Seq != uint64(n) {
			return corrupt("seq %d at position %d", e.Seq, n)
		}
		return nil
	})
	if err != nil || st.Gap || n != 3 {
		t.Fatalf("resumed chain: n=%d %+v err=%v", n, st, err)
	}
}
