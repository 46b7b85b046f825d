//go:build faultinject

package server

import (
	"net/http"
	"testing"

	"bfbdd/internal/faultinject"
	"bfbdd/internal/wal"
)

// TestWALAppendFailureRefusesOperation is the write-ahead contract under
// a failing disk, for every construction route that shares the
// record-then-journal path: an operation whose journal append fails must
// be refused (500) with its handle rolled back — never acknowledged-but-
// unjournaled — and the session must keep serving once the disk heals,
// handing the refused number to the next operation. Recovery then
// reproduces exactly the acknowledged operations.
func TestWALAppendFailureRefusesOperation(t *testing.T) {
	routes := []struct {
		route string
		body  func(v0, v1 uint64) map[string]any
	}{
		{"vars", func(v0, v1 uint64) map[string]any { return map[string]any{"index": 2, "negated": true} }},
		{"const", func(v0, v1 uint64) map[string]any { return map[string]any{"value": true} }},
		{"ite", func(v0, v1 uint64) map[string]any { return map[string]any{"f": v0, "g": v1, "h": v0} }},
		{"not", func(v0, v1 uint64) map[string]any { return map[string]any{"f": v0} }},
		{"quantify", func(v0, v1 uint64) map[string]any {
			return map[string]any{"kind": "forall", "f": v0, "vars": []int{1}}
		}},
		{"restrict", func(v0, v1 uint64) map[string]any { return map[string]any{"f": v0, "var": 0, "value": true} }},
		{"compose", func(v0, v1 uint64) map[string]any { return map[string]any{"f": v0, "var": 0, "g": v1} }},
	}
	for _, rt := range routes {
		t.Run(rt.route, func(t *testing.T) {
			faultinject.Reset()
			defer faultinject.Reset()

			dir := t.TempDir()
			cfg := walConfig(dir)
			srv, ts := testServer(t, cfg)
			sid := createSession(t, ts.URL, SessionOptions{Vars: 8})
			v0 := mkVar(t, ts.URL, sid, 0, false)
			v1 := mkVar(t, ts.URL, sid, 1, false)
			url := ts.URL + "/v1/sessions/" + sid + "/" + rt.route
			body := rt.body(v0, v1)

			// Reset zeroes the per-point call counters (session creation and
			// the vars already visited WALAppend), so FailFirst(1) hits
			// exactly the next append.
			faultinject.Reset()
			faultinject.Arm(faultinject.WALAppend, faultinject.FailFirst(1))
			code, out := call(t, "POST", url, body)
			faultinject.Reset()
			if code != http.StatusInternalServerError {
				t.Fatalf("journal-failed op answered %d (%v), want 500", code, out)
			}
			if got := srv.metrics.wal.AppendErrors.Load(); got != 1 {
				t.Fatalf("AppendErrors = %d, want 1", got)
			}

			// The refused operation's handle was rolled back: the retry gets
			// the number the failed one would have had, and the session is
			// not poisoned.
			h := handleOf(t, mustCall(t, "POST", url, body, http.StatusOK))
			if h != v1+1 {
				t.Fatalf("handle after rollback = %d, want %d", h, v1+1)
			}
			ledger := map[uint64]string{
				v0: sigOf(t, ts.URL, sid, v0),
				v1: sigOf(t, ts.URL, sid, v1),
				h:  sigOf(t, ts.URL, sid, h),
			}
			assertRecovered(t, cfg, dir, sid, ledger)
		})
	}
}

// TestWALRotateCrashWindow kills the checkpoint's log rotation: the
// snapshot still commits, the un-rotated segment stays active, and a
// crash-restart must lose nothing — recovery replays the journaled tail
// from whichever segment layout the failure left behind.
func TestWALRotateCrashWindow(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	dir := t.TempDir()
	cfg := walConfig(dir)
	srv, ts := testServer(t, cfg)
	sid := createSession(t, ts.URL, SessionOptions{Vars: 8})
	v0 := mkVar(t, ts.URL, sid, 0, false)
	v1 := mkVar(t, ts.URL, sid, 1, false)

	faultinject.Arm(faultinject.WALRotate, faultinject.FailNth(1))
	srv.CheckpointNow()
	faultinject.Reset()
	if latestSnapshot(dir, sid) == "" {
		t.Fatal("checkpoint did not commit despite benign rotate failure")
	}
	// Rotation failed: the original segment is still the active one.
	segs, err := wal.ListSegments(wal.Dir(dir), sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Base != 0 {
		t.Fatalf("segments after failed rotate = %+v, want the base-0 segment", segs)
	}

	// Mutate past the checkpoint, then crash.
	a := apply(t, ts.URL, sid, "xor", v0, v1)
	ledger := map[uint64]string{
		v0: sigOf(t, ts.URL, sid, v0),
		v1: sigOf(t, ts.URL, sid, v1),
		a:  sigOf(t, ts.URL, sid, a),
	}
	assertRecovered(t, cfg, dir, sid, ledger)
}

// TestWALTruncateCrashWindow kills the post-commit truncation: covered
// segments survive on disk, and recovery must skip their already-
// snapshotted records rather than double-apply or lose anything.
func TestWALTruncateCrashWindow(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	dir := t.TempDir()
	cfg := walConfig(dir)
	srv, ts := testServer(t, cfg)
	sid := createSession(t, ts.URL, SessionOptions{Vars: 8})
	v0 := mkVar(t, ts.URL, sid, 0, false)
	v1 := mkVar(t, ts.URL, sid, 1, false)

	faultinject.Arm(faultinject.WALTruncate, faultinject.FailNth(1))
	srv.CheckpointNow()
	faultinject.Reset()
	if latestSnapshot(dir, sid) == "" {
		t.Fatal("checkpoint did not commit despite benign truncate failure")
	}
	// Truncation failed mid-checkpoint: the covered pre-checkpoint
	// segment AND the rotated fresh one both remain.
	segs, err := wal.ListSegments(wal.Dir(dir), sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments after failed truncate = %+v, want covered + active", segs)
	}

	a := apply(t, ts.URL, sid, "or", v0, v1)
	ledger := map[uint64]string{
		v0: sigOf(t, ts.URL, sid, v0),
		v1: sigOf(t, ts.URL, sid, v1),
		a:  sigOf(t, ts.URL, sid, a),
	}
	assertRecovered(t, cfg, dir, sid, ledger)

	// The next successful checkpoint sweeps the leftover segment.
	srv.CheckpointNow()
	segs, err = wal.ListSegments(wal.Dir(dir), sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("segments after healed checkpoint = %+v, want just the active one", segs)
	}
}

// TestWALSyncFailureBreaksLog: under -wal-sync=always a failed fsync
// means the group's durability is unknown; the log must latch broken and
// refuse every later operation rather than let acknowledged and
// recoverable state diverge silently.
func TestWALSyncFailureBreaksLog(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	dir := t.TempDir()
	cfg := walConfig(dir)
	_, ts := testServer(t, cfg)
	sid := createSession(t, ts.URL, SessionOptions{Vars: 4})
	mkVar(t, ts.URL, sid, 0, false)

	faultinject.Reset() // zero WALSync's counter from earlier appends
	faultinject.Arm(faultinject.WALSync, faultinject.FailFirst(1))
	code, _ := call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/vars", map[string]any{"index": 1})
	faultinject.Reset()
	if code != http.StatusInternalServerError {
		t.Fatalf("sync-failed op answered %d, want 500", code)
	}
	// The log is broken: every further mutation is refused even though
	// the fault is gone.
	code, out := call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/vars", map[string]any{"index": 2})
	if code != http.StatusInternalServerError {
		t.Fatalf("op on broken log answered %d (%v), want 500", code, out)
	}
}
