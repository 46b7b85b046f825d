//go:build faultinject

package server

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bfbdd/internal/faultinject"
	"bfbdd/internal/wal"
)

// TestInjectedKernelPanicPoisonsSession is the containment acceptance
// test: an injected kernel invariant violation inside one session's build
// answers 500, poisons exactly that session (subsequent operations 409,
// still inspectable, deletable), and leaves every other session on the
// server serving normally.
func TestInjectedKernelPanicPoisonsSession(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	srv, ts := testServer(t, Config{})
	base := ts.URL
	a := createSession(t, base, SessionOptions{Vars: 8})
	b := createSession(t, base, SessionOptions{Vars: 8})
	hb := mkVar(t, base, b, 0, false)

	// nil predicate: fires on every MkNode while armed; disarmed right
	// after the one poisoned request.
	faultinject.Arm(faultinject.KernelInvariant, nil)
	code, out := call(t, "POST", base+"/v1/sessions/"+a+"/vars", map[string]any{"index": 0})
	faultinject.Disarm(faultinject.KernelInvariant)
	if code != http.StatusInternalServerError {
		t.Fatalf("injected invariant violation answered %d (%v), want 500", code, out)
	}
	// The response is scrubbed: no stack, no internal detail.
	if msg, _ := out["error"].(string); msg != "internal engine fault" {
		t.Fatalf("500 body leaks internals: %q", msg)
	}

	// The session is poisoned: refused with 409 until deleted.
	out = mustCall(t, "POST", base+"/v1/sessions/"+a+"/vars",
		map[string]any{"index": 1}, http.StatusConflict)
	if msg, _ := out["error"].(string); !strings.Contains(msg, "poisoned") {
		t.Fatalf("409 body does not explain the poisoning: %v", out)
	}
	info := mustCall(t, "GET", base+"/v1/sessions/"+a, nil, http.StatusOK)["info"].(map[string]any)
	if p, _ := info["poisoned"].(bool); !p {
		t.Fatalf("session info does not report poisoned: %v", info)
	}
	if got := srv.metrics.sessionsPoisoned.Load(); got != 1 {
		t.Fatalf("sessionsPoisoned = %d, want 1", got)
	}

	// The other session never noticed.
	apply(t, base, b, "and", hb, mkVar(t, base, b, 1, false))

	// The wreck can be reclaimed, and its id answers 404 afterwards.
	mustCall(t, "DELETE", base+"/v1/sessions/"+a, nil, http.StatusOK)
	mustCall(t, "GET", base+"/v1/sessions/"+a, nil, http.StatusNotFound)
	mkVar(t, base, b, 2, false)
}

// TestCheckpointCrashConsistency fails every stage of the checkpoint
// write path in turn — temp creation, snapshot write, fsync, and each of
// the two commit renames — and proves the invariant the staged-rename
// protocol plus the write-ahead log are designed for: no failure ever
// leaves a torn checkpoint, and no failure loses an acknowledged
// operation. A fresh server pointed at (a copy of) the directory always
// recovers the full mutated handle table: the committed snapshot plus
// the journaled tail, no matter where the checkpoint died.
func TestCheckpointCrashConsistency(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	dir := filepath.Join(t.TempDir(), "cp")
	cfg := Config{CheckpointDir: dir, CheckpointInterval: -1}
	srv, ts := testServer(t, cfg)
	base := ts.URL
	sid := createSession(t, base, SessionOptions{Vars: 16})
	v0 := mkVar(t, base, sid, 0, false)
	v1 := mkVar(t, base, sid, 1, false)
	apply(t, base, sid, "and", v0, v1)
	const baselineHandles = 3

	sess, err := srv.reg.get(sid)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	srv.CheckpointNow()
	if latestSnapshot(dir, sid) == "" {
		t.Fatalf("baseline checkpoint missing")
	}

	// recoveredHandles boots a fresh server process-equivalent on a COPY
	// of the checkpoint directory (the original's WAL segments are still
	// live in this process) and reports the recovered session's handle
	// count, verifying every handle resolves to a live BDD.
	recoveredHandles := func(t *testing.T) int {
		t.Helper()
		cfg2 := cfg
		cfg2.CheckpointDir = copyDurabilityDir(t, dir)
		srv2 := New(cfg2)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv2.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown of recovery server: %v", err)
			}
		}()
		sess2, err := srv2.reg.get(sid)
		if err != nil {
			t.Fatalf("session not recoverable: %v", err)
		}
		var n int
		err = sess2.exec.submit(context.Background(), func(context.Context) error {
			n = len(sess2.st.Handles)
			for h := range sess2.st.Handles {
				if _, err := sess2.st.Get(h); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("recovered handle table broken: %v", err)
		}
		return n
	}

	mutations := 0
	for _, tc := range []struct {
		name  string
		point faultinject.Point
		nth   uint64
	}{
		{"create", faultinject.CheckpointCreate, 1},
		{"write", faultinject.CheckpointWrite, 1},
		{"sync", faultinject.CheckpointSync, 1},
		// Rename call 1 commits the snapshot, call 2 the meta sidecar;
		// failing between them is the torn window the rename ordering
		// must survive (new snapshot committed and authoritative — its
		// name carries its sequence — stale sidecar with an older, still
		// chaining base).
		{"rename-snap", faultinject.CheckpointRename, 1},
		{"rename-meta", faultinject.CheckpointRename, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Mutate the live session so a committed checkpoint would
			// differ from the baseline on disk.
			mkVar(t, base, sid, 2+mutations, false)
			mutations++

			faultinject.Reset()
			faultinject.Arm(tc.point, faultinject.FailNth(tc.nth))
			err := srv.ckpt.checkpointSession(sess)
			faultinject.Reset()
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("checkpoint err = %v, want ErrInjected", err)
			}
			if sess.isPoisoned() {
				t.Fatal("checkpoint failure poisoned the session")
			}

			// No torn or leftover state: the directory holds only committed
			// snapshots of this session, its meta sidecar, and the wal/
			// subtree (staged temps are cleaned by the failed attempt
			// itself). A failure between the two renames legitimately
			// leaves TWO committed snapshots — the newest wins, the stale
			// one is swept by the next successful commit.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				name := e.Name()
				if e.IsDir() && name == "wal" {
					continue
				}
				if id, _, ok := wal.ParseSnapshotName(name); ok && id == sid {
					continue
				}
				if name != sid+metaSuffix {
					t.Fatalf("unexpected file after failed checkpoint: %s", name)
				}
			}

			// Whatever the failure point, recovery loses nothing: the last
			// committed snapshot plus the journaled tail reproduce every
			// acknowledged operation, including the mutations no checkpoint
			// has committed yet.
			if n := recoveredHandles(t); n != baselineHandles+mutations {
				t.Fatalf("recovered %d handles, want %d (baseline %d + %d journaled mutations)",
					n, baselineHandles+mutations, baselineHandles, mutations)
			}
		})
	}

	// The retry loop heals a transient fault by itself: the first attempt
	// fails, the backoff retry commits, and a restart now sees the mutated
	// handle table.
	faultinject.Reset()
	faultinject.Arm(faultinject.CheckpointCreate, faultinject.FailFirst(1))
	retriesBefore := srv.metrics.checkpointRetries.Load()
	if err := srv.ckpt.checkpointWithRetry(sess); err != nil {
		t.Fatalf("retry did not recover from a one-shot fault: %v", err)
	}
	faultinject.Reset()
	if got := srv.metrics.checkpointRetries.Load(); got != retriesBefore+1 {
		t.Fatalf("checkpointRetries = %d, want %d", got, retriesBefore+1)
	}
	if n := recoveredHandles(t); n != baselineHandles+mutations {
		t.Fatalf("recovered %d handles after committed retry, want %d", n, baselineHandles+mutations)
	}
}
