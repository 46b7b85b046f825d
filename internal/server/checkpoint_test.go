package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"bfbdd/internal/wal"
)

// TestSnapshotRestoreHTTP exercises the wire surface: build a function in
// one session, snapshot it over HTTP, restore the stream into a new
// session, and check the restored handle computes the same function.
func TestSnapshotRestoreHTTP(t *testing.T) {
	_, ts := testServer(t, Config{})

	out := mustCall(t, "POST", ts.URL+"/v1/sessions", SessionOptions{Vars: 6}, http.StatusCreated)
	sid := out["session"].(string)
	base := ts.URL + "/v1/sessions/" + sid

	// f = (x0 AND x1) XOR x5
	h0 := mustCall(t, "POST", base+"/vars", map[string]any{"index": 0}, http.StatusOK)["handle"]
	h1 := mustCall(t, "POST", base+"/vars", map[string]any{"index": 1}, http.StatusOK)["handle"]
	h5 := mustCall(t, "POST", base+"/vars", map[string]any{"index": 5}, http.StatusOK)["handle"]
	and := mustCall(t, "POST", base+"/apply", map[string]any{"op": "and", "f": h0, "g": h1}, http.StatusOK)["handle"]
	f := mustCall(t, "POST", base+"/apply", map[string]any{"op": "xor", "f": and, "g": h5}, http.StatusOK)["handle"]

	resp, err := http.Post(base+"/snapshot", "", nil)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d, err %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("snapshot content type %q", ct)
	}

	resp, err = http.Post(ts.URL+"/v1/sessions/restore?engine=df", "application/octet-stream",
		bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	var restored struct {
		Info    sessionInfo `json:"info"`
		Handles []uint64    `json:"handles"`
	}
	if err := jsonDecode(resp, &restored); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("restore: status %d, err %v", resp.StatusCode, err)
	}
	if restored.Info.Vars != 6 || restored.Info.Engine != "df" {
		t.Fatalf("restored info = %+v", restored.Info)
	}
	if len(restored.Handles) != 5 {
		t.Fatalf("restored handles = %v, want the 5 originals", restored.Handles)
	}
	base2 := ts.URL + "/v1/sessions/" + restored.Info.Session

	// The restored f must agree with the original on every assignment.
	for mask := 0; mask < 64; mask++ {
		a := make([]bool, 6)
		for i := range a {
			a[i] = mask>>i&1 == 1
		}
		q := map[string]any{"kind": "eval", "f": f, "assignment": a}
		want := mustCall(t, "POST", base+"/query", q, http.StatusOK)["value"]
		got := mustCall(t, "POST", base2+"/query", q, http.StatusOK)["value"]
		if got != want {
			t.Fatalf("assignment %06b: restored=%v original=%v", mask, got, want)
		}
	}

	// Restoring under an id that is already live must 409.
	resp, err = http.Post(ts.URL+"/v1/sessions/restore?session="+sid, "application/octet-stream",
		bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("dup restore: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("restore onto live id: status %d, want 409", resp.StatusCode)
	}

	// Garbage must 400 with a typed message, not 500.
	resp, err = http.Post(ts.URL+"/v1/sessions/restore", "application/octet-stream",
		strings.NewReader("definitely not a snapshot stream"))
	if err != nil {
		t.Fatalf("garbage restore: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage restore: status %d, want 400", resp.StatusCode)
	}
}

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// buildAchilles constructs f = OR of (a_i AND b_i) over pairs pairs with
// all a variables ordered before all b variables — the classic
// order-sensitive function whose BDD has ~2^(pairs+1) nodes, used to push
// a session past the acceptance threshold.
func buildAchilles(t *testing.T, sess *session, pairs int) (handle uint64) {
	t.Helper()
	err := sess.exec.submit(context.Background(), func(context.Context) error {
		m := sess.mgr
		f := m.Zero()
		for i := 0; i < pairs; i++ {
			f = f.Or(m.Var(i).And(m.Var(pairs + i)))
		}
		handle = sess.st.Put(f)
		return nil
	})
	if err != nil {
		t.Fatalf("build achilles: %v", err)
	}
	return handle
}

// TestCheckpointCrashRecovery is the acceptance scenario: a session with
// well over 10^5 live nodes is checkpointed, the server dies without any
// graceful shutdown, and a new server over the same directory recovers
// the session — same id, same handle, bit-identical Eval and SatCount —
// with no more live nodes than before the snapshot.
func TestCheckpointCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a quarter-million-node BDD")
	}
	dir := t.TempDir()
	const pairs = 17 // ~2^18 = 262144 nodes under the a…ab…b order

	srv1 := New(Config{CheckpointDir: dir})
	sess, err := srv1.reg.create(SessionOptions{Vars: 2 * pairs})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id := sess.id
	h := buildAchilles(t, sess, pairs)

	var (
		preNodes uint64
		satCount string
		samples  [][]bool
		values   []bool
	)
	rng := rand.New(rand.NewSource(1))
	err = sess.exec.submit(context.Background(), func(context.Context) error {
		b := sess.st.Handles[h]
		preNodes = sess.mgr.NumNodes()
		satCount = b.SatCount().String()
		for i := 0; i < 64; i++ {
			a := make([]bool, 2*pairs)
			for j := range a {
				a[j] = rng.Intn(2) == 0
			}
			samples = append(samples, a)
			values = append(values, b.Eval(a))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("record pre-crash state: %v", err)
	}
	if preNodes < 1e5 {
		t.Fatalf("test function too small: %d live nodes, need >= 1e5", preNodes)
	}

	srv1.CheckpointNow()
	if srv1.metrics.checkpointsWritten.Load() == 0 || srv1.metrics.checkpointErrors.Load() != 0 {
		t.Fatalf("checkpoint counters: written=%d errors=%d",
			srv1.metrics.checkpointsWritten.Load(), srv1.metrics.checkpointErrors.Load())
	}

	// Crash: tear the process state down with no graceful shutdown and no
	// final checkpoint pass — only what CheckpointNow committed survives.
	if err := srv1.reg.closeAll(context.Background()); err != nil {
		t.Fatalf("simulated crash teardown: %v", err)
	}
	close(srv1.janitorStop)
	if srv1.ckpt != nil {
		srv1.ckpt.shutdown()
	}

	srv2 := New(Config{CheckpointDir: dir})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv2.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	if got := srv2.metrics.sessionsRecovered.Load(); got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
	sess2, err := srv2.reg.get(id)
	if err != nil {
		t.Fatalf("recovered session not found under original id: %v", err)
	}

	err = sess2.exec.submit(context.Background(), func(context.Context) error {
		b, err := sess2.st.Get(h)
		if err != nil {
			return fmt.Errorf("original handle gone: %w", err)
		}
		if got := sess2.mgr.NumNodes(); got > preNodes {
			return fmt.Errorf("restore grew the store: %d > %d live nodes", got, preNodes)
		}
		if got := b.SatCount().String(); got != satCount {
			return fmt.Errorf("SatCount drifted: %s != %s", got, satCount)
		}
		for i, a := range samples {
			if b.Eval(a) != values[i] {
				return fmt.Errorf("Eval(sample %d) drifted", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRemovedOnDelete checks the lifecycle hooks: deleting or
// expiring a session removes its checkpoint files so recovery cannot
// resurrect it, while graceful shutdown leaves files in place.
func TestCheckpointRemovedOnDelete(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{CheckpointDir: dir})

	sessA, err := srv.reg.create(SessionOptions{Vars: 4})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	sessB, err := srv.reg.create(SessionOptions{Vars: 4})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	srv.CheckpointNow()

	exists := func(id string) bool {
		return latestSnapshot(dir, id) != ""
	}
	if !exists(sessA.id) || !exists(sessB.id) {
		t.Fatalf("checkpoints missing after CheckpointNow")
	}

	if err := srv.reg.closeSession(sessA.id); err != nil {
		t.Fatalf("close: %v", err)
	}
	if exists(sessA.id) {
		t.Fatalf("deleted session's checkpoint survived")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !exists(sessB.id) {
		t.Fatalf("graceful shutdown removed the checkpoint")
	}

	// A new server recovers only the surviving session.
	srv2 := New(Config{CheckpointDir: dir})
	defer srv2.Shutdown(context.Background())
	if _, err := srv2.reg.get(sessB.id); err != nil {
		t.Fatalf("surviving session not recovered: %v", err)
	}
	if _, err := srv2.reg.get(sessA.id); err == nil {
		t.Fatalf("deleted session came back from the dead")
	}
}

// TestCheckpointCannotResurrectClosedSession pins the checkpoint/delete
// TOCTOU window: a session closed after its executor snapshot completes
// but before the files are renamed into place must NOT have the stale
// checkpoint committed — the onClose deletion is final, and the next
// startup must not recover the session. The window is forced open by
// wedging the executor so the id sits mid-close while a checkpoint runs.
func TestCheckpointCannotResurrectClosedSession(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{CheckpointDir: dir})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	sess, err := srv.reg.create(SessionOptions{Vars: 4})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id := sess.id
	srv.CheckpointNow()
	snapPath := latestSnapshot(dir, id)
	if snapPath == "" {
		t.Fatalf("checkpoint missing after CheckpointNow")
	}

	// Wedge the executor so close() blocks draining, holding the id in the
	// closing set while the checkpoint below races it.
	gate := make(chan struct{})
	if _, err := sess.exec.start(context.Background(), func(context.Context) error {
		<-gate
		return nil
	}); err != nil {
		t.Fatalf("gate task: %v", err)
	}
	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.reg.closeSession(id) }()
	for {
		if _, err := srv.reg.get(id); err != nil {
			break
		}
		runtime.Gosched()
	}

	// Checkpoint the session that is now mid-close. If the executor still
	// accepts the snapshot task it runs during the drain — before the
	// onClose hook deletes the files — which is exactly the race: the
	// commit-time liveness re-check must discard the result either way.
	ckptDone := make(chan error, 1)
	go func() { ckptDone <- srv.ckpt.checkpointSession(sess) }()
	close(gate)
	if err := <-closeDone; err != nil {
		t.Fatalf("closeSession: %v", err)
	}
	if err := <-ckptDone; err == nil {
		t.Fatalf("checkpoint of a mid-close session reported success")
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Fatalf("deleted session's checkpoint resurrected (stat: %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, id+metaSuffix)); !os.IsNotExist(err) {
		t.Fatalf("deleted session's meta sidecar resurrected")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read dir: %v", err)
	}
	for _, e := range entries {
		// The wal/ subdirectory persists (it holds other sessions' logs in
		// general); the deleted session's own files must all be gone.
		if e.Name() != "wal" {
			t.Fatalf("checkpoint dir not clean after discarded checkpoint: %v", entries)
		}
	}
	if segs, _ := os.ReadDir(filepath.Join(dir, "wal")); len(segs) != 0 {
		t.Fatalf("deleted session's wal segments survived: %v", segs)
	}
}

// TestRecoverySurvivesCorruptCheckpoint: a truncated checkpoint must not
// stop the server from starting or from recovering its healthy siblings.
func TestRecoverySurvivesCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{CheckpointDir: dir})
	sess, err := srv.reg.create(SessionOptions{Vars: 4})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	srv.CheckpointNow()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Truncate a copy of the good checkpoint under a second id, at the
	// same snapshot sequence its meta sidecar records so the pair chains
	// and recovery reaches the corrupt bytes themselves.
	goodSnap := latestSnapshot(dir, sess.id)
	if goodSnap == "" {
		t.Fatal("no committed snapshot to corrupt")
	}
	good, err := os.ReadFile(goodSnap)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	meta, err := os.ReadFile(filepath.Join(dir, sess.id+metaSuffix))
	if err != nil {
		t.Fatalf("read meta: %v", err)
	}
	var mm struct {
		WalBaseSeq uint64 `json:"wal_base_seq"`
	}
	if err := json.Unmarshal(meta, &mm); err != nil {
		t.Fatalf("parse meta: %v", err)
	}
	badID := "s-c044c044c044c044"
	os.WriteFile(filepath.Join(dir, wal.SnapshotName(badID, mm.WalBaseSeq)), good[:len(good)/2], 0o644)
	os.WriteFile(filepath.Join(dir, badID+metaSuffix), meta, 0o644)
	// And an orphaned temp file from a "crash mid-checkpoint".
	os.WriteFile(filepath.Join(dir, ".s-x.tmp-123"), []byte("partial"), 0o644)

	srv2 := New(Config{CheckpointDir: dir})
	defer srv2.Shutdown(context.Background())
	if _, err := srv2.reg.get(sess.id); err != nil {
		t.Fatalf("healthy session not recovered: %v", err)
	}
	if _, err := srv2.reg.get(badID); err == nil {
		t.Fatalf("corrupt checkpoint produced a session")
	}
	if srv2.metrics.checkpointErrors.Load() == 0 {
		t.Fatalf("corrupt checkpoint not counted as an error")
	}
	if _, err := os.Stat(filepath.Join(dir, ".s-x.tmp-123")); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file not swept")
	}
}
