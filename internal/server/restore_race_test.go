package server

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// snapshotOf serializes a session's current state for restore tests.
func snapshotOf(t *testing.T, sess *session) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := sess.exec.submit(context.Background(), func(context.Context) error {
		return sess.snapshotTo(&buf)
	})
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestRestoreRefusedMidClose pins the teardown window semantics: while a
// session's close is draining (after it left the registry, before its
// manager is released), a restore under the same id must be refused with
// errSessionClosing — never allowed to resurrect the id mid-teardown —
// and must succeed once the teardown completes.
func TestRestoreRefusedMidClose(t *testing.T) {
	srv := New(Config{})
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
	err = sess.exec.submit(context.Background(), func(context.Context) error {
		sess.st.Put(sess.mgr.Var(0).And(sess.mgr.Var(1)))
		return nil
	})
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	stream := snapshotOf(t, sess)

	// Wedge the executor so close() blocks draining, holding the session
	// in the closing set.
	gate := make(chan struct{})
	if _, err := sess.exec.start(context.Background(), func(context.Context) error {
		<-gate
		return nil
	}); err != nil {
		t.Fatalf("gate task: %v", err)
	}
	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.reg.closeSession(id) }()

	// Wait until closeSession has removed the id from the live map; from
	// that instant until closeDone, the id is mid-close.
	for {
		if _, err := srv.reg.get(id); err != nil {
			break
		}
		runtime.Gosched()
	}
	if _, err := srv.reg.restore(id, SessionOptions{}, bytes.NewReader(stream), nil); !errors.Is(err, errSessionClosing) {
		t.Fatalf("restore mid-close: err = %v, want errSessionClosing", err)
	}

	close(gate)
	if err := <-closeDone; err != nil {
		t.Fatalf("closeSession: %v", err)
	}
	restored, err := srv.reg.restore(id, SessionOptions{}, bytes.NewReader(stream), nil)
	if err != nil {
		t.Fatalf("restore after close: %v", err)
	}
	if restored.id != id {
		t.Fatalf("restored under id %s, want %s", restored.id, id)
	}
	if len(restored.st.Handles) != 1 {
		t.Fatalf("restored %d handles, want 1", len(restored.st.Handles))
	}
}

// TestRestoreExpiryRaceStress hammers the expiry/restore/delete collision
// under the race detector: many goroutines restoring a fixed session id
// while others expire and delete it. Every outcome must be one of the
// defined ones (success, exists, closing, no-session), the registry must
// never hold two sessions for the id, and no access may race.
func TestRestoreExpiryRaceStress(t *testing.T) {
	srv := New(Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	seed, err := srv.reg.create(SessionOptions{Vars: 4})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	err = seed.exec.submit(context.Background(), func(context.Context) error {
		seed.st.Put(seed.mgr.Var(0).Or(seed.mgr.Var(3)))
		return nil
	})
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	stream := snapshotOf(t, seed)
	id := seed.id

	const (
		restorers = 4
		rounds    = 50
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < restorers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := srv.reg.restore(id, SessionOptions{}, bytes.NewReader(stream), nil)
				switch {
				case err == nil,
					errors.Is(err, errSessionExists),
					errors.Is(err, errSessionClosing),
					errors.Is(err, errServerClosed):
				default:
					t.Errorf("restore: unexpected error %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// Expire everything currently idle (ttl 0 = everything), and
			// also exercise the explicit-delete path.
			srv.reg.expireIdle(0)
			err := srv.reg.closeSession(id)
			if err != nil && !errors.Is(err, errNoSession) {
				t.Errorf("closeSession: unexpected error %v", err)
				return
			}
			runtime.Gosched()
		}
		close(stop)
	}()
	wg.Wait()

	// The registry must be consistent: the id is either absent or one live
	// session, and a fresh restore eventually succeeds again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := srv.reg.restore(id, SessionOptions{}, bytes.NewReader(stream), nil)
		if err == nil || errors.Is(err, errSessionExists) {
			break
		}
		if !errors.Is(err, errSessionClosing) {
			t.Fatalf("post-stress restore: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("id stuck in closing state after stress")
		}
		runtime.Gosched()
	}
	if _, err := srv.reg.get(id); err != nil {
		t.Fatalf("final get: %v", err)
	}
}
