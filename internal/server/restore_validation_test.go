package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/url"
	"testing"

	"bfbdd"
)

// emptySessionStream builds a minimal valid snapshot (4 vars, no roots)
// so validation tests fail on the field under test, not on the stream.
func emptySessionStream(t *testing.T) []byte {
	t.Helper()
	m := bfbdd.New(4)
	defer m.Close()
	var buf bytes.Buffer
	if err := m.SnapshotRoots(&buf, nil); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestRestoreRejectsMalformedSessionID pins the explicit-id surface: the
// checkpointer embeds session ids in file names (remove() does
// filepath.Join(dir, id+".snap")), so an id like "../../victim" must be
// refused at the registry before it can name a path — and the HTTP layer
// must surface that as 400, never echo it into file operations.
func TestRestoreRejectsMalformedSessionID(t *testing.T) {
	srv, ts := testServer(t, Config{})
	stream := emptySessionStream(t)

	bad := []string{
		"../../etc/passwd",
		"..",
		"a/b",
		`a\b`,
		"s-0123456789abcdeg",  // non-hex digit
		"s-0123456789abcde",   // too short
		"s-0123456789abcdef0", // too long
		"S-0123456789ABCDEF",  // wrong case
		"plain",
		"s-../../0123456789",
	}
	for _, id := range bad {
		if _, err := srv.reg.restore(id, SessionOptions{}, bytes.NewReader(stream), nil); !errors.Is(err, errBadRequest) {
			t.Errorf("restore(%q): err = %v, want errBadRequest", id, err)
		}
	}

	// Over the wire: a traversal id must come back 400 with no session
	// created.
	resp, err := http.Post(ts.URL+"/v1/sessions/restore?session="+url.QueryEscape("../../victim"),
		"application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("traversal session id: status %d, want 400", resp.StatusCode)
	}
	if n := srv.reg.count(); n != 0 {
		t.Fatalf("traversal session id left %d registry entries", n)
	}

	// A well-formed explicit id is still accepted.
	sess, err := srv.reg.restore("s-00000000deadbeef", SessionOptions{}, bytes.NewReader(stream), nil)
	if err != nil {
		t.Fatalf("restore with well-formed id: %v", err)
	}
	if sess.id != "s-00000000deadbeef" {
		t.Fatalf("restored under id %q", sess.id)
	}
}

// TestRestoreRejectsHugeHandleID: NextHandle starts at the largest
// restored handle id, so a snapshot claiming an id at the uint64 ceiling
// would make the next Put wrap to a restored handle and silently
// replace it. Such snapshots are refused outright.
func TestRestoreRejectsHugeHandleID(t *testing.T) {
	srv := New(Config{})
	defer srv.Shutdown(context.Background())

	m := bfbdd.New(4)
	defer m.Close()
	f := m.Var(0).And(m.Var(1))
	var buf bytes.Buffer
	if err := m.SnapshotRoots(&buf, []bfbdd.SnapshotRoot{{ID: math.MaxUint64, B: f}}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if _, err := srv.reg.restore("", SessionOptions{}, bytes.NewReader(buf.Bytes()), nil); !errors.Is(err, errBadRequest) {
		t.Fatalf("restore with handle MaxUint64: err = %v, want errBadRequest", err)
	}
	if n := srv.reg.count(); n != 0 {
		t.Fatalf("rejected restore left %d registry entries", n)
	}
}
