package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bfbdd"
	"bfbdd/internal/durable"
	"bfbdd/internal/wal"
)

// Published-function errors.
var (
	errNoFunc     = errors.New("no such function")
	errFuncExists = errors.New("function already exists")
	// errFuncPoolFull means publishing would push the artifact registry
	// past its byte pool; artifacts have their own pool and never count
	// against session budgets, so this maps to 413 like a budget abort.
	errFuncPoolFull = errors.New("published-function byte pool exhausted")
)

// artifact is one published compiled function plus its bookkeeping. The
// Func itself is immutable, so the read path touches only it and the
// atomic counters — no locks.
type artifact struct {
	id      string
	fn      *bfbdd.CompiledFunc
	bytes   int64
	created time.Time
	source  string // session the artifact was published from; "" after reload

	evals       atomic.Uint64 // eval requests served
	assignments atomic.Uint64 // assignments evaluated
}

// funcRegistry owns the published artifacts: a lock-free lookup table
// for the eval hot path, a mutex serializing publish/delete/pool
// accounting, and optional disk persistence beside the checkpoints.
type funcRegistry struct {
	maxBytes int64  // 0 = unlimited
	dir      string // "" = memory only
	m        *metrics

	funcs sync.Map // string -> *artifact; the eval path reads only this
	mu    sync.Mutex
	total atomic.Int64 // bytes across all published artifacts
	count atomic.Int64
}

func newFuncRegistry(cfg Config, m *metrics) *funcRegistry {
	fr := &funcRegistry{maxBytes: cfg.MaxFuncBytes, m: m}
	if cfg.CheckpointDir != "" {
		fr.dir = filepath.Join(cfg.CheckpointDir, "funcs")
	}
	return fr
}

func newFuncID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: cannot read random bytes: " + err.Error())
	}
	return "f-" + hex.EncodeToString(b[:])
}

// validFuncID accepts caller-chosen artifact names: short, path-safe,
// and usable verbatim as a file stem.
func validFuncID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// get resolves an artifact id. Lock-free: eval traffic never contends
// with publishes or deletes.
func (fr *funcRegistry) get(id string) (*artifact, error) {
	if v, ok := fr.funcs.Load(id); ok {
		return v.(*artifact), nil
	}
	return nil, fmt.Errorf("%w: %s", errNoFunc, id)
}

// list returns every artifact sorted by id.
func (fr *funcRegistry) list() []*artifact {
	var out []*artifact
	fr.funcs.Range(func(_, v any) bool {
		out = append(out, v.(*artifact))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// publish registers fn under id, persisting it to disk first when a
// directory is configured: an artifact is only visible once it would
// also survive a crash.
func (fr *funcRegistry) publish(id, source string, fn *bfbdd.CompiledFunc) (*artifact, error) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if _, ok := fr.funcs.Load(id); ok {
		return nil, fmt.Errorf("%w: %s", errFuncExists, id)
	}
	a := &artifact{id: id, fn: fn, bytes: fn.MemBytes(), created: time.Now(), source: source}
	if fr.maxBytes > 0 && fr.total.Load()+a.bytes > fr.maxBytes {
		return nil, fmt.Errorf("%w: %d bytes live, %d requested, pool %d",
			errFuncPoolFull, fr.total.Load(), a.bytes, fr.maxBytes)
	}
	if fr.dir != "" {
		err := os.MkdirAll(fr.dir, 0o755)
		if err == nil {
			err = durable.WriteFile(fr.dir, id+".fn", fn.Serialize)
		}
		if err != nil {
			return nil, fmt.Errorf("persisting function %s: %w", id, err)
		}
	}
	fr.funcs.Store(id, a)
	fr.total.Add(a.bytes)
	fr.count.Add(1)
	fr.m.funcsPublished.Add(1)
	return a, nil
}

// remove unpublishes id and deletes its file.
func (fr *funcRegistry) remove(id string) error {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	v, ok := fr.funcs.LoadAndDelete(id)
	if !ok {
		return fmt.Errorf("%w: %s", errNoFunc, id)
	}
	a := v.(*artifact)
	fr.total.Add(-a.bytes)
	fr.count.Add(-1)
	if fr.dir != "" {
		if err := os.Remove(fr.path(id)); err != nil && !os.IsNotExist(err) {
			log.Printf("server: removing artifact file for %s: %v", id, err)
		}
	}
	return nil
}

func (fr *funcRegistry) path(id string) string {
	return filepath.Join(fr.dir, id+".fn")
}

// reload restores every persisted artifact at startup, sweeping
// leftover temp files. Artifacts that fail to decode are renamed aside
// (never deleted — the bytes may still be recoverable) and skipped.
func (fr *funcRegistry) reload() {
	if fr.dir == "" {
		return
	}
	entries, err := os.ReadDir(fr.dir)
	if err != nil {
		if !os.IsNotExist(err) {
			log.Printf("server: reading artifact dir %s: %v", fr.dir, err)
		}
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".") {
			os.Remove(filepath.Join(fr.dir, name))
			continue
		}
		id, ok := strings.CutSuffix(name, ".fn")
		if !ok || !validFuncID(id) {
			continue
		}
		full := filepath.Join(fr.dir, name)
		f, err := os.Open(full)
		if err != nil {
			log.Printf("server: opening artifact %s: %v", full, err)
			continue
		}
		fn, err := bfbdd.LoadCompiled(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		if err != nil {
			log.Printf("server: artifact %s is corrupt, setting aside: %v", full, err)
			os.Rename(full, full+".corrupt")
			fr.m.funcReloadErrors.Add(1)
			continue
		}
		info, _ := e.Info()
		a := &artifact{id: id, fn: fn, bytes: fn.MemBytes(), created: time.Now()}
		if info != nil {
			a.created = info.ModTime()
		}
		fr.funcs.Store(id, a)
		fr.total.Add(a.bytes)
		fr.count.Add(1)
		fr.m.funcsRecovered.Add(1)
	}
}

// funcInfo is the wire shape of one published function.
type funcInfo struct {
	Func    string   `json:"func"`
	Vars    int      `json:"vars"`
	Nodes   int      `json:"nodes"`
	Roots   []uint64 `json:"roots"`
	Bytes   int64    `json:"bytes"`
	Created string   `json:"created"`
	Source  string   `json:"source,omitempty"`
	Evals   uint64   `json:"evals"`
}

func (a *artifact) info() funcInfo {
	return funcInfo{
		Func:    a.id,
		Vars:    a.fn.NumVars(),
		Nodes:   a.fn.NumNodes(),
		Roots:   a.fn.RootIDs(),
		Bytes:   a.bytes,
		Created: a.created.UTC().Format(time.RFC3339Nano),
		Source:  a.source,
		Evals:   a.evals.Load(),
	}
}

// handlePublish compiles session handles into a named immutable artifact.
// The compile itself runs on the session executor (it reads the live
// kernel), but the published artifact is independent of the session: it
// survives session close, expiry, and poisoning, and its bytes live in
// the artifact pool, not the session budget.
func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	if s.refuseWrites(w) {
		return
	}
	sess, err := s.sessionOf(r)
	if err != nil {
		fail(w, err)
		return
	}
	var req struct {
		// Name is the artifact id; generated when empty.
		Name string `json:"name,omitempty"`
		// Handles selects the roots; empty publishes every live handle.
		Handles []uint64 `json:"handles,omitempty"`
	}
	if err := decode(w, r, &req); err != nil {
		fail(w, err)
		return
	}
	id := req.Name
	if id == "" {
		id = newFuncID()
	} else if !validFuncID(id) {
		fail(w, fmt.Errorf("%w: function name must be 1-64 characters of [a-zA-Z0-9_-]", errBadRequest))
		return
	}
	// Refuse early (and again under the publish lock) so a long compile is
	// not wasted on a name collision.
	if _, ok := s.funcs.funcs.Load(id); ok {
		fail(w, fmt.Errorf("%w: %s", errFuncExists, id))
		return
	}
	var fn *bfbdd.CompiledFunc
	err = run(r, sess, func(context.Context) error {
		handles := req.Handles
		if len(handles) == 0 {
			handles = sess.handleIDs()
		}
		if len(handles) == 0 {
			return fmt.Errorf("%w: session has no handles to publish", errBadRequest)
		}
		roots := make([]bfbdd.SnapshotRoot, len(handles))
		for i, h := range handles {
			b, err := sess.st.Get(h)
			if err != nil {
				return err
			}
			roots[i] = bfbdd.SnapshotRoot{ID: h, B: b}
		}
		var cerr error
		fn, cerr = sess.mgr.CompileRoots(roots)
		return cerr
	})
	if err != nil {
		fail(w, err)
		return
	}
	a, err := s.funcs.publish(id, sess.id, fn)
	if err != nil {
		fail(w, err)
		return
	}
	// Audit record: the artifact has its own durable file, so the journal
	// entry only documents provenance in the session's history — a failure
	// must not unpublish what the artifact registry already committed.
	_ = sess.journal(wal.PublishRec{Name: id, Handles: req.Handles})
	s.metrics.funcBytesPublished.Add(uint64(a.bytes))
	writeJSON(w, http.StatusCreated, a.info())
}

func (s *Server) handleListFuncs(w http.ResponseWriter, r *http.Request) {
	arts := s.funcs.list()
	out := make([]funcInfo, 0, len(arts))
	for _, a := range arts {
		out = append(out, a.info())
	}
	writeJSON(w, http.StatusOK, map[string]any{"funcs": out})
}

func (s *Server) handleGetFunc(w http.ResponseWriter, r *http.Request) {
	a, err := s.funcs.get(r.PathValue("fid"))
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, a.info())
}

func (s *Server) handleDeleteFunc(w http.ResponseWriter, r *http.Request) {
	if s.refuseWrites(w) {
		return
	}
	id := r.PathValue("fid")
	if err := s.funcs.remove(id); err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

// handleEvalFunc is the lock-free batch evaluation endpoint: it never
// touches a session, an executor, or any lock — artifact lookup is a
// sync.Map read and evaluation runs on the immutable Func, so any number
// of eval requests proceed fully in parallel. Oversized bodies and
// over-cap batches are refused with 413.
func (s *Server) handleEvalFunc(w http.ResponseWriter, r *http.Request) {
	a, err := s.funcs.get(r.PathValue("fid"))
	if err != nil {
		fail(w, err)
		return
	}
	body, err := readBody(w, r, s.cfg.MaxEvalBodyBytes)
	if err != nil {
		fail(w, err)
		return
	}
	req, err := parseEvalRequest(body)
	if err != nil {
		fail(w, err)
		return
	}
	if len(req.Assignments) == 0 {
		fail(w, fmt.Errorf("%w: no assignments", errBadRequest))
		return
	}
	if len(req.Assignments) > s.cfg.MaxEvalBatch {
		fail(w, fmt.Errorf("%w: batch of %d assignments exceeds cap %d",
			errTooLarge, len(req.Assignments), s.cfg.MaxEvalBatch))
		return
	}
	root := 0
	if req.Root != nil {
		var ok bool
		if root, ok = a.fn.RootByID(*req.Root); !ok {
			fail(w, fmt.Errorf("%w: artifact has no root %d", errBadRequest, *req.Root))
			return
		}
	} else if a.fn.NumRoots() == 0 {
		fail(w, fmt.Errorf("%w: artifact has no roots", errBadRequest))
		return
	}
	for i, asn := range req.Assignments {
		if len(asn) != a.fn.NumVars() {
			fail(w, fmt.Errorf("%w: assignment %d has %d entries for %d variables",
				errBadRequest, i, len(asn), a.fn.NumVars()))
			return
		}
	}
	values := a.fn.EvalBatch(root, req.Assignments)
	a.evals.Add(1)
	a.assignments.Add(uint64(len(values)))
	s.metrics.funcEvalRequests.Add(1)
	s.metrics.funcEvalAssignments.Add(uint64(len(values)))
	s.metrics.funcBatchSizes.observe(len(values))
	writeJSON(w, http.StatusOK, map[string]any{"values": values})
}

// handleQueryFunc serves the artifact's analytical queries (satcount,
// anysat). Like eval, it runs entirely on the immutable artifact.
func (s *Server) handleQueryFunc(w http.ResponseWriter, r *http.Request) {
	a, err := s.funcs.get(r.PathValue("fid"))
	if err != nil {
		fail(w, err)
		return
	}
	var req struct {
		Kind string  `json:"kind"` // satcount | anysat
		Root *uint64 `json:"root,omitempty"`
	}
	if err := decode(w, r, &req); err != nil {
		fail(w, err)
		return
	}
	root := 0
	if req.Root != nil {
		var ok bool
		if root, ok = a.fn.RootByID(*req.Root); !ok {
			fail(w, fmt.Errorf("%w: artifact has no root %d", errBadRequest, *req.Root))
			return
		}
	} else if a.fn.NumRoots() == 0 {
		fail(w, fmt.Errorf("%w: artifact has no roots", errBadRequest))
		return
	}
	switch req.Kind {
	case "satcount":
		writeJSON(w, http.StatusOK, map[string]string{"satcount": a.fn.SatCount(root).String()})
	case "anysat":
		asn, ok := a.fn.AnySat(root)
		out := make(map[string]bool, len(asn))
		for v, val := range asn {
			out[fmt.Sprint(v)] = val
		}
		writeJSON(w, http.StatusOK, map[string]any{"sat": ok, "assignment": out})
	default:
		fail(w, fmt.Errorf("%w: unknown query kind %q", errBadRequest, req.Kind))
	}
}

// handleDownloadFunc streams the artifact in its wire format, so a
// client (or `bfbdd func`) can evaluate it offline.
func (s *Server) handleDownloadFunc(w http.ResponseWriter, r *http.Request) {
	a, err := s.funcs.get(r.PathValue("fid"))
	if err != nil {
		fail(w, err)
		return
	}
	var buf bytes.Buffer
	if err := a.fn.Serialize(&buf); err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = buf.WriteTo(w)
}
