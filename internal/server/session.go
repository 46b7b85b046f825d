package server

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bfbdd"
	"bfbdd/internal/core"
	"bfbdd/internal/faultinject"
	"bfbdd/internal/snapshot"
	"bfbdd/internal/trace"
	"bfbdd/internal/wal"
	"bfbdd/internal/walreplay"
)

var (
	errBadRequest      = errors.New("bad request")
	errNoSession       = errors.New("no such session")
	errSessionClosing  = errors.New("session is mid-close")
	errSessionExists   = errors.New("session already exists")
	errTooManySessions = errors.New("session limit reached")
	errServerClosed    = errors.New("server is shutting down")
	errNoHandle        = walreplay.ErrNoHandle
	// errSessionPoisoned marks a session whose engine hit an internal
	// fault: its in-memory state can no longer be trusted, so every
	// subsequent operation is refused until the client deletes it (or
	// restores a fresh session from the last good checkpoint).
	errSessionPoisoned = errors.New("session poisoned by internal engine fault")
	// errTooLarge is a 413: a request body over its route's byte limit,
	// or an eval batch over the assignment cap.
	errTooLarge = errors.New("request too large")
)

// SessionOptions is the wire shape of a session-creation request: the
// full option surface of bfbdd.New.
type SessionOptions struct {
	Vars          int     `json:"vars"`
	Engine        string  `json:"engine,omitempty"`         // df|bf|hybrid|pbf|par (default pbf)
	Workers       int     `json:"workers,omitempty"`        // par only
	GCPolicy      string  `json:"gc_policy,omitempty"`      // compact|freelist
	CacheBits     uint    `json:"cache_bits,omitempty"`     // 2^bits compute-cache entries per level
	EvalThreshold int     `json:"eval_threshold,omitempty"` // partial-BF evaluation threshold
	GroupSize     int     `json:"group_size,omitempty"`     // ops per stealable group
	GCGrowth      float64 `json:"gc_growth,omitempty"`
	GCMinNodes    uint64  `json:"gc_min_nodes,omitempty"`
	NoStealing    bool    `json:"no_stealing,omitempty"`
	// MaxNodes / MaxBytes are the session's engine budget (see
	// bfbdd.WithMaxNodes / WithMaxBytes): a build that would exceed them
	// degrades and then aborts with a budget error instead of taking the
	// process down. Both are clamped to the server-wide per-session caps
	// (Config.SessionMaxNodes / SessionMaxBytes), which also apply when
	// the request asks for no budget at all.
	MaxNodes uint64 `json:"max_nodes,omitempty"`
	MaxBytes uint64 `json:"max_bytes,omitempty"`
}

// options validates the request against the server's limits and lowers it
// to bfbdd options. Validation happens before any allocation so a
// malformed request cannot cost the server memory.
func (o SessionOptions) options(cfg Config) (engine bfbdd.Engine, opts []bfbdd.Option, err error) {
	if o.Vars <= 0 || o.Vars > cfg.MaxVars {
		return 0, nil, fmt.Errorf("%w: vars %d out of range [1,%d]", errBadRequest, o.Vars, cfg.MaxVars)
	}
	return o.engineOptions(cfg)
}

// engineOptions is options without the Vars check, for the restore path
// where the variable count comes from the snapshot stream (and is
// validated against cfg.MaxVars by peeking the stream header before any
// manager is built).
func (o SessionOptions) engineOptions(cfg Config) (engine bfbdd.Engine, opts []bfbdd.Option, err error) {
	engine = bfbdd.EnginePBF
	if o.Engine != "" {
		if engine, err = core.ParseEngine(o.Engine); err != nil {
			return 0, nil, fmt.Errorf("%w: unknown engine %q", errBadRequest, o.Engine)
		}
	}
	opts = append(opts, bfbdd.WithEngine(engine))
	if o.Workers != 0 {
		if o.Workers < 0 || o.Workers > cfg.MaxWorkers {
			return 0, nil, fmt.Errorf("%w: workers %d out of range [1,%d]", errBadRequest, o.Workers, cfg.MaxWorkers)
		}
		opts = append(opts, bfbdd.WithWorkers(o.Workers))
	}
	if o.GCPolicy != "" {
		p, err := core.ParseGCPolicy(o.GCPolicy)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: unknown gc_policy %q", errBadRequest, o.GCPolicy)
		}
		opts = append(opts, bfbdd.WithGCPolicy(p))
	}
	if o.CacheBits != 0 {
		if o.CacheBits > 24 {
			return 0, nil, fmt.Errorf("%w: cache_bits %d out of range [1,24]", errBadRequest, o.CacheBits)
		}
		opts = append(opts, bfbdd.WithCacheBits(o.CacheBits))
	}
	if o.EvalThreshold != 0 {
		if o.EvalThreshold < 0 {
			return 0, nil, fmt.Errorf("%w: eval_threshold must be positive", errBadRequest)
		}
		opts = append(opts, bfbdd.WithEvalThreshold(o.EvalThreshold))
	}
	if o.GroupSize != 0 {
		if o.GroupSize < 0 {
			return 0, nil, fmt.Errorf("%w: group_size must be positive", errBadRequest)
		}
		opts = append(opts, bfbdd.WithGroupSize(o.GroupSize))
	}
	if o.GCGrowth != 0 {
		if o.GCGrowth < 1 {
			return 0, nil, fmt.Errorf("%w: gc_growth must be > 1", errBadRequest)
		}
		opts = append(opts, bfbdd.WithGCGrowth(o.GCGrowth))
	}
	if o.GCMinNodes != 0 {
		opts = append(opts, bfbdd.WithGCMinNodes(o.GCMinNodes))
	}
	if o.NoStealing {
		opts = append(opts, bfbdd.WithStealing(false))
	}
	// Budgets: the effective limit is the tighter of what the client asked
	// for and the server-wide per-session cap. A cap with no client budget
	// still applies — sessions cannot opt out of the server's ceiling.
	maxNodes := clampBudget(o.MaxNodes, cfg.SessionMaxNodes)
	maxBytes := clampBudget(o.MaxBytes, cfg.SessionMaxBytes)
	if maxNodes != 0 {
		opts = append(opts, bfbdd.WithMaxNodes(maxNodes))
	}
	if maxBytes != 0 {
		opts = append(opts, bfbdd.WithMaxBytes(maxBytes))
	}
	return engine, opts, nil
}

// clampBudget combines a requested budget with a server cap; zero means
// unlimited on both sides.
func clampBudget(req, cap uint64) uint64 {
	switch {
	case cap == 0:
		return req
	case req == 0 || req > cap:
		return cap
	default:
		return req
	}
}

// sessionStats is the snapshot the executor refreshes after every task;
// the metrics endpoint reads it lock-free so a scrape never blocks behind
// a long build.
type sessionStats struct {
	bfbdd.Stats
	Pins    int
	Handles int
}

// session owns one bfbdd.Manager, its wire-visible handle table, its
// serialized executor, and its apply coalescer. The handle table is
// touched only on the executor goroutine.
type session struct {
	id      string
	engine  bfbdd.Engine
	vars    int
	created time.Time

	// opts is the wire request the session was created (or restored)
	// with; the checkpointer persists it as the meta sidecar so recovery
	// rebuilds the session under the same engine configuration.
	opts SessionOptions

	mgr  *bfbdd.Manager
	exec *executor
	coal *coalescer
	m    *metrics

	// wal, when non-nil, is the session's write-ahead operation log:
	// every mutating handler journals its operation (with the wire handle
	// it produced) before acknowledging, so startup recovery can rebuild
	// the session as newest checkpoint + replayed tail. Appends are
	// serialized by the log's own mutex; most come from the executor
	// goroutine, close and publish records from handler goroutines.
	wal *wal.Log

	// ship, when non-nil, runs after every successful journal append with
	// the log's new chain head. The server points it at the replication
	// hub so long-polling followers wake the moment records commit (and,
	// under -wal-sync=always, so the acknowledgment can gate on delivery
	// to every connected follower). Set wherever wal is attached, before
	// the session serves requests.
	ship func(seq uint64)

	// poisoned latches when the engine reports an internal fault (an
	// invariant violation or an unclassifiable panic). A poisoned session
	// keeps serving 409s so the client sees a stable, diagnosable state,
	// is skipped by the checkpointer (its last good checkpoint must stay
	// authoritative), and is only ever reclaimed by an explicit delete or
	// idle expiry. Budget aborts and cancellations do NOT poison: the
	// kernel unwinds those to a consistent, reusable manager.
	poisoned atomic.Bool

	// slowThreshold, when positive, logs the build report of any engine
	// build that takes longer (Config.SlowBuildThreshold). It is
	// independent of trace sampling: the manager forms the report on
	// every build, so it catches unsampled requests too.
	slowThreshold time.Duration

	// lastUsed is the unix-nano time of the last request (idle expiry).
	lastUsed atomic.Int64

	// st is the wire-handle table over mgr and the one place construction
	// records become engine calls, live and in replay alike; executor
	// goroutine only.
	st *walreplay.State

	snap atomic.Pointer[sessionStats]

	closeOnce sync.Once
}

func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: session id entropy unavailable: " + err.Error())
	}
	return "s-" + hex.EncodeToString(b[:])
}

// validSessionID reports whether id matches the generated format ("s-"
// plus 16 lowercase hex digits). Explicit ids supplied by clients are
// held to the same shape: the checkpointer embeds ids in file names, so
// anything looser (path separators, "..", NULs) must never get that far.
func validSessionID(id string) bool {
	if len(id) != 18 || id[0] != 's' || id[1] != '-' {
		return false
	}
	for i := 2; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

func (s *session) idleSince() time.Time {
	return time.Unix(0, s.lastUsed.Load())
}

// poison latches the session into the poisoned state (idempotent).
func (s *session) poison(cause error) {
	if s.poisoned.CompareAndSwap(false, true) {
		if s.m != nil {
			s.m.sessionsPoisoned.Add(1)
		}
		log.Printf("server: session %s poisoned: %v", s.id, cause)
	}
}

func (s *session) isPoisoned() bool { return s.poisoned.Load() }

// noteFailure classifies a failed task's error and poisons the session
// when the failure implies the engine's in-memory state can no longer be
// trusted:
//
//   - a *bfbdd.InternalError (kernel invariant violation) poisons;
//   - a panic on the executor goroutine poisons, unless it is engine
//     misuse (a "bfbdd: " string — the caller's fault, state intact), a
//     budget abort, or an injected fault (both unwind to a consistent
//     manager by design);
//   - every ordinary service or engine error (bad handle, cancellation,
//     budget exhaustion, queue full, ...) leaves the session healthy.
func (s *session) noteFailure(err error) {
	if err == nil {
		return
	}
	var ie *bfbdd.InternalError
	if errors.As(err, &ie) {
		s.poison(err)
		return
	}
	var pe *panicError
	if !errors.As(err, &pe) {
		return
	}
	if msg, ok := pe.val.(string); ok && strings.HasPrefix(msg, "bfbdd: ") {
		return
	}
	var be *bfbdd.BudgetError
	if errors.As(err, &be) || errors.Is(err, faultinject.ErrInjected) {
		return
	}
	s.poison(err)
}

// refreshStats runs on the executor goroutine after every task.
func (s *session) refreshStats() {
	snap := &sessionStats{
		Stats:   s.mgr.Stats(),
		Pins:    s.mgr.Kernel().NumPins(),
		Handles: len(s.st.Handles),
	}
	s.snap.Store(snap)
}

// stats returns the latest lock-free snapshot.
func (s *session) stats() *sessionStats { return s.snap.Load() }

// journal appends recs to the session's WAL as one commit group and
// makes them durable per the configured sync policy before returning.
// With no WAL (persistence disabled) it is a no-op.
func (s *session) journal(recs ...wal.Record) error {
	return s.journalT(nil, 0, recs...)
}

// journalCtx is journal with the request trace (if any) extracted from
// ctx, so a traced mutation records its durability cost.
func (s *session) journalCtx(ctx context.Context, recs ...wal.Record) error {
	t, parent := trace.FromContext(ctx)
	return s.journalT(t, parent, recs...)
}

// journalT is journal under an explicit trace: the group-commit append
// (including the policy's fsync) is recorded as a "wal-commit" span and
// the replication gate — commit notification, plus the wait for
// follower delivery under -wal-sync=always — as a "repl-await" span.
// Both spans are children of parent; t may be nil (untraced).
func (s *session) journalT(t *trace.Trace, parent trace.SpanID, recs ...wal.Record) error {
	if s.wal == nil || len(recs) == 0 {
		return nil
	}
	ws := t.Start(parent, "wal-commit")
	err := s.wal.Append(recs...)
	t.End(ws, trace.I("records", int64(len(recs))))
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if s.ship != nil {
		// Seq() may already reflect a racing later append; shipping a
		// higher watermark is harmless (commit notifications are
		// monotonic and the frames behind it are equally durable).
		seq := s.wal.Seq()
		rs := t.Start(parent, "repl-await")
		s.ship(seq)
		t.End(rs, trace.I("seq", int64(seq)))
	}
	return nil
}

// buildBatch runs ops as one engine build and acknowledges what it
// produced: it logs the build if it was slow, binds every finished result
// under the next wire handle, filling in recs[i].Handle, and journals
// those applies as one commit group (a bare apply record for one
// operation, a batch record otherwise). It returns the results,
// index-aligned with ops and nil where an aborted build did not finish,
// with the build's error. If the journal refuses, nothing was
// acknowledged: every binding is undone, newest first so handle
// numbering rewinds, and the journal error comes back with no results.
// Executor goroutine only; op names the route in the slow-build log.
func (s *session) buildBatch(ctx context.Context, op string, ops []bfbdd.BatchOp, recs []wal.ApplyRec) ([]*bfbdd.BDD, error) {
	t0 := time.Now()
	results, err := s.mgr.ApplyBatchCtx(ctx, ops)
	s.noteSlowBuild(op, time.Since(t0))
	var done []wal.ApplyRec
	for i, b := range results {
		if b != nil {
			recs[i].Handle = s.st.Put(b)
			done = append(done, recs[i])
		}
	}
	var jerr error
	switch len(done) {
	case 0:
	case 1:
		jerr = s.journalCtx(ctx, done[0])
	default:
		jerr = s.journalCtx(ctx, wal.BatchRec{Ops: done})
	}
	if jerr != nil {
		for i := len(done) - 1; i >= 0; i-- {
			s.st.Undo(done[i].Handle)
		}
		return nil, jerr
	}
	return results, err
}

// noteSlowBuild logs the report of the manager's last build when it took
// longer than the session's slow-build threshold. Executor goroutine
// only.
func (s *session) noteSlowBuild(op string, elapsed time.Duration) {
	if s.slowThreshold <= 0 || elapsed < s.slowThreshold {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "server: slow build: session=%s op=%s wall=%v", s.id, op, elapsed.Round(time.Microsecond))
	for _, a := range s.mgr.LastBuild().Attrs() {
		fmt.Fprintf(&b, " %s=%d", a.Key, a.Value)
	}
	log.Print(b.String())
}

// snapshotTo streams the whole session — every wire handle and the
// manager's variable order — in the bfbdd snapshot format. Executor
// goroutine only. Handles are written in ascending order so identical
// session states serialize byte-identically.
func (s *session) snapshotTo(w io.Writer) error {
	ids := s.handleIDs()
	roots := make([]bfbdd.SnapshotRoot, len(ids))
	for i, h := range ids {
		roots[i] = bfbdd.SnapshotRoot{ID: h, B: s.st.Handles[h]}
	}
	return s.mgr.SnapshotRoots(w, roots)
}

// handleIDs lists the live wire handles in ascending order; executor
// goroutine only.
func (s *session) handleIDs() []uint64 {
	ids := make([]uint64, 0, len(s.st.Handles))
	for h := range s.st.Handles {
		ids = append(ids, h)
	}
	slices.Sort(ids)
	return ids
}

// close drains the executor and releases the manager: every pin the
// session created is dropped by Manager.Close, so a closed session can
// never leak nodes. Idempotent.
func (s *session) close() {
	s.closeOnce.Do(func() {
		s.coal.close()
		s.exec.close()
		// The executor goroutine has exited; the handle table and manager
		// are now exclusively ours.
		s.st.Handles = nil
		s.mgr.Close()
		if s.wal != nil {
			if err := s.wal.Close(); err != nil {
				log.Printf("server: closing wal of session %s: %v", s.id, err)
			}
		}
	})
}

// registry is the session pool: creation against the session cap, lookup,
// idle expiry, and shutdown.
type registry struct {
	cfg Config
	m   *metrics

	// onClose, if set, runs after a session is fully closed by an explicit
	// delete or idle expiry (not by server shutdown — a graceful shutdown
	// must leave checkpoints on disk). The checkpointer uses it to remove
	// the session's files.
	onClose func(id string)

	// walCreate, if set, opens a write-ahead log for a freshly created
	// session and journals its creation record before the session is
	// committed; a failure fails the creation (a session the durability
	// layer cannot journal must not be acknowledged).
	walCreate func(s *session) error
	// walAdopt, if set, attaches a fresh write-ahead log to a session
	// restored from a client-supplied snapshot, first purging any stale
	// on-disk state a previous holder of the id left behind. The restored
	// state itself is made durable by the synchronous checkpoint the
	// restore handler takes before acknowledging.
	walAdopt func(s *session) error

	mu       sync.Mutex
	sessions map[string]*session
	// closing holds ids whose close() is still running outside the lock.
	// An id in this set is neither live nor reusable: get() misses it, and
	// create/restore with that explicit id is refused with
	// errSessionClosing rather than racing the teardown. Without it, an
	// idle-expired session could be "resurrected" by a concurrent restore
	// while its manager is mid-Close.
	closing map[string]struct{}
	closed  bool
}

func newRegistry(cfg Config, m *metrics) *registry {
	return &registry{
		cfg:      cfg,
		m:        m,
		sessions: make(map[string]*session),
		closing:  make(map[string]struct{}),
	}
}

func (r *registry) create(o SessionOptions) (*session, error) {
	return r.createAt("", o, true)
}

// createAt is create with an explicit session id (empty generates one);
// startup recovery uses it to rebuild a never-checkpointed session from
// its WAL creation record under the original id. openWAL selects whether
// the walCreate hook runs: live creation journals a fresh log, but
// recovery MUST pass false — opening a log at base zero truncates the
// very segment the recovery is about to replay (the caller attaches the
// log itself, after the replay, at the replayed sequence).
func (r *registry) createAt(id string, o SessionOptions, openWAL bool) (*session, error) {
	engine, opts, err := o.options(r.cfg)
	if err != nil {
		return nil, err
	}
	// Reserve the registry slot before building the manager so a burst of
	// creations cannot overshoot the cap, but allocate outside the lock.
	id, err = r.reserve(id)
	if err != nil {
		return nil, err
	}
	var attach func(*session) error
	if openWAL {
		attach = r.walCreate
	}
	st := walreplay.NewState(bfbdd.New(o.Vars, r.spillOpts(opts, id)...))
	return r.open(id, engine, o, st, attach)
}

// open builds the session around st in the slot reserved for id, runs
// attach (when non-nil) on the finished session, and commits it to the
// registry. A failed attach tears the session down and frees the slot.
func (r *registry) open(id string, engine bfbdd.Engine, o SessionOptions, st *walreplay.State, attach func(*session) error) (*session, error) {
	o.Vars = st.Mgr.NumVars()
	s := &session{
		id:            id,
		engine:        engine,
		vars:          o.Vars,
		opts:          o,
		created:       time.Now(),
		mgr:           st.Mgr,
		st:            st,
		m:             r.m,
		slowThreshold: r.cfg.SlowBuildThreshold,
	}
	s.exec = newExecutor(r.cfg.MaxQueuedPerSession, s.refreshStats)
	s.coal = newCoalescer(s, r.cfg, r.m)
	s.touch()
	s.refreshStats()
	if attach != nil {
		if err := attach(s); err != nil {
			s.close()
			r.release(id)
			return nil, fmt.Errorf("session wal: %w", err)
		}
	}
	if err := r.commit(s); err != nil {
		return nil, err
	}
	return s, nil
}

// commit fills the reserved slot with the finished session, unless the
// registry shut down while the session was being built (closeAll already
// dropped the placeholder, so the session must be torn down here or it
// would outlive the server).
func (r *registry) commit(s *session) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		s.close()
		return errServerClosed
	}
	r.sessions[s.id] = s
	r.mu.Unlock()
	r.m.sessionsCreated.Add(1)
	return nil
}

// reserve claims a registry slot for id (generating one if empty) under
// the session cap, refusing ids that are live or mid-close. The caller
// must either fill the slot or release() it.
func (r *registry) reserve(id string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return "", errServerClosed
	}
	if id == "" {
		id = newSessionID()
	} else {
		if !validSessionID(id) {
			return "", fmt.Errorf("%w: malformed session id %q", errBadRequest, id)
		}
		if _, ok := r.sessions[id]; ok {
			return "", fmt.Errorf("%w: %s", errSessionExists, id)
		}
		if _, ok := r.closing[id]; ok {
			return "", fmt.Errorf("%w: %s", errSessionClosing, id)
		}
	}
	if len(r.sessions) >= r.cfg.MaxSessions {
		return "", fmt.Errorf("%w (max %d)", errTooManySessions, r.cfg.MaxSessions)
	}
	r.sessions[id] = nil // placeholder holds the slot
	return id, nil
}

// spillOpts appends the session's per-id spill directory when memory
// tiering is on: every manager owns <SpillDir>/<id> for its level files,
// created lazily by the kernel and removed when the manager closes. The
// id must be reserved first so two sessions can never share a dir.
func (r *registry) spillOpts(opts []bfbdd.Option, id string) []bfbdd.Option {
	if r.cfg.SpillDir == "" {
		return opts
	}
	return append(opts, bfbdd.WithSpillDir(filepath.Join(r.cfg.SpillDir, id)))
}

func (r *registry) release(id string) {
	r.mu.Lock()
	delete(r.sessions, id)
	r.mu.Unlock()
}

// restore builds a session (under the explicit id, if non-empty) from a
// snapshot stream: the variable count and order and every wire handle
// come from the stream, the engine configuration from o. The stream
// header is peeked and vetted against the server's limits before any
// manager memory is committed. attach, when non-nil, runs on the fully
// built session just before it is committed to the registry — the
// client-restore path passes the registry's walAdopt hook (purge stale
// on-disk state, open a fresh log), replication bootstrap opens a log at
// the snapshot's base sequence. Attaching before commit means the
// session is never visible without its log: no goroutine can observe
// s.wal or s.ship being written. Startup recovery passes nil and
// attaches the recovered log itself before serving begins.
func (r *registry) restore(id string, o SessionOptions, src io.Reader, attach func(*session) error) (*session, error) {
	engine, opts, err := o.engineOptions(r.cfg)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(src, snapshot.HeaderSize)
	hb, err := br.Peek(snapshot.HeaderSize)
	if err != nil {
		return nil, fmt.Errorf("%w: short snapshot header: %v", errBadRequest, err)
	}
	hdr, err := snapshot.ParseHeader(hb)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if hdr.NumVars > r.cfg.MaxVars {
		return nil, fmt.Errorf("%w: snapshot has %d vars, server limit is %d",
			errBadRequest, hdr.NumVars, r.cfg.MaxVars)
	}

	id, err = r.reserve(id)
	if err != nil {
		return nil, err
	}
	mgr, roots, err := bfbdd.RestoreManager(br, r.spillOpts(opts, id)...)
	if err != nil {
		r.release(id)
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	st := walreplay.NewState(mgr)
	for _, rt := range roots {
		if _, dup := st.Handles[rt.ID]; dup {
			mgr.Close()
			r.release(id)
			return nil, fmt.Errorf("%w: duplicate handle %d in snapshot", errBadRequest, rt.ID)
		}
		// NextHandle starts at the largest restored id; an id near the
		// uint64 ceiling would make the next Put wrap to a restored
		// handle and silently replace it. No legitimate snapshot gets
		// anywhere close — handles are allocated sequentially from 1.
		if rt.ID >= 1<<62 {
			mgr.Close()
			r.release(id)
			return nil, fmt.Errorf("%w: handle %d out of range in snapshot", errBadRequest, rt.ID)
		}
		st.Handles[rt.ID] = rt.B
		st.NextHandle = max(st.NextHandle, rt.ID)
	}
	return r.open(id, engine, o, st, attach)
}

func (r *registry) get(id string) (*session, error) {
	r.mu.Lock()
	s, ok := r.sessions[id]
	r.mu.Unlock()
	if !ok || s == nil {
		return nil, fmt.Errorf("%w: %s", errNoSession, id)
	}
	return s, nil
}

// list returns the live sessions (stable order not guaranteed).
func (r *registry) list() []*session {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*session, 0, len(r.sessions))
	for _, s := range r.sessions {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

func (r *registry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// live reports whether id is a committed session that is neither closing
// nor closed. The checkpointer consults it under its commit lock before
// renaming checkpoint files into place, so a checkpoint that raced a
// delete/expiry is discarded instead of resurrecting the session.
func (r *registry) live(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, closing := r.closing[id]; closing {
		return false
	}
	s, ok := r.sessions[id]
	return ok && s != nil
}

// finish completes a teardown started under the closing set: run the
// close, fire the onClose hook, then retire the id so it becomes
// reusable again.
func (r *registry) finish(s *session) {
	s.close()
	if r.onClose != nil {
		r.onClose(s.id)
	}
	r.mu.Lock()
	delete(r.closing, s.id)
	r.mu.Unlock()
}

// discard removes and closes one session without firing the onClose
// hook: startup recovery uses it to tear down a session whose WAL replay
// failed while leaving the on-disk evidence in place for forensics.
func (r *registry) discard(id string) {
	r.mu.Lock()
	s, ok := r.sessions[id]
	if ok && s != nil {
		delete(r.sessions, id)
		r.closing[id] = struct{}{}
	}
	r.mu.Unlock()
	if !ok || s == nil {
		return
	}
	s.close()
	r.mu.Lock()
	delete(r.closing, id)
	r.mu.Unlock()
}

// closeSession removes and closes one session.
func (r *registry) closeSession(id string) error {
	r.mu.Lock()
	s, ok := r.sessions[id]
	if ok && s != nil {
		delete(r.sessions, id)
		r.closing[id] = struct{}{}
	}
	r.mu.Unlock()
	if !ok || s == nil {
		return fmt.Errorf("%w: %s", errNoSession, id)
	}
	r.finish(s)
	return nil
}

// expireIdle closes sessions idle longer than ttl.
func (r *registry) expireIdle(ttl time.Duration) {
	cutoff := time.Now().Add(-ttl)
	var victims []*session
	r.mu.Lock()
	for id, s := range r.sessions {
		if s != nil && s.idleSince().Before(cutoff) {
			delete(r.sessions, id)
			r.closing[id] = struct{}{}
			victims = append(victims, s)
		}
	}
	r.mu.Unlock()
	for _, s := range victims {
		r.finish(s)
		r.m.sessionsExpired.Add(1)
	}
}

// closeAll shuts every session down, draining queued work. It bypasses
// the closing set and the onClose hook on purpose: closed=true already
// blocks every resurrection path, and a graceful shutdown must leave
// checkpoint files on disk for the next process to recover from.
func (r *registry) closeAll(ctx context.Context) error {
	r.mu.Lock()
	r.closed = true
	all := make([]*session, 0, len(r.sessions))
	for id, s := range r.sessions {
		delete(r.sessions, id)
		if s != nil {
			all = append(all, s)
		}
	}
	r.mu.Unlock()
	for _, s := range all {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.close()
	}
	return nil
}
