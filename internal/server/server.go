// Package server is the concurrent service layer over the bfbdd engine:
// an HTTP/JSON API that owns a pool of session-scoped BDD managers and
// exposes the full public construction and query API over the wire.
//
// The serving core maps client concurrency onto the engine the way the
// paper's §4.1 usage mode intends: each session's operations are
// serialized through a per-session executor (one slow build never blocks
// other sessions, and the single-writer discipline the Manager requires is
// enforced structurally), while independent binary applies that arrive
// within a short coalescing window are gathered into one ApplyBatch call,
// which the parallel engine seeds across its workers and balances by work
// stealing. Admission control (session cap, global in-flight cap,
// per-request deadlines plumbed to the kernel's cancellable build checks),
// idle-session expiry, session persistence (checkpoint loop + crash
// recovery over the bfbdd/internal/snapshot format), and
// Prometheus-format observability ride along.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bfbdd/internal/replication"
	"bfbdd/internal/trace"
	"bfbdd/internal/wal"
)

// walOptions translates the wire-level durability knobs into WAL options.
func walOptions(cfg Config) (wal.Options, error) {
	policy, err := wal.ParseSyncPolicy(cfg.WALSync)
	if err != nil {
		return wal.Options{}, fmt.Errorf("bad WALSync: %w", err)
	}
	return wal.Options{Policy: policy, Interval: cfg.WALSyncInterval}, nil
}

// Config tunes the service layer. The zero value is usable; unset fields
// take the defaults below.
type Config struct {
	// MaxSessions bounds the number of concurrently open sessions.
	MaxSessions int
	// MaxInflight bounds concurrently served HTTP requests; excess
	// requests are rejected with 429 rather than queued.
	MaxInflight int
	// RequestTimeout is the per-request deadline. It is plumbed into the
	// kernel's cancellable build checks, so a deadline that expires
	// mid-construction aborts the build cooperatively.
	RequestTimeout time.Duration
	// SessionIdleExpiry closes sessions with no requests for this long.
	SessionIdleExpiry time.Duration
	// CoalesceWindow is how long the first apply of a forming batch waits
	// for companions before the batch is flushed to the engine.
	CoalesceWindow time.Duration
	// CoalesceMaxBatch flushes a forming batch early once it holds this
	// many operations.
	CoalesceMaxBatch int
	// MaxQueuedPerSession bounds each session executor's task queue.
	MaxQueuedPerSession int
	// MaxVars bounds the variable count a session may be created with.
	MaxVars int
	// MaxWorkers bounds the per-session parallel worker count.
	MaxWorkers int
	// MaxSnapshotBytes bounds the request body of a session restore.
	MaxSnapshotBytes int64
	// MaxTotalBytes, when positive, is the server-wide memory budget:
	// allocating requests (session creation, construction operations) are
	// shed with 429 + Retry-After while the pool's live engine bytes
	// exceed it. Frees, GC, queries, and deletes always pass. With
	// SpillDir set the comparison counts only heap-resident bytes —
	// spilled levels live on disk and do not press on the budget.
	MaxTotalBytes int64
	// SpillDir, when set, enables memory tiering: every session's manager
	// gets a per-session spill directory under it (bfbdd.WithSpillDir),
	// so idle or over-budget sessions can have their fully reduced levels
	// written to level-major spill files and their heap blocks released.
	// The directory is scratch state scoped to this process: it is wiped
	// at startup and per-session dirs are removed when sessions close.
	// bfbdd-serve defaults it to <checkpoint-dir>/spill when persistence
	// is on.
	SpillDir string
	// SessionIdleSpill, when positive (and SpillDir is set), tiers down
	// sessions idle for this long: the janitor spills their node stores
	// to disk so a quiet session costs file pages instead of heap. The
	// next operation transparently unspills what it touches. Should be
	// shorter than SessionIdleExpiry to be useful.
	SessionIdleSpill time.Duration
	// MaxResidentBytes, when positive (and SpillDir is set), caps the
	// pool's combined heap-resident node bytes: instead of shedding with
	// 429, allocating requests first spill the coldest sessions
	// (least-recently used first) until the pool is back under the cap.
	// The janitor enforces it in the background too.
	MaxResidentBytes int64
	// SessionMaxNodes / SessionMaxBytes, when positive, cap every
	// session's engine budget (bfbdd.WithMaxNodes / WithMaxBytes): a
	// client-requested budget is clamped to them, and a session created
	// with no budget of its own still gets the cap. A build that would
	// exceed the budget degrades (forced GC, cache flush, lower
	// evaluation threshold) and then aborts with 413 instead of taking
	// the process down.
	SessionMaxNodes uint64
	SessionMaxBytes uint64
	// CheckpointDir, when set, enables session persistence: every live
	// session is periodically serialized there (atomic rename, per-session
	// snapshot + meta sidecar), deleted/expired sessions have their files
	// removed, a final pass runs on graceful shutdown, and New recovers
	// every checkpointed session — same id, same engine configuration,
	// same wire handles — before serving.
	CheckpointDir string
	// CheckpointInterval is the periodic checkpoint cadence. Zero or
	// negative disables the loop; CheckpointNow and the shutdown pass
	// still write.
	CheckpointInterval time.Duration
	// WALSync selects the write-ahead-log durability policy when
	// CheckpointDir is set: "always" fsyncs before every acknowledgment
	// (zero loss even on power failure), "interval" (the default) writes
	// through to the OS per operation and fsyncs on a timer (zero loss on
	// process crash, bounded loss on power failure), "none" leaves syncing
	// to the OS entirely.
	WALSync string
	// WALSyncInterval is the fsync cadence under WALSync "interval".
	WALSyncInterval time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// MaxFuncBytes, when positive, caps the published-function artifact
	// pool. Artifacts live in this pool, never in session budgets; a
	// publish that would exceed it is refused with 413.
	MaxFuncBytes int64
	// MaxEvalBodyBytes bounds the request body of the artifact eval
	// endpoint; oversized bodies are refused with 413.
	MaxEvalBodyBytes int64
	// MaxEvalBatch caps the assignments accepted per eval request; larger
	// batches are refused with 413.
	MaxEvalBatch int
	// FollowURL, when set, starts the server as a hot-standby follower
	// of the primary at that base URL: sessions are bootstrapped from
	// the primary's snapshots, kept current by streaming its WAL, and
	// served read-only (mutations get 421 + the primary's URL) until
	// promotion. Requires CheckpointDir.
	FollowURL string
	// PromoteOnStart bumps the replication epoch before recovery and
	// serves writable from the first request — the flag a failover
	// runbook sets when restarting a follower as the new primary. It
	// takes precedence over FollowURL.
	PromoteOnStart bool
	// ReadyMaxLag is the replication lag (wall time behind the primary)
	// beyond which a follower's /readyz reports unready.
	ReadyMaxLag time.Duration
	// ReplRetention bounds how many records behind the newest checkpoint
	// WAL truncation will hold segments for a lagging follower before
	// cutting it loose (it re-bootstraps from a snapshot).
	ReplRetention uint64
	// ReplSyncTimeout bounds, under WALSync "always", how long an
	// acknowledgment waits for the committed records to reach every
	// connected follower's socket before dropping the laggards.
	ReplSyncTimeout time.Duration
	// TraceSample is the head-based build-trace sampling rate in [0,1]:
	// that fraction of requests records a full span tree (handler →
	// queue wait → batch → per-level kernel phases → WAL commit →
	// replication gate), retained in an in-process ring served by
	// GET /v1/debug/traces. Zero (the default) disables sampling; a
	// request carrying ?trace=1 is traced regardless.
	TraceSample float64
	// TraceRingSize is how many completed traces the ring retains.
	TraceRingSize int
	// SlowBuildThreshold, when positive, logs the build report of any
	// engine build whose wall time exceeds it. Works without sampling:
	// the manager forms the report on every build.
	SlowBuildThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.SessionIdleExpiry <= 0 {
		c.SessionIdleExpiry = 10 * time.Minute
	}
	if c.CoalesceWindow <= 0 {
		c.CoalesceWindow = 2 * time.Millisecond
	}
	if c.CoalesceMaxBatch <= 0 {
		c.CoalesceMaxBatch = 64
	}
	if c.MaxQueuedPerSession <= 0 {
		c.MaxQueuedPerSession = 128
	}
	if c.MaxVars <= 0 {
		c.MaxVars = 1 << 14
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 2 * runtime.NumCPU()
	}
	if c.MaxSnapshotBytes <= 0 {
		c.MaxSnapshotBytes = 1 << 30
	}
	if c.MaxEvalBodyBytes <= 0 {
		c.MaxEvalBodyBytes = 4 << 20
	}
	if c.MaxEvalBatch <= 0 {
		c.MaxEvalBatch = 8192
	}
	if c.WALSyncInterval <= 0 {
		c.WALSyncInterval = 100 * time.Millisecond
	}
	if c.ReadyMaxLag <= 0 {
		c.ReadyMaxLag = 2 * time.Second
	}
	if c.ReplRetention == 0 {
		c.ReplRetention = 65536
	}
	if c.ReplSyncTimeout <= 0 {
		c.ReplSyncTimeout = 2 * time.Second
	}
	if c.TraceRingSize <= 0 {
		c.TraceRingSize = 128
	}
	return c
}

// Server owns the session registry, the admission limits, and the metrics
// surface. Create one with New, mount Handler on an http.Server, and call
// Shutdown when done.
type Server struct {
	cfg     Config
	reg     *registry
	funcs   *funcRegistry
	metrics *metrics
	limits  *limits
	tracer  *trace.Tracer
	ckpt    *checkpointer // nil unless cfg.CheckpointDir is set

	// Replication state. hub is the primary-side commit/delivery
	// rendezvous (nil without a checkpointer); fol is non-nil when this
	// process started as a follower (it stays non-nil after promotion —
	// writability is fol.promoted). epoch is the fencing epoch stamped
	// into WAL segment headers and checkpoint sidecars; walPolicy
	// mirrors the parsed WALSync so acknowledgments know whether to
	// gate on follower delivery; draining flips /readyz unready ahead
	// of a graceful stop.
	hub       *replication.Hub
	fol       *follower
	epoch     atomic.Uint64
	walPolicy wal.SyncPolicy
	draining  atomic.Bool

	janitorStop chan struct{}
	janitorDone chan struct{}

	shutdownOnce sync.Once
}

// New creates a server with the given configuration. If CheckpointDir is
// set, sessions checkpointed by a previous process are recovered before
// New returns, so the returned server already holds them.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.SpillDir != "" {
		// Spill files are same-process scratch (checkpoints and WALs are
		// the durable state), so stale dirs from a previous process are
		// garbage: wipe and recreate. An unusable dir disables tiering but
		// never fails startup — spilling is capacity, not correctness.
		if err := os.RemoveAll(cfg.SpillDir); err != nil {
			log.Printf("server: cannot clear spill dir %s: %v", cfg.SpillDir, err)
		}
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			log.Printf("server: cannot create spill dir %s: %v (memory tiering disabled)", cfg.SpillDir, err)
			cfg.SpillDir = ""
		}
	}
	m := newMetrics()
	s := &Server{
		cfg:         cfg,
		metrics:     m,
		limits:      newLimits(cfg, m),
		reg:         newRegistry(cfg, m),
		funcs:       newFuncRegistry(cfg, m),
		tracer:      trace.NewTracer(cfg.TraceSample, cfg.TraceRingSize),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	s.funcs.reload()
	s.epoch.Store(1)
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			log.Printf("server: cannot create checkpoint dir %s: %v (persistence disabled)",
				cfg.CheckpointDir, err)
		} else if walOpts, err := walOptions(cfg); err != nil {
			log.Printf("server: %v (persistence disabled)", err)
		} else {
			s.walPolicy = walOpts.Policy
			// The fencing epoch must be settled before recovery opens any
			// WAL: a promote-on-start restart opens every recovered log at
			// the bumped epoch, so the old primary's stale-epoch appends
			// are refused from the first segment header it writes.
			epoch, eerr := replication.LoadEpoch(cfg.CheckpointDir)
			if eerr != nil {
				log.Printf("server: cannot load replication epoch: %v (starting at 1)", eerr)
				epoch = 1
			}
			if cfg.PromoteOnStart {
				epoch++
				if serr := replication.StoreEpoch(cfg.CheckpointDir, epoch); serr != nil {
					log.Printf("server: cannot persist promoted epoch %d: %v", epoch, serr)
				}
				log.Printf("server: promote-on-start: serving writable at epoch %d", epoch)
			}
			s.epoch.Store(epoch)
			s.hub = replication.NewHub(0)

			s.ckpt = newCheckpointer(cfg, walOpts, s.reg, m)
			s.ckpt.epoch = s.epoch.Load
			s.ckpt.ship = s.replCommit
			s.ckpt.minAcked = s.hub.MinAcked
			s.ckpt.retention = cfg.ReplRetention
			// Every session created over the API gets a WAL opened at
			// sequence 0 whose first record is the creation itself, so a
			// session is reconstructible even before its first checkpoint.
			// Acknowledgment of the creation implies the record is durable,
			// so a failed open or append fails the creation.
			s.reg.walCreate = func(sess *session) error {
				data, err := json.Marshal(sess.opts)
				if err != nil {
					return err
				}
				if err := s.openWAL(sess, 0); err != nil {
					return err
				}
				if err := sess.wal.Append(wal.CreateRec{Options: data}); err != nil {
					return err // the registry's teardown closes the log
				}
				// The creation record bypasses the session's journal path,
				// which notifies shipping; notify it by hand so followers
				// see sequence 1 promptly.
				sess.ship(sess.wal.Seq())
				return nil
			}
			// A session restored over the API replaces any previous history
			// under the same id: stale snapshots and segments would outrank
			// or garble the new timeline, so they go first.
			s.reg.walAdopt = func(sess *session) error {
				s.ckpt.purge(sess.id)
				return s.openWAL(sess, 0)
			}
			s.ckpt.recover()
			go s.ckpt.run()

			if cfg.FollowURL != "" {
				if cfg.PromoteOnStart {
					log.Printf("server: -promote-on-start set; ignoring -follow=%s and serving as primary", cfg.FollowURL)
				} else if f, ferr := newFollower(s); ferr != nil {
					log.Printf("server: cannot follow %s: %v (serving standalone)", cfg.FollowURL, ferr)
				} else {
					s.fol = f
					go f.run()
				}
			}
		}
	}
	if cfg.FollowURL != "" && s.ckpt == nil {
		log.Printf("server: -follow requires a checkpoint dir; ignoring -follow=%s", cfg.FollowURL)
	}
	go s.janitor()
	return s
}

// openWAL starts sess's log at base under the current epoch and ships
// its commits to followers.
func (s *Server) openWAL(sess *session, base uint64) error {
	o := s.ckpt.walOpts
	o.Epoch = s.epoch.Load()
	lg, err := wal.Open(s.ckpt.walDir, sess.id, base, o, &s.metrics.wal)
	if err != nil {
		return err
	}
	sess.wal = lg
	sid := sess.id
	sess.ship = func(seq uint64) { s.replCommit(sid, seq) }
	return nil
}

// CheckpointNow synchronously checkpoints every live session. It is a
// no-op without a checkpoint directory.
func (s *Server) CheckpointNow() {
	if s.ckpt != nil {
		s.ckpt.checkpointAll()
	}
}

// janitor expires idle sessions in the background; with memory tiering
// enabled it also spills long-idle sessions to disk and keeps the pool's
// resident bytes under the configured cap.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	period := s.cfg.SessionIdleExpiry / 4
	if period < time.Second {
		period = time.Second
	}
	if s.cfg.SessionIdleSpill > 0 {
		if p := s.cfg.SessionIdleSpill / 4; p < period {
			period = max(p, 100*time.Millisecond)
		}
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			if s.isFollower() {
				// The primary owns session lifecycle; an idle replica
				// session just mirrors an idle primary session, and
				// expiring it here would diverge the two.
				continue
			}
			s.reg.expireIdle(s.cfg.SessionIdleExpiry)
			s.spillIdle()
			s.enforceResidentCap(context.Background())
		}
	}
}

// spillIdle tiers down sessions whose idle time exceeds SessionIdleSpill:
// their node stores move to spill files and the heap blocks are released.
// The spill runs serialized on each session's executor (enqueue-only, so
// a busy session — which by definition is not idle — is never blocked),
// and deliberately does not touch the idle clock.
func (s *Server) spillIdle() {
	if s.cfg.SpillDir == "" || s.cfg.SessionIdleSpill <= 0 {
		return
	}
	cutoff := time.Now().Add(-s.cfg.SessionIdleSpill)
	for _, sess := range s.reg.list() {
		if sess.isPoisoned() || !sess.idleSince().Before(cutoff) {
			continue
		}
		st := sess.stats()
		if st == nil || st.ResidentBytes == 0 {
			continue
		}
		sess := sess
		if _, err := sess.exec.start(context.Background(), func(context.Context) error {
			return sess.mgr.SpillAll()
		}); err == nil {
			s.metrics.sessionsSpilled.Add(1)
		}
	}
}

// enforceResidentCap is the resident-byte valve: while the pool's
// combined heap-resident node bytes exceed MaxResidentBytes, the coldest
// sessions (least recently used first) are spilled to disk, synchronously
// through their executors, until the pool fits. The requesting session
// may itself be spilled if it is the coldest — its next operation
// unspills on demand. ctx bounds the wait on each session's executor.
func (s *Server) enforceResidentCap(ctx context.Context) {
	if s.cfg.SpillDir == "" || s.cfg.MaxResidentBytes <= 0 {
		return
	}
	capacity := uint64(s.cfg.MaxResidentBytes)
	resident, _ := s.poolSpill()
	if resident <= capacity {
		return
	}
	sessions := s.reg.list()
	sort.Slice(sessions, func(i, j int) bool {
		return sessions[i].lastUsed.Load() < sessions[j].lastUsed.Load()
	})
	for _, sess := range sessions {
		if resident <= capacity {
			return
		}
		if sess.isPoisoned() {
			continue
		}
		st := sess.stats()
		if st == nil || st.ResidentBytes == 0 {
			continue
		}
		sess := sess
		if err := sess.exec.submit(ctx, func(context.Context) error {
			return sess.mgr.SpillAll()
		}); err == nil {
			s.metrics.sessionsSpilled.Add(1)
		}
		resident, _ = s.poolSpill()
	}
}

// Handler returns the routed HTTP handler for the whole API surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.routes(mux)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// Like healthz, readyz bypasses instrumentation and admission: a
	// load balancer's probe must not be shed by the in-flight cap.
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.metricsHandler())
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Shutdown closes every session, draining each session executor's queued
// work first, and stops the janitor. The HTTP listener itself is drained
// by http.Server.Shutdown before this is called (see cmd/bfbdd-serve).
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutdownOnce.Do(func() {
		s.StartDrain()
		if s.fol != nil {
			s.fol.shutdown()
		}
		close(s.janitorStop)
		select {
		case <-s.janitorDone:
		case <-ctx.Done():
			err = ctx.Err()
			return
		}
		if s.ckpt != nil {
			// Final pass while sessions are still live, so a graceful stop
			// persists the latest state; closeAll below deliberately leaves
			// the files for the next process.
			s.ckpt.shutdown()
			s.ckpt.checkpointAll()
		}
		err = s.reg.closeAll(ctx)
	})
	return err
}
