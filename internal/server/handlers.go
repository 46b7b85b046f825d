package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bfbdd"
	"bfbdd/internal/faultinject"
	"bfbdd/internal/replication"
	"bfbdd/internal/trace"
	"bfbdd/internal/wal"
	"bfbdd/internal/walreplay"
)

// writeJSON writes v as the JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// errStatus maps service errors to HTTP statuses.
func errStatus(err error) int {
	switch {
	case errors.Is(err, errBadRequest), errors.Is(err, errNoHandle),
		errors.Is(err, walreplay.ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, errNoSession), errors.Is(err, errNoFunc):
		return http.StatusNotFound
	case errors.Is(err, errSessionClosing), errors.Is(err, errSessionExists),
		errors.Is(err, errSessionPoisoned), errors.Is(err, errFuncExists):
		return http.StatusConflict
	case errors.Is(err, errEvalTooLarge), errors.Is(err, errFuncPoolFull):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errTooManySessions), errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, errSessionClosed):
		return http.StatusGone
	case errors.Is(err, errServerClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

func fail(w http.ResponseWriter, err error) {
	// Typed engine aborts come first: they arrive either as returned
	// errors (the Ctx paths) or as panic values captured on the executor
	// goroutine (the plain calls) — panicError.Unwrap makes both shapes
	// classify identically here.
	var be *bfbdd.BudgetError
	if errors.As(err, &be) {
		// Budget exhaustion is a client-visible resource limit, not a
		// server fault: 413 with the full per-variable usage report.
		writeError(w, http.StatusRequestEntityTooLarge, be.Error())
		return
	}
	var ie *bfbdd.InternalError
	if errors.As(err, &ie) {
		// Kernel invariant violation: the session was poisoned by
		// noteFailure; answer 500 without leaking the internal stack.
		log.Printf("server: internal engine fault: %v", ie)
		writeError(w, http.StatusInternalServerError, "internal engine fault")
		return
	}
	if errors.Is(err, faultinject.ErrInjected) {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// A remaining panic captured on the executor goroutine gets the same
	// treatment the HTTP-layer firewall gives handler-goroutine panics:
	// engine misuse ("bfbdd:" prefix) is the client's fault, anything
	// else is a server bug — logged with its stack and answered 500.
	var pe *panicError
	if errors.As(err, &pe) {
		if msg, ok := pe.val.(string); ok && strings.HasPrefix(msg, "bfbdd: ") {
			writeError(w, http.StatusBadRequest, msg)
			return
		}
		log.Printf("server: panic in session task: %v\n%s", pe.val, pe.stack)
		writeError(w, http.StatusInternalServerError, "internal error")
		return
	}
	writeError(w, errStatus(err), err.Error())
}

// decode reads the request body as JSON into v, bounding its size.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return nil
}

// parseOp maps a wire operation name to a batch op kind.
func parseOp(name string) (bfbdd.BatchOpKind, error) {
	switch name {
	case "and":
		return bfbdd.BatchAnd, nil
	case "or":
		return bfbdd.BatchOr, nil
	case "xor":
		return bfbdd.BatchXor, nil
	case "nand":
		return bfbdd.BatchNand, nil
	case "nor":
		return bfbdd.BatchNor, nil
	case "xnor":
		return bfbdd.BatchXnor, nil
	case "diff":
		return bfbdd.BatchDiff, nil
	case "implies":
		return bfbdd.BatchImplies, nil
	}
	return 0, fmt.Errorf("%w: unknown op %q", errBadRequest, name)
}

// routes registers the API surface; every route runs behind the admission
// pipeline and per-route instrumentation.
func (s *Server) routes(mux *http.ServeMux) {
	// Trace middleware sits inside admission: a request shed by the
	// in-flight cap never consumes a sampling slot or a ring entry.
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.metrics.instrument(pattern, s.limits.admit(s.traced(pattern, h))))
	}
	handle("POST /v1/sessions", s.handleCreateSession)
	handle("POST /v1/sessions/restore", s.handleRestoreSession)
	handle("GET /v1/sessions", s.handleListSessions)
	handle("GET /v1/sessions/{sid}", s.handleGetSession)
	handle("DELETE /v1/sessions/{sid}", s.handleCloseSession)
	handle("POST /v1/sessions/{sid}/vars", s.handleVar)
	handle("POST /v1/sessions/{sid}/const", s.handleConst)
	handle("POST /v1/sessions/{sid}/apply", s.handleApply)
	handle("POST /v1/sessions/{sid}/batch", s.handleBatch)
	handle("POST /v1/sessions/{sid}/ite", s.handleITE)
	handle("POST /v1/sessions/{sid}/not", s.handleNot)
	handle("POST /v1/sessions/{sid}/quantify", s.handleQuantify)
	handle("POST /v1/sessions/{sid}/restrict", s.handleRestrict)
	handle("POST /v1/sessions/{sid}/compose", s.handleCompose)
	handle("POST /v1/sessions/{sid}/free", s.handleFree)
	handle("POST /v1/sessions/{sid}/query", s.handleQuery)
	handle("POST /v1/sessions/{sid}/gc", s.handleGC)
	handle("GET /v1/sessions/{sid}/stats", s.handleStats)
	handle("GET /v1/sessions/{sid}/bdds/{handle}/dot", s.handleDOT)
	handle("POST /v1/sessions/{sid}/snapshot", s.handleSnapshot)
	handle("POST /v1/sessions/{sid}/publish", s.handlePublish)
	handle("GET /v1/funcs", s.handleListFuncs)
	handle("GET /v1/funcs/{fid}", s.handleGetFunc)
	handle("GET /v1/funcs/{fid}/download", s.handleDownloadFunc)
	handle("DELETE /v1/funcs/{fid}", s.handleDeleteFunc)
	handle("POST /v1/funcs/{fid}/eval", s.handleEvalFunc)
	handle("POST /v1/funcs/{fid}/query", s.handleQueryFunc)
	handle("GET /v1/debug/traces", s.handleListTraces)
	handle("GET /v1/debug/traces/{tid}", s.handleGetTrace)
	handle("GET "+replication.StatusPath, s.handleReplStatus)
	handle("GET "+replication.SnapshotPathPrefix+"{sid}", s.handleReplSnapshot)
	handle("GET "+replication.WALPathPrefix+"{sid}", s.handleReplWAL)
	handle("POST /v1/admin/promote", s.handlePromote)
}

// sessionOf resolves the {sid} path segment and touches the session's
// idle clock. Poisoned sessions are refused with 409 — their engine
// state cannot be trusted, so no operation (not even a read) runs
// against them; DELETE and the info/stats routes bypass this gate so a
// poisoned session can still be inspected and reclaimed.
func (s *Server) sessionOf(r *http.Request) (*session, error) {
	sess, err := s.reg.get(r.PathValue("sid"))
	if err != nil {
		return nil, err
	}
	if sess.isPoisoned() {
		return nil, fmt.Errorf("%w: %s", errSessionPoisoned, sess.id)
	}
	sess.touch()
	return sess, nil
}

// run executes fn serialized on the session's executor under the request
// context and deadline, routing any failure through the session's
// poison classifier. A traced request gets a "queue-wait" span covering
// the time its task sat in the executor queue; a task abandoned before
// running leaves the span open, and trace collection closes it with an
// unfinished marker — exactly what happened.
func run(r *http.Request, sess *session, fn func(ctx context.Context) error) error {
	ctx := r.Context()
	if t, parent := trace.FromContext(ctx); t != nil {
		qs := t.Start(parent, "queue-wait")
		inner := fn
		fn = func(ctx context.Context) error {
			t.End(qs)
			return inner(ctx)
		}
	}
	err := sess.exec.submit(ctx, fn)
	sess.noteFailure(err)
	return err
}

// poolBytes sums the engine memory footprint of every live session from
// the lock-free stats snapshots (a scrape-safe approximation: snapshots
// refresh after each executor task). With memory tiering on, the engine
// samples count only heap-resident store bytes, so a spilled session
// contributes its caches and tables but not its on-disk levels.
func (s *Server) poolBytes() uint64 {
	var total uint64
	for _, sess := range s.reg.list() {
		if st := sess.stats(); st != nil {
			total += st.MemBytes
		}
	}
	return total
}

// poolSpill sums the node-store tiering split across live sessions:
// resident is heap bytes held by node arenas, spilled is bytes parked in
// level spill files. resident+spilled is the pool's total node footprint
// regardless of where it lives.
func (s *Server) poolSpill() (resident, spilled uint64) {
	for _, sess := range s.reg.list() {
		if st := sess.stats(); st != nil {
			resident += st.ResidentBytes
			spilled += st.SpilledBytes
		}
	}
	return resident, spilled
}

// shed is the global memory-pressure valve for allocating routes. With
// memory tiering configured, pressure is first relieved by spilling the
// coldest sessions to disk (MaxResidentBytes); only if the pool's
// heap bytes still exceed Config.MaxTotalBytes is the request answered
// 429 with a Retry-After hint instead of being admitted to grow the pool
// further. Reads, frees, GC, and deletes always pass — they are how a
// client relieves the pressure.
func (s *Server) shed(w http.ResponseWriter, r *http.Request) bool {
	s.enforceResidentCap(r.Context())
	if s.cfg.MaxTotalBytes <= 0 {
		return false
	}
	used := s.poolBytes()
	if used <= uint64(s.cfg.MaxTotalBytes) {
		return false
	}
	s.metrics.rejectedOverBudget.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests,
		fmt.Sprintf("server over memory budget: %d bytes live, budget %d", used, s.cfg.MaxTotalBytes))
	return true
}

type sessionInfo struct {
	Session  string `json:"session"`
	Vars     int    `json:"vars"`
	Engine   string `json:"engine"`
	Workers  int    `json:"workers"`
	Created  string `json:"created"`
	IdleFor  string `json:"idle_for"`
	Poisoned bool   `json:"poisoned,omitempty"`
}

func (s *Server) info(sess *session) sessionInfo {
	return sessionInfo{
		Session:  sess.id,
		Vars:     sess.vars,
		Engine:   sess.engine.String(),
		Workers:  sess.mgr.Kernel().Options().Workers,
		Created:  sess.created.UTC().Format(time.RFC3339Nano),
		IdleFor:  time.Since(sess.idleSince()).Round(time.Millisecond).String(),
		Poisoned: sess.isPoisoned(),
	}
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if s.refuseWrites(w) || s.shed(w, r) {
		return
	}
	var req SessionOptions
	if err := decode(w, r, &req); err != nil {
		fail(w, err)
		return
	}
	sess, err := s.reg.create(req)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.info(sess))
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.reg.list()
	out := make([]sessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, s.info(sess))
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, err := s.reg.get(r.PathValue("sid"))
	if err != nil {
		fail(w, err)
		return
	}
	out := map[string]any{
		"info":  s.info(sess),
		"stats": statsJSON(sess.stats()),
	}
	// The per-level memory report needs the manager quiescent, so it runs
	// on the executor; a poisoned session skips it (its engine state is
	// untrusted) and a busy or broken executor just omits the key rather
	// than failing an otherwise-cheap info read.
	if !sess.isPoisoned() {
		var mem bfbdd.MemReport
		if err := sess.exec.submit(r.Context(), func(context.Context) error {
			mem = sess.mgr.MemReport()
			return nil
		}); err == nil {
			out["mem"] = mem
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	if s.refuseWrites(w) {
		return
	}
	id := r.PathValue("sid")
	// Journal the close before tearing down: the normal path removes every
	// durability file anyway, but a crash between this acknowledgment and
	// the file removal leaves the WAL ending in a close record — recovery
	// then finishes the deletion instead of resurrecting a session the
	// client was told is gone. Best-effort by design: a broken log must not
	// make a session undeletable.
	if sess, err := s.reg.get(id); err == nil {
		_ = sess.journal(wal.CloseRec{})
	}
	if err := s.reg.closeSession(id); err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"closed": id})
}

type handleResp struct {
	Handle uint64 `json:"handle"`
	Nodes  int    `json:"nodes"`
}

// construct serves one handle-producing construction route. The route
// supplies only its JSON request shape (decoded into req) and the record
// it maps to under the next wire handle h; everything else is shared. The
// record runs through the session's walreplay state — the same Apply
// that recovery and followers replay it with — and is journaled before
// its handle is acknowledged. A refused journal undoes the binding, so the
// next operation reuses the handle number.
func (s *Server) construct(w http.ResponseWriter, r *http.Request, req any, record func(h uint64) (wal.Record, error)) {
	if s.refuseWrites(w) || s.shed(w, r) {
		return
	}
	sess, err := s.sessionOf(r)
	if err != nil {
		fail(w, err)
		return
	}
	if err := decode(w, r, req); err != nil {
		fail(w, err)
		return
	}
	var resp handleResp
	err = run(r, sess, func(ctx context.Context) error {
		h := sess.st.NextHandle + 1
		rec, err := record(h)
		if err != nil {
			return err
		}
		if err := sess.st.Apply(rec); err != nil {
			return err
		}
		if err := sess.journalCtx(ctx, rec); err != nil {
			sess.st.Undo(h)
			return err
		}
		resp = handleResp{Handle: h, Nodes: sess.st.Handles[h].Size()}
		return nil
	})
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleVar(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Index   int  `json:"index"`
		Negated bool `json:"negated,omitempty"`
	}
	s.construct(w, r, &req, func(h uint64) (wal.Record, error) {
		return wal.VarRec{Index: req.Index, Negated: req.Negated, Handle: h}, nil
	})
}

func (s *Server) handleConst(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Value bool `json:"value"`
	}
	s.construct(w, r, &req, func(h uint64) (wal.Record, error) {
		return wal.ConstRec{Value: req.Value, Handle: h}, nil
	})
}

// handleApply is the coalesced binary-apply endpoint: concurrent applies
// landing within the coalescing window ride one engine batch.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	if s.refuseWrites(w) || s.shed(w, r) {
		return
	}
	sess, err := s.sessionOf(r)
	if err != nil {
		fail(w, err)
		return
	}
	var req struct {
		Op string `json:"op"`
		F  uint64 `json:"f"`
		G  uint64 `json:"g"`
	}
	if err := decode(w, r, &req); err != nil {
		fail(w, err)
		return
	}
	kind, err := parseOp(req.Op)
	if err != nil {
		fail(w, err)
		return
	}
	res, err := sess.coal.submit(r.Context(), kind, req.F, req.G)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, handleResp{Handle: res.handle, Nodes: res.nodes})
}

// handleBatch submits an explicit batch of independent operations as one
// engine unit (the client-side variant of what the coalescer does
// implicitly).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.refuseWrites(w) || s.shed(w, r) {
		return
	}
	sess, err := s.sessionOf(r)
	if err != nil {
		fail(w, err)
		return
	}
	var req struct {
		Ops []struct {
			Op string `json:"op"`
			F  uint64 `json:"f"`
			G  uint64 `json:"g"`
		} `json:"ops"`
	}
	if err := decode(w, r, &req); err != nil {
		fail(w, err)
		return
	}
	if len(req.Ops) == 0 {
		fail(w, fmt.Errorf("%w: empty batch", errBadRequest))
		return
	}
	kinds := make([]bfbdd.BatchOpKind, len(req.Ops))
	for i, op := range req.Ops {
		if kinds[i], err = parseOp(op.Op); err != nil {
			fail(w, err)
			return
		}
	}
	var resp struct {
		Handles []uint64 `json:"handles"`
		Nodes   []int    `json:"nodes"`
	}
	// completed reports, for a batch that aborted partway (budget
	// exhaustion, injected fault), which operations finished first: their
	// results are registered as real handles so the client keeps the work
	// already paid for.
	type completedOp struct {
		Index  int    `json:"index"`
		Handle uint64 `json:"handle"`
		Nodes  int    `json:"nodes"`
	}
	var completed []completedOp
	err = run(r, sess, func(ctx context.Context) error {
		ops := make([]bfbdd.BatchOp, len(req.Ops))
		recs := make([]wal.ApplyRec, len(req.Ops))
		for i, op := range req.Ops {
			f, err := sess.st.Get(op.F)
			if err != nil {
				return err
			}
			g, err := sess.st.Get(op.G)
			if err != nil {
				return err
			}
			ops[i] = bfbdd.BatchOp{Kind: kinds[i], F: f, G: g}
			recs[i] = wal.ApplyRec{Op: uint8(kinds[i]), F: op.F, G: op.G}
		}
		var before bfbdd.Stats
		if sess.slowThreshold > 0 {
			before = sess.mgr.Stats()
		}
		t0 := time.Now()
		results, err := sess.mgr.ApplyBatchCtx(ctx, ops)
		sess.noteSlowBuild("batch", time.Since(t0), before)
		// Operations that finished before an abort are acknowledged as real
		// handles too, so they are journaled like any success; if the
		// journal refuses, nothing was acknowledged and its error is the
		// answer.
		btr, bparent := trace.FromContext(ctx)
		if jerr := sess.registerApplies(btr, bparent, recs, results); jerr != nil {
			return jerr
		}
		if err != nil {
			for i, b := range results {
				if b != nil {
					completed = append(completed, completedOp{Index: i, Handle: recs[i].Handle, Nodes: b.Size()})
				}
			}
			return err
		}
		resp.Handles = make([]uint64, len(results))
		resp.Nodes = make([]int, len(results))
		for i, b := range results {
			resp.Handles[i] = recs[i].Handle
			resp.Nodes[i] = b.Size()
		}
		return nil
	})
	if err != nil {
		if len(completed) > 0 {
			code := http.StatusInternalServerError
			var be *bfbdd.BudgetError
			if errors.As(err, &be) {
				code = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, code, map[string]any{
				"error":     err.Error(),
				"completed": completed,
			})
			return
		}
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleITE(w http.ResponseWriter, r *http.Request) {
	var req struct {
		F uint64 `json:"f"`
		G uint64 `json:"g"`
		H uint64 `json:"h"`
	}
	s.construct(w, r, &req, func(h uint64) (wal.Record, error) {
		return wal.ITERec{F: req.F, G: req.G, H: req.H, Handle: h}, nil
	})
}

func (s *Server) handleNot(w http.ResponseWriter, r *http.Request) {
	var req struct {
		F uint64 `json:"f"`
	}
	s.construct(w, r, &req, func(h uint64) (wal.Record, error) {
		return wal.NotRec{F: req.F, Handle: h}, nil
	})
}

func (s *Server) handleQuantify(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Kind string `json:"kind"` // exists | forall
		F    uint64 `json:"f"`
		Vars []int  `json:"vars"`
	}
	s.construct(w, r, &req, func(h uint64) (wal.Record, error) {
		if req.Kind != "exists" && req.Kind != "forall" {
			return nil, fmt.Errorf("%w: unknown quantifier %q", errBadRequest, req.Kind)
		}
		return wal.QuantifyRec{Forall: req.Kind == "forall", F: req.F, Vars: req.Vars, Handle: h}, nil
	})
}

func (s *Server) handleRestrict(w http.ResponseWriter, r *http.Request) {
	var req struct {
		F     uint64 `json:"f"`
		Var   int    `json:"var"`
		Value bool   `json:"value"`
	}
	s.construct(w, r, &req, func(h uint64) (wal.Record, error) {
		return wal.RestrictRec{F: req.F, Var: req.Var, Value: req.Value, Handle: h}, nil
	})
}

func (s *Server) handleCompose(w http.ResponseWriter, r *http.Request) {
	var req struct {
		F   uint64 `json:"f"`
		Var int    `json:"var"`
		G   uint64 `json:"g"`
	}
	s.construct(w, r, &req, func(h uint64) (wal.Record, error) {
		return wal.ComposeRec{F: req.F, G: req.G, Var: req.Var, Handle: h}, nil
	})
}

func (s *Server) handleFree(w http.ResponseWriter, r *http.Request) {
	if s.refuseWrites(w) {
		return
	}
	sess, err := s.sessionOf(r)
	if err != nil {
		fail(w, err)
		return
	}
	var req struct {
		Handles []uint64 `json:"handles"`
	}
	if err := decode(w, r, &req); err != nil {
		fail(w, err)
		return
	}
	err = run(r, sess, func(ctx context.Context) error {
		// Validate the whole list before journaling anything: a free cannot
		// be rolled back, so it is journaled first and its record must
		// describe only frees that then actually happen (replay treats a
		// missing handle as divergence). Duplicates in one request hit the
		// seen-check the same way a double free across requests hits the
		// handle table.
		seen := make(map[uint64]struct{}, len(req.Handles))
		for _, h := range req.Handles {
			if _, err := sess.st.Get(h); err != nil {
				return err
			}
			if _, dup := seen[h]; dup {
				return fmt.Errorf("%w: handle %d freed twice", errNoHandle, h)
			}
			seen[h] = struct{}{}
		}
		rec := wal.FreeRec{Handles: req.Handles}
		if err := sess.journalCtx(ctx, rec); err != nil {
			return err
		}
		return sess.st.Apply(rec)
	})
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"freed": len(req.Handles)})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessionOf(r)
	if err != nil {
		fail(w, err)
		return
	}
	var req struct {
		Kind       string `json:"kind"` // size|satcount|anysat|eval|support|equal|signature
		F          uint64 `json:"f"`
		G          uint64 `json:"g,omitempty"`
		Assignment []bool `json:"assignment,omitempty"`
	}
	if err := decode(w, r, &req); err != nil {
		fail(w, err)
		return
	}
	var resp any
	err = run(r, sess, func(context.Context) error {
		f, err := sess.st.Get(req.F)
		if err != nil {
			return err
		}
		switch req.Kind {
		case "size":
			resp = map[string]int{"nodes": f.Size()}
		case "satcount":
			resp = map[string]string{"satcount": f.SatCount().String()}
		case "anysat":
			a, ok := f.AnySat()
			out := make(map[string]bool, len(a))
			for v, val := range a {
				out[fmt.Sprint(v)] = val
			}
			resp = map[string]any{"sat": ok, "assignment": out}
		case "eval":
			if len(req.Assignment) != sess.vars {
				return fmt.Errorf("%w: assignment has %d entries for %d variables",
					errBadRequest, len(req.Assignment), sess.vars)
			}
			resp = map[string]bool{"value": f.Eval(req.Assignment)}
		case "support":
			vars := f.Support()
			if vars == nil {
				vars = []int{}
			}
			resp = map[string][]int{"vars": vars}
		case "equal":
			g, err := sess.st.Get(req.G)
			if err != nil {
				return err
			}
			resp = map[string]bool{"equal": f.Equal(g)}
		case "signature":
			resp = map[string]string{"signature": walreplay.Signature(sess.mgr, f)}
		default:
			return fmt.Errorf("%w: unknown query kind %q", errBadRequest, req.Kind)
		}
		return nil
	})
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGC(w http.ResponseWriter, r *http.Request) {
	if s.refuseWrites(w) {
		return
	}
	sess, err := s.sessionOf(r)
	if err != nil {
		fail(w, err)
		return
	}
	var nodes uint64
	err = run(r, sess, func(ctx context.Context) error {
		// Journal before collecting: a GC compaction rewrites node indices,
		// so replay must run it at the same point in the operation stream to
		// keep downstream structure identical. GC itself cannot fail, so
		// journal-first never records a GC that didn't happen.
		if err := sess.journalCtx(ctx, wal.GCRec{}); err != nil {
			return err
		}
		sess.mgr.GC()
		nodes = sess.mgr.NumNodes()
		return nil
	})
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"live_nodes": nodes})
}

// statsJSON is the wire shape of a session stats snapshot.
func statsJSON(st *sessionStats) map[string]any {
	if st == nil {
		return nil
	}
	return map[string]any{
		"ops":               st.Ops,
		"cache_hits":        st.CacheHits,
		"terminals":         st.Terminals,
		"expansion_seconds": st.ExpansionTime.Seconds(),
		"reduction_seconds": st.ReductionTime.Seconds(),
		"gc_mark_seconds":   st.GCMarkTime.Seconds(),
		"gc_fix_seconds":    st.GCFixTime.Seconds(),
		"gc_rehash_seconds": st.GCRehashTime.Seconds(),
		"steals":            st.Steals,
		"stolen_ops":        st.StolenOps,
		"stalls":            st.Stalls,
		"context_pushes":    st.ContextPushes,
		"lock_wait_seconds": st.LockWait.Seconds(),
		"gc_count":          st.GCCount,
		"peak_bytes":        st.PeakBytes,
		"live_nodes":        st.NumNodes,
		"pins":              st.Pins,
		"handles":           st.Handles,
		"mem_bytes":         st.MemBytes,
		"eval_threshold":    st.EffEvalThreshold,
		"resident_bytes":    st.ResidentBytes,
		"spilled_bytes":     st.SpilledBytes,
		"spilled_levels":    st.SpilledLevels,
		"spill": map[string]any{
			"ops":             st.SpillOps,
			"unspill_ops":     st.UnspillOps,
			"seconds":         st.SpillTime.Seconds(),
			"unspill_seconds": st.UnspillTime.Seconds(),
			"prefetch_hits":   st.SpillPrefetchHits,
		},
		"budget": map[string]uint64{
			"forced_gcs":      st.BudgetForcedGCs,
			"threshold_drops": st.BudgetThresholdDrops,
			"cache_shrinks":   st.BudgetCacheShrinks,
			"aborts":          st.BudgetAborts,
			"spills":          st.BudgetSpills,
		},
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sess, err := s.reg.get(r.PathValue("sid"))
	if err != nil {
		fail(w, err)
		return
	}
	// Refresh synchronously when the session is idle (cheap), falling
	// back to the executor-maintained snapshot when it is busy.
	_ = sess.exec.submit(r.Context(), func(context.Context) error { return nil })
	writeJSON(w, http.StatusOK, statsJSON(sess.stats()))
}

func (s *Server) handleDOT(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessionOf(r)
	if err != nil {
		fail(w, err)
		return
	}
	var h uint64
	if _, err := fmt.Sscanf(r.PathValue("handle"), "%d", &h); err != nil {
		fail(w, fmt.Errorf("%w: bad handle %q", errBadRequest, r.PathValue("handle")))
		return
	}
	var buf bytes.Buffer
	err = run(r, sess, func(context.Context) error {
		b, err := sess.st.Get(h)
		if err != nil {
			return err
		}
		return bfbdd.WriteDOT(&buf, []string{fmt.Sprintf("h%d", h)}, b)
	})
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = buf.WriteTo(w)
}

// handleSnapshot serializes the whole session (every live wire handle
// plus the variable order) in the versioned snapshot format. The stream
// is buffered before any byte hits the wire so an encoding failure still
// gets a clean JSON error response.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessionOf(r)
	if err != nil {
		fail(w, err)
		return
	}
	var buf bytes.Buffer
	err = run(r, sess, func(context.Context) error {
		if err := sess.snapshotTo(&buf); err != nil {
			return err
		}
		// Audit record only — it carries no session state, so a journal
		// failure must not fail the export the client already has bytes
		// for. Skipped on a follower: a locally minted sequence would
		// collide with the primary's replicated stream.
		if !s.isFollower() {
			_ = sess.journal(wal.SnapshotRec{})
		}
		return nil
	})
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	w.Header().Set("X-Bfbdd-Session", sess.id)
	w.WriteHeader(http.StatusOK)
	_, _ = buf.WriteTo(w)
}

// handleRestoreSession creates a session from a snapshot stream in the
// request body. The variable count, order, and handle table come from the
// stream; the engine configuration comes from query parameters (engine,
// workers, gc_policy), and ?session= asks for a specific session id —
// refused with 409 if that id is live or still being torn down.
func (s *Server) handleRestoreSession(w http.ResponseWriter, r *http.Request) {
	if s.refuseWrites(w) || s.shed(w, r) {
		return
	}
	q := r.URL.Query()
	opts := SessionOptions{
		Engine:   q.Get("engine"),
		GCPolicy: q.Get("gc_policy"),
	}
	if ws := q.Get("workers"); ws != "" {
		n, err := strconv.Atoi(ws)
		if err != nil {
			fail(w, fmt.Errorf("%w: bad workers %q", errBadRequest, ws))
			return
		}
		opts.Workers = n
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxSnapshotBytes)
	sess, err := s.reg.restore(q.Get("session"), opts, body, s.reg.walAdopt)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			fail(w, fmt.Errorf("%w: snapshot exceeds %d bytes", errBadRequest, s.cfg.MaxSnapshotBytes))
			return
		}
		fail(w, err)
		return
	}
	if s.ckpt != nil {
		// The restored state exists only in memory and its fresh WAL holds
		// no creation record to rebuild from, so the 201 below would be a
		// durability lie until a checkpoint lands. Take one synchronously;
		// if even the retried checkpoint fails, tear the session down and
		// report the failure rather than acknowledge state a crash would
		// silently lose.
		if cerr := s.ckpt.checkpointWithRetry(sess); cerr != nil {
			_ = s.reg.closeSession(sess.id)
			fail(w, fmt.Errorf("restored session could not be persisted: %w", cerr))
			return
		}
	}
	var handles []uint64
	// The session was just committed and has served nothing yet, but reads
	// still go through the executor: another client that guessed the id
	// could already be mutating the handle table. If the executor refuses
	// (queue full, session concurrently closed) the restored state cannot
	// be reported accurately, so fail the request; the session itself may
	// still exist and is discoverable via GET /v1/sessions.
	if err := run(r, sess, func(context.Context) error {
		handles = sess.handleIDs()
		return nil
	}); err != nil {
		fail(w, fmt.Errorf("session %s restored, but listing its handles failed: %w", sess.id, err))
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"info":    s.info(sess),
		"handles": handles,
	})
}
