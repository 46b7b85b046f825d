// Package walreplay applies write-ahead-log records to a live manager
// and wire-handle table. It is the single place a construction record
// becomes engine calls: the server's live construction routes build a
// record under the next wire handle and execute it here before
// journaling it, and startup recovery, followers and the bfbdd-wal CLI
// replay the journaled records through the same Apply. Every record
// carries the wire handle its result was acknowledged under, so replay
// rebuilds the exact handle numbering regardless of how the original
// operations were coalesced or batched.
package walreplay

import (
	"errors"
	"fmt"

	"bfbdd"
	"bfbdd/internal/wal"
)

var (
	// ErrNoHandle means a record names a wire handle that is not bound.
	ErrNoHandle = errors.New("no such handle")
	// ErrInvalid means a record's operands are out of range for the
	// manager (variable index, apply op code).
	ErrInvalid = errors.New("invalid operand")
)

// State is a session's wire-handle table over its manager. Handles maps
// wire handles to live BDDs and NextHandle is the highest handle issued;
// Closed latches when a close record is applied (the caller must then
// discard the session instead of resurrecting it). A State is not safe
// for concurrent use: the server touches it only on the session executor.
type State struct {
	Mgr        *bfbdd.Manager
	Handles    map[uint64]*bfbdd.BDD
	NextHandle uint64
	Closed     bool
}

// NewState wraps a manager with an empty handle table.
func NewState(m *bfbdd.Manager) *State {
	return &State{Mgr: m, Handles: make(map[uint64]*bfbdd.BDD)}
}

// Get resolves wire handle h.
func (st *State) Get(h uint64) (*bfbdd.BDD, error) {
	b, ok := st.Handles[h]
	if !ok {
		return nil, fmt.Errorf("%w: handle %d", ErrNoHandle, h)
	}
	return b, nil
}

// Put binds b under the next wire handle and returns that handle.
func (st *State) Put(b *bfbdd.BDD) uint64 {
	st.NextHandle++
	st.Handles[st.NextHandle] = b
	return st.NextHandle
}

// Undo rolls back the binding of h made by a Put or Apply whose record
// the journal refused: the handle was never acknowledged, so memory must
// not get ahead of the log. Undo the newest binding first so handle
// numbering rewinds exactly.
func (st *State) Undo(h uint64) {
	if b, ok := st.Handles[h]; ok {
		delete(st.Handles, h)
		b.Free()
	}
	if h == st.NextHandle {
		st.NextHandle--
	}
}

// set installs b under wire handle h. An existing binding is released
// first: a sync failure after a durable append can roll an operation back
// in memory while its record survives on disk, so a later operation may
// legitimately reuse the handle — last write wins, like the live session.
func (st *State) set(h uint64, b *bfbdd.BDD) {
	if old, ok := st.Handles[h]; ok {
		old.Free()
	}
	st.Handles[h] = b
	if h > st.NextHandle {
		st.NextHandle = h
	}
}

// checkVar validates a variable index against the manager.
func (st *State) checkVar(what string, v int) error {
	if v < 0 || v >= st.Mgr.NumVars() {
		return fmt.Errorf("%w: %s %d out of range [0,%d)", ErrInvalid, what, v, st.Mgr.NumVars())
	}
	return nil
}

// Apply executes one record. Records that carry no session state
// (create, snapshot, publish) are skipped; a close record latches
// Closed. A returned error leaves the state unchanged except for a free
// record, which releases the handles before the first unknown one; in
// replay an error means the log does not describe a valid history for
// this state, and the caller should refuse the recovery rather than
// serve a diverged session.
func (st *State) Apply(rec wal.Record) error {
	switch r := rec.(type) {
	case wal.CreateRec:
		// Session construction is the caller's job (it needs the full
		// server option surface); by the time records replay the manager
		// already exists.
		return nil
	case wal.VarRec:
		if err := st.checkVar("variable", r.Index); err != nil {
			return err
		}
		if r.Negated {
			st.set(r.Handle, st.Mgr.NVar(r.Index))
		} else {
			st.set(r.Handle, st.Mgr.Var(r.Index))
		}
		return nil
	case wal.ConstRec:
		if r.Value {
			st.set(r.Handle, st.Mgr.One())
		} else {
			st.set(r.Handle, st.Mgr.Zero())
		}
		return nil
	case wal.ApplyRec:
		return st.applyOps([]wal.ApplyRec{r})
	case wal.BatchRec:
		return st.applyOps(r.Ops)
	case wal.ITERec:
		f, err := st.Get(r.F)
		if err != nil {
			return err
		}
		g, err := st.Get(r.G)
		if err != nil {
			return err
		}
		h, err := st.Get(r.H)
		if err != nil {
			return err
		}
		st.set(r.Handle, f.ITE(g, h))
		return nil
	case wal.NotRec:
		f, err := st.Get(r.F)
		if err != nil {
			return err
		}
		st.set(r.Handle, f.Not())
		return nil
	case wal.QuantifyRec:
		f, err := st.Get(r.F)
		if err != nil {
			return err
		}
		for _, v := range r.Vars {
			if err := st.checkVar("quantified variable", v); err != nil {
				return err
			}
		}
		if r.Forall {
			st.set(r.Handle, f.Forall(r.Vars...))
		} else {
			st.set(r.Handle, f.Exists(r.Vars...))
		}
		return nil
	case wal.RestrictRec:
		f, err := st.Get(r.F)
		if err != nil {
			return err
		}
		if err := st.checkVar("restricted variable", r.Var); err != nil {
			return err
		}
		st.set(r.Handle, f.Restrict(r.Var, r.Value))
		return nil
	case wal.ComposeRec:
		f, err := st.Get(r.F)
		if err != nil {
			return err
		}
		g, err := st.Get(r.G)
		if err != nil {
			return err
		}
		if err := st.checkVar("composed variable", r.Var); err != nil {
			return err
		}
		st.set(r.Handle, f.Compose(r.Var, g))
		return nil
	case wal.FreeRec:
		for _, h := range r.Handles {
			b, err := st.Get(h)
			if err != nil {
				return err
			}
			delete(st.Handles, h)
			b.Free()
		}
		return nil
	case wal.GCRec:
		st.Mgr.GC()
		return nil
	case wal.SnapshotRec, wal.PublishRec:
		return nil // audit records; no session state
	case wal.CloseRec:
		st.Closed = true
		return nil
	}
	return fmt.Errorf("walreplay: unhandled record kind %v", rec.Kind())
}

// applyOps replays a group of binary applies as one engine batch, the
// same path the live server uses.
func (st *State) applyOps(recs []wal.ApplyRec) error {
	ops := make([]bfbdd.BatchOp, len(recs))
	for i, r := range recs {
		if r.Op >= wal.NumOps {
			return fmt.Errorf("%w: op code %d out of range", ErrInvalid, r.Op)
		}
		f, err := st.Get(r.F)
		if err != nil {
			return err
		}
		g, err := st.Get(r.G)
		if err != nil {
			return err
		}
		ops[i] = bfbdd.BatchOp{Kind: bfbdd.BatchOpKind(r.Op), F: f, G: g}
	}
	results := st.Mgr.ApplyBatch(ops)
	for i, b := range results {
		st.set(recs[i].Handle, b)
	}
	return nil
}
