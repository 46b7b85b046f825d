package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"bfbdd"
	"bfbdd/internal/core"
	"bfbdd/internal/oracle"
	"bfbdd/internal/wal"
	"bfbdd/internal/walreplay"
)

// Every wal verb takes the wal/ directory itself, or a checkpoint
// directory holding one.

// walDir resolves the segment directory: its wal/ child when the given
// path holds no segments but has one, otherwise the path itself.
func walDir(dir string) string {
	if ids, err := wal.SessionIDs(dir); err == nil && len(ids) > 0 {
		return dir
	}
	if st, err := os.Stat(wal.Dir(dir)); err == nil && st.IsDir() {
		return wal.Dir(dir)
	}
	return dir
}

// dirAndIDs parses "dir [session-id]": the named session, or every
// session in the directory.
func dirAndIDs(verb string, args []string) (string, []string, error) {
	if len(args) < 1 || len(args) > 2 {
		return "", nil, usagef("%s takes a directory and an optional session id", verb)
	}
	dir := walDir(args[0])
	if len(args) == 2 {
		return dir, []string{args[1]}, nil
	}
	ids, err := wal.SessionIDs(dir)
	if err != nil {
		return "", nil, err
	}
	if len(ids) == 0 {
		return "", nil, fmt.Errorf("no WAL segments under %s", dir)
	}
	sort.Strings(ids)
	return dir, ids, nil
}

// walInfo prints each session's segment chain: bases, record counts by
// kind, last sequences, epochs and torn tails, without building a node.
func walInfo(c *cli, args []string) error {
	dir, ids, err := dirAndIDs("info", args)
	if err != nil {
		return err
	}
	for _, id := range ids {
		segs, err := wal.ListSegments(dir, id)
		if err != nil {
			return err
		}
		c.printf("session %s (%d segments)\n", id, len(segs))
		c.printf("  %20s %10s %20s %6s %s\n", "base", "records", "last-seq", "epoch", "state")
		for _, sg := range segs {
			var kinds [256]int // records per wal.Kind
			st, err := wal.ScanSegmentFile(sg.Path, func(e wal.Entry) error {
				kinds[e.Rec.Kind()]++
				return nil
			})
			if err != nil {
				c.printf("  %20d %10s %20s %6s unreadable: %v\n", sg.Base, "-", "-", "-", err)
				continue
			}
			state := "clean"
			if st.Torn {
				state = fmt.Sprintf("torn tail (%v)", st.TornErr)
			}
			c.printf("  %20d %10d %20d %6d %s\n", st.Base, st.Records, st.LastSeq, st.Epoch, state)
			var counts []string
			for k, n := range kinds {
				if n > 0 {
					counts = append(counts, fmt.Sprintf("%s=%d", wal.Kind(k), n))
				}
			}
			if len(counts) > 0 {
				c.printf("    %s\n", strings.Join(counts, ", "))
			}
		}
	}
	return nil
}

// walVerdict is the one-line result of wal verify.
type walVerdict struct {
	OK        bool     `json:"ok"`
	Dir       string   `json:"dir"`
	Sessions  int      `json:"sessions"`
	Segments  int      `json:"segments"`
	Records   uint64   `json:"records"`
	TornTails int      `json:"torn_tails,omitempty"`
	MaxEpoch  uint64   `json:"max_epoch,omitempty"`
	Errors    []string `json:"errors,omitempty"`
}

// walVerify runs the chain verifier recovery and replication share:
// dense sequences across segment boundaries, header bases matching file
// names, no epoch regression, and a torn tail tolerated only on the
// newest segment, the expected shape of a crash. A torn tail mid-chain
// or an unreachable segment gives an ok:false verdict, since recovery
// would lose acknowledged history after it.
func walVerify(c *cli, args []string) error {
	dir, ids, err := dirAndIDs("verify", args)
	if err != nil {
		return err
	}
	v := walVerdict{Dir: dir, Sessions: len(ids)}
	for _, id := range ids {
		cs, err := wal.VerifyChain(dir, id)
		v.Segments += cs.Segments
		v.Records += cs.Records
		if cs.TornTail {
			v.TornTails++
		}
		v.MaxEpoch = max(v.MaxEpoch, cs.MaxEpoch)
		switch {
		case err != nil:
			v.Errors = append(v.Errors, fmt.Sprintf("%s: %v", id, err))
		case cs.Segments == 0:
			v.Errors = append(v.Errors, fmt.Sprintf("%s: no segments", id))
		}
	}
	v.OK = len(v.Errors) == 0
	return c.verdict(v.OK, v)
}

// history parses "dir session-id" and digs the variable count out of
// the session's creation record, sequence 1 of the chain. A log whose
// oldest segment starts above zero has been truncated by a checkpoint
// and no longer describes the full history.
func history(verb string, args []string) (dir, id string, vars int, err error) {
	if len(args) != 2 {
		return "", "", 0, usagef("%s takes a directory and a session id", verb)
	}
	dir, id = walDir(args[0]), args[1]
	found := false
	stop := errors.New("stop")
	_, err = wal.ReplayTail(dir, id, 0, func(e wal.Entry) error {
		if e.Seq != 1 {
			return stop
		}
		cr, ok := e.Rec.(wal.CreateRec)
		if !ok {
			return fmt.Errorf("sequence 1 is %v, not the creation record — log truncated?", e.Rec.Kind())
		}
		var o struct {
			Vars int `json:"vars"`
		}
		if err := json.Unmarshal(cr.Options, &o); err != nil {
			return fmt.Errorf("creation record: %w", err)
		}
		vars, found = o.Vars, true
		return stop
	})
	if err == stop {
		err = nil
	}
	if err == nil && !found {
		err = fmt.Errorf("no creation record at sequence 1: the log has been truncated below a checkpoint (full replay needs the complete history; use the server's snapshot+tail recovery instead)")
	}
	return dir, id, vars, err
}

// replayFull walks a session's whole history from its creation record,
// failing if the segment chain breaks.
func replayFull(dir, id string, fn func(wal.Entry) error) (wal.ReplayStats, error) {
	stats, err := wal.ReplayTail(dir, id, 0, fn)
	if err == nil && stats.Gap {
		err = fmt.Errorf("unreachable records: segment chain breaks before base %d", stats.GapBase)
	}
	return stats, err
}

// walReplay rebuilds the session in a fresh manager and prints its
// handle table with the per-handle signatures the server's "signature"
// query reports.
func walReplay(c *cli, args []string) error {
	dir, id, vars, err := history("replay", args)
	if err != nil {
		return err
	}
	m := bfbdd.New(vars)
	defer m.Close()
	st := walreplay.NewState(m)
	stats, err := replayFull(dir, id, func(e wal.Entry) error { return st.Apply(e.Rec) })
	if err != nil {
		return err
	}
	c.printf("session:   %s\n", id)
	c.printf("vars:      %d\n", vars)
	c.printf("replayed:  %d records over %d segments (last seq %d)\n",
		stats.Replayed, stats.Segments, stats.LastSeq)
	if stats.TornTails > 0 {
		c.printf("torn:      %d tail(s) discarded\n", stats.TornTails)
	}
	if st.Closed {
		c.printf("closed:    the history ends with a close record\n")
	}
	c.printf("handles:   %d live, next handle %d\n", len(st.Handles), st.NextHandle+1)
	hs := make([]uint64, 0, len(st.Handles))
	for h := range st.Handles {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	for _, h := range hs {
		b := st.Handles[h]
		c.printf("  handle %-8d size %-10d signature %s\n", h, b.Size(), walreplay.Signature(m, b))
	}
	return nil
}

// walExport translates a session's history into an internal/oracle
// operation sequence, so the cross-engine differential harness can
// replay a production workload against every engine with truth-table
// ground truth. Slot layout follows the oracle's fixed prefix: slot 0 is
// the constant zero, slot 1 one, slot 2+v variable v. Every producing
// record appends exactly one slot, so handles map onto slots as the
// export walks the log. Operations the oracle grammar lacks are
// expanded: ITE(f,g,h) = (f∧g)∨(¬f∧h), Compose(f,v,g) =
// ITE(g, f|v=1, f|v=0). Frees and audit records carry no function
// content and are skipped; quantifications need the variable count to
// fit the oracle's 32-bit mask.
func walExport(c *cli, args []string) error {
	dir, id, vars, err := history("export", args)
	if err != nil {
		return err
	}

	seq := oracle.Sequence{Vars: vars}
	slots := 2 + vars // oracle base slots: zero, one, one per variable
	slotOf := make(map[uint64]int)
	// get maps handles onto their slots.
	get := func(hs ...uint64) ([]int, error) {
		s := make([]int, len(hs))
		for i, h := range hs {
			var ok bool
			if s[i], ok = slotOf[h]; !ok {
				return nil, fmt.Errorf("no slot for handle %d", h)
			}
		}
		return s, nil
	}
	checkVar := func(seqNo uint64, v int) error {
		if v < 0 || v >= vars {
			return fmt.Errorf("seq %d: variable %d out of range", seqNo, v)
		}
		return nil
	}
	push := func(r oracle.OpRec) int {
		seq.Ops = append(seq.Ops, r)
		slots++
		return slots - 1
	}
	apply := func(op core.Op, a, b int) int {
		return push(oracle.OpRec{Kind: oracle.KApply, Op: op, A: a, B: b})
	}
	not := func(a int) int { return push(oracle.OpRec{Kind: oracle.KNot, A: a}) }
	restrict := func(a, v int, val bool) int {
		return push(oracle.OpRec{Kind: oracle.KRestrict, A: a, Var: v, Val: val})
	}
	// ite emits ITE(f,g,h) as (f∧g)∨(¬f∧h): four records.
	ite := func(f, g, h int) int {
		t1 := apply(core.OpAnd, f, g)
		t2 := apply(core.OpAnd, not(f), h)
		return apply(core.OpOr, t1, t2)
	}
	applyRec := func(r wal.ApplyRec) error {
		if r.Op >= wal.NumOps {
			return fmt.Errorf("op code %d out of range", r.Op)
		}
		s, err := get(r.F, r.G)
		if err != nil {
			return err
		}
		slotOf[r.Handle] = apply(core.Op(r.Op), s[0], s[1])
		return nil
	}

	var skipped int
	_, err = replayFull(dir, id, func(e wal.Entry) error {
		switch r := e.Rec.(type) {
		case wal.CreateRec, wal.SnapshotRec, wal.PublishRec, wal.CloseRec:
		case wal.VarRec:
			if err := checkVar(e.Seq, r.Index); err != nil {
				return err
			}
			slotOf[r.Handle] = 2 + r.Index
			if r.Negated {
				slotOf[r.Handle] = not(2 + r.Index)
			}
		case wal.ConstRec:
			slotOf[r.Handle] = 0
			if r.Value {
				slotOf[r.Handle] = 1
			}
		case wal.ApplyRec:
			return applyRec(r)
		case wal.BatchRec:
			for _, op := range r.Ops {
				if err := applyRec(op); err != nil {
					return fmt.Errorf("seq %d: %w", e.Seq, err)
				}
			}
		case wal.ITERec:
			s, err := get(r.F, r.G, r.H)
			if err != nil {
				return err
			}
			slotOf[r.Handle] = ite(s[0], s[1], s[2])
		case wal.NotRec:
			s, err := get(r.F)
			if err != nil {
				return err
			}
			slotOf[r.Handle] = not(s[0])
		case wal.QuantifyRec:
			s, err := get(r.F)
			if err != nil {
				return err
			}
			var mask uint32
			for _, v := range r.Vars {
				if v < 0 || v >= 32 || v >= vars {
					return fmt.Errorf("seq %d: variable %d does not fit the oracle's 32-bit quantifier mask", e.Seq, v)
				}
				mask |= 1 << uint(v)
			}
			kind := oracle.KExists
			if r.Forall {
				kind = oracle.KForall
			}
			slotOf[r.Handle] = push(oracle.OpRec{Kind: kind, A: s[0], VarsMask: mask})
		case wal.RestrictRec:
			s, err := get(r.F)
			if err != nil {
				return err
			}
			if err := checkVar(e.Seq, r.Var); err != nil {
				return err
			}
			slotOf[r.Handle] = restrict(s[0], r.Var, r.Value)
		case wal.ComposeRec:
			s, err := get(r.F, r.G)
			if err != nil {
				return err
			}
			if err := checkVar(e.Seq, r.Var); err != nil {
				return err
			}
			hi := restrict(s[0], r.Var, true)
			lo := restrict(s[0], r.Var, false)
			slotOf[r.Handle] = ite(s[1], hi, lo)
		case wal.FreeRec:
			for _, h := range r.Handles {
				delete(slotOf, h)
			}
		case wal.GCRec:
			seq.Ops = append(seq.Ops, oracle.OpRec{Kind: oracle.KGC})
		default:
			skipped++
		}
		return nil
	})
	if err != nil {
		return err
	}
	if skipped > 0 {
		fmt.Fprintf(c.stderr, "bfbdd: wal export: %d record(s) without an oracle equivalent skipped\n", skipped)
	}
	enc := json.NewEncoder(c.stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(seq)
}
