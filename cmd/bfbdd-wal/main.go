// Command bfbdd-wal is the offline toolkit for bfbdd write-ahead-log
// directories — the wal/ subtree the server journals every mutating
// operation into before acknowledging it.
//
//	bfbdd-wal info   dir [sid]      per-session segment chain: bases,
//	                                record counts, last sequences, torn
//	                                tails — without building a single node
//	bfbdd-wal verify dir [sid]      full structural scan; one-line JSON
//	                                verdict on stdout, nonzero exit on any
//	                                corruption the recovery path would not
//	                                tolerate (a torn tail on the NEWEST
//	                                segment is the expected shape of a
//	                                crash and passes; a torn tail mid-chain
//	                                or an unreachable segment fails)
//	bfbdd-wal replay dir sid        deterministic replay from the creation
//	                                record into a fresh manager; prints the
//	                                rebuilt handle table with the same
//	                                per-handle signatures the server's
//	                                "signature" query reports
//	bfbdd-wal export dir sid        translate the session's history into an
//	                                internal/oracle operation sequence
//	                                (JSON on stdout) for cross-engine
//	                                differential replay
//
// dir is the wal/ directory itself, or a checkpoint directory containing
// one (the tool looks for dir/wal when dir holds no segments).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"bfbdd"
	"bfbdd/internal/core"
	"bfbdd/internal/oracle"
	"bfbdd/internal/wal"
	"bfbdd/internal/walreplay"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd := args[0]; cmd {
	case "info":
		err = runInfo(args[1:])
	case "verify":
		err = runVerify(args[1:])
	case "replay":
		err = runReplay(args[1:])
	case "export":
		err = runExport(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "bfbdd-wal: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfbdd-wal: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  bfbdd-wal info   dir [session-id]   segment chains, record counts, torn tails
  bfbdd-wal verify dir [session-id]   one-line JSON verdict; nonzero exit on corruption
  bfbdd-wal replay dir session-id     rebuild the session, print the handle table
  bfbdd-wal export dir session-id     oracle operation sequence (JSON) on stdout
`)
}

// walDir resolves the segment directory: its wal/ child when the given
// path holds no segments but has one, otherwise the path itself — so
// both the server's -checkpoint-dir and the wal/ subtree are accepted.
func walDir(dir string) string {
	if ids, err := wal.SessionIDs(dir); err == nil && len(ids) > 0 {
		return dir
	}
	if st, err := os.Stat(wal.Dir(dir)); err == nil && st.IsDir() {
		return wal.Dir(dir)
	}
	return dir
}

// dirAndIDs resolves the directory and the session set to operate on.
func dirAndIDs(args []string, cmd string) (string, []string, error) {
	if len(args) < 1 || len(args) > 2 {
		return "", nil, fmt.Errorf("%s takes a directory and an optional session id", cmd)
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

func runInfo(args []string) error {
	dir, ids, err := dirAndIDs(args, "info")
	if err != nil {
		return err
	}
	for _, id := range ids {
		segs, err := wal.ListSegments(dir, id)
		if err != nil {
			return err
		}
		fmt.Printf("session %s (%d segments)\n", id, len(segs))
		fmt.Printf("  %20s %10s %20s %6s %s\n", "base", "records", "last-seq", "epoch", "state")
		for _, sg := range segs {
			kinds := make(map[wal.Kind]int)
			st, err := wal.ScanSegmentFile(sg.Path, func(e wal.Entry) error {
				kinds[e.Rec.Kind()]++
				return nil
			})
			if err != nil {
				fmt.Printf("  %20d %10s %20s %6s unreadable: %v\n", sg.Base, "-", "-", "-", err)
				continue
			}
			state := "clean"
			if st.Torn {
				state = fmt.Sprintf("torn tail (%v)", st.TornErr)
			}
			fmt.Printf("  %20d %10d %20d %6d %s\n", st.Base, st.Records, st.LastSeq, st.Epoch, state)
			if len(kinds) > 0 {
				var ks []wal.Kind
				for k := range kinds {
					ks = append(ks, k)
				}
				sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
				fmt.Printf("    ")
				for i, k := range ks {
					if i > 0 {
						fmt.Printf(", ")
					}
					fmt.Printf("%s=%d", k, kinds[k])
				}
				fmt.Printf("\n")
			}
		}
	}
	return nil
}

// verdict is the one-line machine-readable verify result.
type verdict struct {
	OK        bool     `json:"ok"`
	Dir       string   `json:"dir"`
	Sessions  int      `json:"sessions"`
	Segments  int      `json:"segments"`
	Records   uint64   `json:"records"`
	TornTails int      `json:"torn_tails,omitempty"`
	MaxEpoch  uint64   `json:"max_epoch,omitempty"`
	Errors    []string `json:"errors,omitempty"`
}

// verifySession delegates to the chain verifier shared with recovery and
// replication: dense sequences across segment boundaries, header bases
// matching file names, no epoch regression, and a torn tail tolerated
// only on the newest segment (the expected shape of a crash) — torn
// mid-chain segments and unreachable segments are corruption, recovery
// would lose acknowledged history after them.
func verifySession(dir, id string, v *verdict) {
	cs, err := wal.VerifyChain(dir, id)
	v.Segments += cs.Segments
	v.Records += cs.Records
	if cs.TornTail {
		v.TornTails++
	}
	if cs.MaxEpoch > v.MaxEpoch {
		v.MaxEpoch = cs.MaxEpoch
	}
	if err != nil {
		v.Errors = append(v.Errors, fmt.Sprintf("%s: %v", id, err))
		return
	}
	if cs.Segments == 0 {
		v.Errors = append(v.Errors, fmt.Sprintf("%s: no segments", id))
	}
}

func runVerify(args []string) error {
	dir, ids, err := dirAndIDs(args, "verify")
	if err != nil {
		return err
	}
	v := verdict{Dir: dir, Sessions: len(ids)}
	for _, id := range ids {
		verifySession(dir, id, &v)
	}
	v.OK = len(v.Errors) == 0
	out, _ := json.Marshal(v)
	fmt.Println(string(out))
	if !v.OK {
		os.Exit(1)
	}
	return nil
}

// createOptions digs the session's creation record (sequence 1 of the
// chain) out of the log. Replay and export need the variable count; a log
// whose oldest segment starts above zero has been truncated by a
// checkpoint and no longer describes the full history.
func createOptions(dir, id string) (vars int, err error) {
	type sessionOptions struct {
		Vars int `json:"vars"`
	}
	found := false
	stop := fmt.Errorf("stop")
	_, serr := wal.ReplayTail(dir, id, 0, func(e wal.Entry) error {
		if e.Seq != 1 {
			return stop
		}
		cr, ok := e.Rec.(wal.CreateRec)
		if !ok {
			return fmt.Errorf("sequence 1 is %v, not the creation record — log truncated?", e.Rec.Kind())
		}
		var o sessionOptions
		if err := json.Unmarshal(cr.Options, &o); err != nil {
			return fmt.Errorf("creation record: %w", err)
		}
		vars, found = o.Vars, true
		return stop
	})
	if serr != nil && serr != stop {
		return 0, serr
	}
	if !found {
		return 0, fmt.Errorf("no creation record at sequence 1: the log has been truncated below a checkpoint (full replay needs the complete history; use the server's snapshot+tail recovery instead)")
	}
	return vars, nil
}

func runReplay(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("replay takes a directory and a session id")
	}
	dir := walDir(args[0])
	id := args[1]
	vars, err := createOptions(dir, id)
	if err != nil {
		return err
	}
	m := bfbdd.New(vars)
	defer m.Close()
	st := walreplay.NewState(m)
	stats, err := wal.ReplayTail(dir, id, 0, func(e wal.Entry) error {
		return st.Apply(e.Rec)
	})
	if err != nil {
		return err
	}
	if stats.Gap {
		return fmt.Errorf("unreachable records: segment chain breaks before base %d", stats.GapBase)
	}
	fmt.Printf("session:   %s\n", id)
	fmt.Printf("vars:      %d\n", vars)
	fmt.Printf("replayed:  %d records over %d segments (last seq %d)\n",
		stats.Replayed, stats.Segments, stats.LastSeq)
	if stats.TornTails > 0 {
		fmt.Printf("torn:      %d tail(s) discarded\n", stats.TornTails)
	}
	if st.Closed {
		fmt.Printf("closed:    the history ends with a close record\n")
	}
	fmt.Printf("handles:   %d live, next handle %d\n", len(st.Handles), st.NextHandle+1)
	hs := make([]uint64, 0, len(st.Handles))
	for h := range st.Handles {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	for _, h := range hs {
		b := st.Handles[h]
		fmt.Printf("  handle %-8d size %-10d signature %s\n", h, b.Size(), walreplay.Signature(m, b))
	}
	return nil
}

// runExport translates a session's WAL history into an internal/oracle
// operation sequence: the cross-engine differential harness can then
// replay a production workload against every engine with truth-table
// ground truth. Slot layout follows the oracle's fixed prefix — slot 0 is
// the constant zero, slot 1 one, slot 2+v variable v — and every
// producing record appends exactly one slot, so handles map onto slots as
// the export walks the log. Composite operations the oracle grammar lacks
// are expanded: ITE(f,g,h) = (f∧g)∨(¬f∧h), Compose(f,v,g) =
// ITE(g, f|v=1, f|v=0). Frees and audit records carry no function
// content and are skipped; quantifications need the variable count to
// fit the oracle's 32-bit mask.
func runExport(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("export takes a directory and a session id")
	}
	dir := walDir(args[0])
	id := args[1]
	vars, err := createOptions(dir, id)
	if err != nil {
		return err
	}

	seq := oracle.Sequence{Vars: vars}
	slots := 2 + vars // oracle base slots: zero, one, one per variable
	slotOf := make(map[uint64]int)
	get := func(h uint64) (int, error) {
		s, ok := slotOf[h]
		if !ok {
			return 0, fmt.Errorf("no slot for handle %d", h)
		}
		return s, nil
	}
	push := func(r oracle.OpRec) int {
		seq.Ops = append(seq.Ops, r)
		slots++
		return slots - 1
	}
	apply := func(op core.Op, a, b int) int {
		return push(oracle.OpRec{Kind: oracle.KApply, Op: op, A: a, B: b})
	}
	not := func(a int) int {
		return push(oracle.OpRec{Kind: oracle.KNot, A: a})
	}
	restrict := func(a, v int, val bool) int {
		return push(oracle.OpRec{Kind: oracle.KRestrict, A: a, Var: v, Val: val})
	}
	// ite emits ITE(f,g,h) as (f∧g)∨(¬f∧h): four records.
	ite := func(f, g, h int) int {
		t1 := apply(core.OpAnd, f, g)
		nf := not(f)
		t2 := apply(core.OpAnd, nf, h)
		return apply(core.OpOr, t1, t2)
	}
	mask := func(quantVars []int) (uint32, error) {
		var m uint32
		for _, v := range quantVars {
			if v < 0 || v >= 32 || v >= vars {
				return 0, fmt.Errorf("variable %d does not fit the oracle's 32-bit quantifier mask", v)
			}
			m |= 1 << uint(v)
		}
		return m, nil
	}

	var skipped int
	stats, err := wal.ReplayTail(dir, id, 0, func(e wal.Entry) error {
		switch r := e.Rec.(type) {
		case wal.CreateRec, wal.SnapshotRec, wal.PublishRec, wal.CloseRec:
			return nil
		case wal.VarRec:
			if r.Index < 0 || r.Index >= vars {
				return fmt.Errorf("seq %d: variable %d out of range", e.Seq, r.Index)
			}
			if r.Negated {
				slotOf[r.Handle] = not(2 + r.Index)
			} else {
				slotOf[r.Handle] = 2 + r.Index
			}
			return nil
		case wal.ConstRec:
			if r.Value {
				slotOf[r.Handle] = 1
			} else {
				slotOf[r.Handle] = 0
			}
			return nil
		case wal.ApplyRec:
			return exportApply(r, get, apply, slotOf)
		case wal.BatchRec:
			for _, op := range r.Ops {
				if err := exportApply(op, get, apply, slotOf); err != nil {
					return fmt.Errorf("seq %d: %w", e.Seq, err)
				}
			}
			return nil
		case wal.ITERec:
			f, err := get(r.F)
			if err != nil {
				return err
			}
			g, err := get(r.G)
			if err != nil {
				return err
			}
			h, err := get(r.H)
			if err != nil {
				return err
			}
			slotOf[r.Handle] = ite(f, g, h)
			return nil
		case wal.NotRec:
			f, err := get(r.F)
			if err != nil {
				return err
			}
			slotOf[r.Handle] = not(f)
			return nil
		case wal.QuantifyRec:
			f, err := get(r.F)
			if err != nil {
				return err
			}
			m, err := mask(r.Vars)
			if err != nil {
				return fmt.Errorf("seq %d: %w", e.Seq, err)
			}
			kind := oracle.KExists
			if r.Forall {
				kind = oracle.KForall
			}
			slotOf[r.Handle] = push(oracle.OpRec{Kind: kind, A: f, VarsMask: m})
			return nil
		case wal.RestrictRec:
			f, err := get(r.F)
			if err != nil {
				return err
			}
			if r.Var < 0 || r.Var >= vars {
				return fmt.Errorf("seq %d: variable %d out of range", e.Seq, r.Var)
			}
			slotOf[r.Handle] = restrict(f, r.Var, r.Value)
			return nil
		case wal.ComposeRec:
			f, err := get(r.F)
			if err != nil {
				return err
			}
			g, err := get(r.G)
			if err != nil {
				return err
			}
			if r.Var < 0 || r.Var >= vars {
				return fmt.Errorf("seq %d: variable %d out of range", e.Seq, r.Var)
			}
			hi := restrict(f, r.Var, true)
			lo := restrict(f, r.Var, false)
			slotOf[r.Handle] = ite(g, hi, lo)
			return nil
		case wal.FreeRec:
			for _, h := range r.Handles {
				delete(slotOf, h)
			}
			return nil
		case wal.GCRec:
			seq.Ops = append(seq.Ops, oracle.OpRec{Kind: oracle.KGC})
			return nil
		}
		skipped++
		return nil
	})
	if err != nil {
		return err
	}
	if stats.Gap {
		return fmt.Errorf("unreachable records: segment chain breaks before base %d", stats.GapBase)
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "bfbdd-wal: export: %d record(s) without an oracle equivalent skipped\n", skipped)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(seq)
}

// exportApply maps one journaled binary apply onto an oracle KApply.
func exportApply(r wal.ApplyRec,
	get func(uint64) (int, error),
	apply func(core.Op, int, int) int,
	slotOf map[uint64]int) error {
	if r.Op >= wal.NumOps {
		return fmt.Errorf("op code %d out of range", r.Op)
	}
	f, err := get(r.F)
	if err != nil {
		return err
	}
	g, err := get(r.G)
	if err != nil {
		return err
	}
	slotOf[r.Handle] = apply(core.Op(r.Op), f, g)
	return nil
}
