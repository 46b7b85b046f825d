package oracle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bfbdd"
	"bfbdd/internal/core"
	"bfbdd/internal/netlist"
	"bfbdd/internal/node"
)

// EngineSpec is one engine configuration under differential test.
type EngineSpec struct {
	Name string
	Opts []bfbdd.Option
}

// DefaultEngines returns the full cross-check matrix: the depth-first
// baseline, breadth-first, hybrid, partial breadth-first, and the
// parallel engine at 1, 2, and 4 workers. Thresholds and group sizes are
// deliberately tiny so context pushing, stealing, and GC all engage on
// small fuzz workloads; two engines get aggressive GC settings so
// automatic collections fire mid-sequence.
func DefaultEngines() []EngineSpec {
	return []EngineSpec{
		{"df", []bfbdd.Option{bfbdd.WithEngine(bfbdd.EngineDF)}},
		{"bf", []bfbdd.Option{bfbdd.WithEngine(bfbdd.EngineBF)}},
		{"hybrid", []bfbdd.Option{bfbdd.WithEngine(bfbdd.EngineHybrid), bfbdd.WithEvalThreshold(8)}},
		{"pbf", []bfbdd.Option{bfbdd.WithEngine(bfbdd.EnginePBF), bfbdd.WithEvalThreshold(8),
			bfbdd.WithGroupSize(4), bfbdd.WithGCMinNodes(256)}},
		{"par1", []bfbdd.Option{bfbdd.WithEngine(bfbdd.EnginePar), bfbdd.WithWorkers(1),
			bfbdd.WithEvalThreshold(16), bfbdd.WithGroupSize(4)}},
		{"par2", []bfbdd.Option{bfbdd.WithEngine(bfbdd.EnginePar), bfbdd.WithWorkers(2),
			bfbdd.WithEvalThreshold(8), bfbdd.WithGroupSize(4),
			bfbdd.WithGCPolicy(bfbdd.GCFreeList), bfbdd.WithGCMinNodes(512)}},
		{"par4", []bfbdd.Option{bfbdd.WithEngine(bfbdd.EnginePar), bfbdd.WithWorkers(4),
			bfbdd.WithEvalThreshold(16), bfbdd.WithGroupSize(8)}},
	}
}

// ParseEngines resolves a comma-separated engine list ("df,par4") against
// DefaultEngines; "all" or "" selects everything.
func ParseEngines(list string) ([]EngineSpec, error) {
	all := DefaultEngines()
	if list == "" || list == "all" {
		return all, nil
	}
	byName := make(map[string]EngineSpec, len(all))
	for _, s := range all {
		byName[s.Name] = s
	}
	var out []EngineSpec
	for _, name := range strings.Split(list, ",") {
		s, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("oracle: unknown engine %q", name)
		}
		out = append(out, s)
	}
	return out, nil
}

// Divergence describes one failed cross-check.
type Divergence struct {
	OpIndex int    `json:"op_index"`
	Engine  string `json:"engine"`
	Check   string `json:"check"`
	Detail  string `json:"detail"`
}

func (d *Divergence) String() string {
	return fmt.Sprintf("op %d [%s/%s]: %s", d.OpIndex, d.Engine, d.Check, d.Detail)
}

// Report is the outcome of one differential run.
type Report struct {
	Seq      Sequence
	Executed int         // operations completed before stopping
	Div      *Divergence // nil when the sequence passed every check
}

// Verdict renders the outcome as a stable one-line string; replay files
// compare verdicts byte-for-byte.
func (r Report) Verdict() string {
	if r.Div == nil {
		return "pass"
	}
	return "divergence at " + r.Div.String()
}

// engState is one engine's view of the sequence: its manager and the
// slot list of live function handles. Every engine executes the same
// ops, so slot lists stay index-aligned across engines and with the
// truth-table list.
type engState struct {
	spec  EngineSpec
	m     *bfbdd.Manager
	slots []*bfbdd.BDD
}

// sig computes the manager-independent canonical signature of slot i.
func (st *engState) sig(i int) []uint64 {
	return st.m.Kernel().CanonicalSignature([]node.Ref{st.slots[i].Ref()})
}

// Run executes the sequence against every engine and the truth-table
// evaluator, stopping at the first divergence. A panic anywhere in the
// kernel is reported as a divergence rather than crashing the fuzzer.
func Run(seq Sequence, engines []EngineSpec) (rep Report) {
	rep.Seq = seq
	if seq.Vars < 1 || seq.Vars > MaxVars {
		panic(fmt.Sprintf("oracle: Run with %d vars", seq.Vars))
	}
	if len(engines) == 0 {
		panic("oracle: Run with no engines")
	}
	engs := make([]*engState, len(engines))
	truths := make([]Truth, 0, baseSlots(seq.Vars)+len(seq.Ops))
	truths = append(truths, TruthConst(seq.Vars, false), TruthConst(seq.Vars, true))
	for v := 0; v < seq.Vars; v++ {
		truths = append(truths, TruthVar(seq.Vars, v))
	}
	// Every engine gets a scratch spill tier so KSpill ops exercise the
	// memory-tiering path; if the temp dir can't be made the managers run
	// resident and KSpill degrades to a (passing) no-op round trip.
	spillRoot, rootErr := os.MkdirTemp("", "bfbdd-oracle-spill-*")
	defer func() {
		if rec := recover(); rec != nil {
			rep.Div = &Divergence{OpIndex: rep.Executed, Engine: "run",
				Check: "panic", Detail: fmt.Sprint(rec)}
		}
		for _, st := range engs {
			closeQuiet(st)
		}
		if rootErr == nil {
			os.RemoveAll(spillRoot)
		}
	}()
	for i, spec := range engines {
		opts := spec.Opts
		if rootErr == nil {
			// Not folded into spec.Opts: snapshot restore reuses those for a
			// second live manager, which must not share (and wipe) the dir.
			opts = append(append([]bfbdd.Option{}, spec.Opts...),
				bfbdd.WithSpillDir(filepath.Join(spillRoot, spec.Name)))
		}
		m := bfbdd.New(seq.Vars, opts...)
		st := &engState{spec: spec, m: m}
		st.slots = append(st.slots, m.Zero(), m.One())
		for v := 0; v < seq.Vars; v++ {
			st.slots = append(st.slots, m.Var(v))
		}
		engs[i] = st
	}
	ex := &executor{seq: seq, engs: engs, truths: truths}
	for i, r := range seq.Ops {
		if d := ex.step(i, r); d != nil {
			rep.Div = d
			rep.Executed = i
			return rep
		}
		rep.Executed = i + 1
	}
	return rep
}

// closeQuiet closes an engine state, swallowing panics from managers a
// detected kernel bug may have corrupted.
func closeQuiet(st *engState) {
	if st == nil || st.m == nil || st.m.Closed() {
		return
	}
	defer func() { _ = recover() }()
	st.m.Close()
}

type executor struct {
	seq    Sequence
	engs   []*engState
	truths []Truth
}

// slot resolves a raw operand draw against the live slot count.
func (ex *executor) slot(raw int) int { return raw % len(ex.truths) }

// step executes one record on every engine and cross-checks the results.
func (ex *executor) step(i int, r OpRec) *Divergence {
	vars := ex.seq.Vars
	switch r.Kind {
	case KApply:
		a, b := ex.slot(r.A), ex.slot(r.B)
		for _, st := range ex.engs {
			st.slots = append(st.slots, applyBDD(r.Op, st.slots[a], st.slots[b]))
		}
		ex.truths = append(ex.truths, ex.truths[a].Bin(r.Op, ex.truths[b]))
		return ex.checkNewest(i, r.Seed)
	case KNot:
		a := ex.slot(r.A)
		for _, st := range ex.engs {
			st.slots = append(st.slots, st.slots[a].Not())
		}
		ex.truths = append(ex.truths, ex.truths[a].Not())
		return ex.checkNewest(i, r.Seed)
	case KRestrict:
		a, v := ex.slot(r.A), r.Var%vars
		for _, st := range ex.engs {
			st.slots = append(st.slots, st.slots[a].Restrict(v, r.Val))
		}
		ex.truths = append(ex.truths, ex.truths[a].Restrict(v, r.Val))
		return ex.checkNewest(i, r.Seed)
	case KExists, KForall:
		a := ex.slot(r.A)
		mask := r.VarsMask & (1<<vars - 1)
		vs := maskVars(mask)
		for _, st := range ex.engs {
			var nb *bfbdd.BDD
			if r.Kind == KExists {
				nb = st.slots[a].Exists(vs...)
			} else {
				nb = st.slots[a].Forall(vs...)
			}
			st.slots = append(st.slots, nb)
		}
		if r.Kind == KExists {
			ex.truths = append(ex.truths, ex.truths[a].Exists(mask))
		} else {
			ex.truths = append(ex.truths, ex.truths[a].Forall(mask))
		}
		return ex.checkNewest(i, r.Seed)
	case KCircuit:
		return ex.execCircuit(i, r)
	case KMeta:
		return ex.execMeta(i, r)
	case KEval:
		a := ex.slot(r.A)
		rng := rand.New(rand.NewSource(r.Seed))
		for s := 0; s < 8; s++ {
			row := rng.Intn(1 << vars)
			if d := ex.checkRow(i, a, row); d != nil {
				return d
			}
		}
		return nil
	case KAnySat:
		return ex.execAnySat(i, r)
	case KSatCount:
		a := ex.slot(r.A)
		want := ex.truths[a].Count()
		for _, st := range ex.engs {
			if got := st.slots[a].SatCount(); got.Cmp(want) != 0 {
				return &Divergence{i, st.spec.Name, "satcount",
					fmt.Sprintf("slot %d: SatCount=%v truth=%v", a, got, want)}
			}
		}
		return nil
	case KGC:
		for _, st := range ex.engs {
			st.m.GC()
		}
		return ex.checkSlot(i, ex.slot(r.A), r.Seed)
	case KReorder:
		perm := rand.New(rand.NewSource(r.Seed)).Perm(vars)
		for _, st := range ex.engs {
			st.m.SetOrder(perm)
		}
		return ex.checkSlot(i, ex.slot(r.A), r.Seed)
	case KSnapshot:
		return ex.execSnapshot(i)
	case KAbort:
		return ex.execAbort(i, r)
	case KCompile:
		return ex.execCompile(i, r)
	case KSpill:
		return ex.execSpill(i, r)
	case KBatch:
		return ex.execBatch(i, r)
	}
	return &Divergence{i, "run", "grammar", fmt.Sprintf("unknown op kind %d", int(r.Kind))}
}

// applyBDD dispatches a binary op code onto the public BDD API.
func applyBDD(op core.Op, f, g *bfbdd.BDD) *bfbdd.BDD {
	switch op {
	case core.OpAnd:
		return f.And(g)
	case core.OpOr:
		return f.Or(g)
	case core.OpXor:
		return f.Xor(g)
	case core.OpNand:
		return f.Nand(g)
	case core.OpNor:
		return f.Nor(g)
	case core.OpXnor:
		return f.Xnor(g)
	case core.OpDiff:
		return f.Diff(g)
	case core.OpImp:
		return f.Implies(g)
	}
	panic("oracle: applyBDD on " + op.String())
}

// maskVars expands a variable bitmask into a sorted index list.
func maskVars(mask uint32) []int {
	var vs []int
	for v := 0; mask != 0; v, mask = v+1, mask>>1 {
		if mask&1 == 1 {
			vs = append(vs, v)
		}
	}
	return vs
}

// checkNewest cross-checks the slot appended by the current op.
func (ex *executor) checkNewest(i int, seed int64) *Divergence {
	return ex.checkSlot(i, len(ex.truths)-1, seed)
}

// checkSlot compares slot s structurally across all engines and samples
// its evaluation against the truth table.
func (ex *executor) checkSlot(i, s int, seed int64) *Divergence {
	sig0 := ex.engs[0].sig(s)
	for _, st := range ex.engs[1:] {
		if !equalU64(st.sig(s), sig0) {
			return &Divergence{i, st.spec.Name, "canonical",
				fmt.Sprintf("slot %d structure differs from %s", s, ex.engs[0].spec.Name)}
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	for k := 0; k < 4; k++ {
		if d := ex.checkRow(i, s, rng.Intn(1<<ex.seq.Vars)); d != nil {
			return d
		}
	}
	return nil
}

// checkRow evaluates slot s on one assignment row across all engines.
func (ex *executor) checkRow(i, s, row int) *Divergence {
	want := ex.truths[s].Bit(row)
	assign := Assignment(ex.seq.Vars, row)
	for _, st := range ex.engs {
		if got := st.slots[s].Eval(assign); got != want {
			return &Divergence{i, st.spec.Name, "eval",
				fmt.Sprintf("slot %d row %d: Eval=%v truth=%v", s, row, got, want)}
		}
	}
	return nil
}

// execCircuit builds a pseudo-random netlist gate by gate through every
// engine (reusing netlist.Random, the fuzz DAG generator) and appends
// its output functions as new slots.
func (ex *executor) execCircuit(i int, r OpRec) *Divergence {
	in := (r.A-1)%ex.seq.Vars + 1
	c := netlist.Random(in, r.B, r.Seed)
	inputPos := make(map[int]int, len(c.Inputs))
	for pos, gi := range c.Inputs {
		inputPos[gi] = pos
	}
	// Ground truth per gate.
	gateT := make([]Truth, len(c.Gates))
	for gi, g := range c.Gates {
		gateT[gi] = gateTruth(ex.seq.Vars, g, gateT, inputPos[gi])
	}
	isOut := make(map[int]bool, len(c.Outputs))
	for _, o := range c.Outputs {
		isOut[o] = true
	}
	for _, st := range ex.engs {
		gateB := make([]*bfbdd.BDD, len(c.Gates))
		for gi, g := range c.Gates {
			gateB[gi] = gateBDD(st.m, g, gateB, inputPos[gi])
		}
		for _, o := range c.Outputs {
			st.slots = append(st.slots, gateB[o])
		}
		for gi, b := range gateB {
			if !isOut[gi] {
				b.Free()
			}
		}
	}
	first := len(ex.truths)
	for _, o := range c.Outputs {
		ex.truths = append(ex.truths, gateT[o])
	}
	for s := first; s < len(ex.truths); s++ {
		if d := ex.checkSlot(i, s, r.Seed+int64(s)); d != nil {
			return d
		}
	}
	return nil
}

// execBatch issues batchSize(r) binary operations over the live slots as
// one Manager.ApplyBatch on every engine, appends the results, and checks
// each against its truth table. Op codes and raw operand draws come from
// r.Seed in a fixed order, so removing earlier records only changes which
// slots the draws resolve to.
func (ex *executor) execBatch(i int, r OpRec) *Divergence {
	rng := rand.New(rand.NewSource(r.Seed))
	type binOp struct {
		op   core.Op
		a, b int
	}
	ops := make([]binOp, batchSize(r))
	for j := range ops {
		ops[j] = binOp{core.Op(rng.Intn(numBinOps)), ex.slot(rng.Int()), ex.slot(rng.Int())}
		if rng.Intn(8) == 0 {
			ops[j].b = ops[j].a // same-operand applies hit the f==g terminal rules
		}
	}
	for _, st := range ex.engs {
		batch := make([]bfbdd.BatchOp, len(ops))
		for j, o := range ops {
			// BatchOpKind lists the binary ops in core.Op order.
			batch[j] = bfbdd.BatchOp{Kind: bfbdd.BatchOpKind(o.op), F: st.slots[o.a], G: st.slots[o.b]}
		}
		st.slots = append(st.slots, st.m.ApplyBatch(batch)...)
	}
	first := len(ex.truths)
	for _, o := range ops {
		ex.truths = append(ex.truths, ex.truths[o.a].Bin(o.op, ex.truths[o.b]))
	}
	for s := first; s < len(ex.truths); s++ {
		if d := ex.checkSlot(i, s, r.Seed+int64(s)); d != nil {
			return d
		}
	}
	return nil
}

// gateTruth evaluates one gate over the truth tables of its fanins.
func gateTruth(vars int, g netlist.Gate, gateT []Truth, inputPos int) Truth {
	switch g.Type {
	case netlist.GateInput:
		return TruthVar(vars, inputPos)
	case netlist.GateConst0:
		return TruthConst(vars, false)
	case netlist.GateConst1:
		return TruthConst(vars, true)
	case netlist.GateNot:
		return gateT[g.Fanin[0]].Not()
	case netlist.GateBuf:
		return gateT[g.Fanin[0]]
	}
	op, neg := gateOp(g.Type)
	t := gateT[g.Fanin[0]]
	for _, f := range g.Fanin[1:] {
		t = t.Bin(op, gateT[f])
	}
	if neg {
		t = t.Not()
	}
	return t
}

// gateBDD evaluates one gate symbolically through the public BDD API.
func gateBDD(m *bfbdd.Manager, g netlist.Gate, gateB []*bfbdd.BDD, inputPos int) *bfbdd.BDD {
	switch g.Type {
	case netlist.GateInput:
		return m.Var(inputPos)
	case netlist.GateConst0:
		return m.Zero()
	case netlist.GateConst1:
		return m.One()
	case netlist.GateNot:
		return gateB[g.Fanin[0]].Not()
	case netlist.GateBuf:
		b := gateB[g.Fanin[0]]
		return b.Or(b) // fresh handle for the same function
	}
	op, neg := gateOp(g.Type)
	b := gateB[g.Fanin[0]]
	free := false
	for _, f := range g.Fanin[1:] {
		nb := applyBDD(op, b, gateB[f])
		if free {
			b.Free()
		}
		b, free = nb, true
	}
	if neg {
		nb := b.Not()
		if free {
			b.Free()
		}
		b = nb
	}
	return b
}

// gateOp maps an n-ary gate type onto a base binary op and a final
// negation (NAND folds as AND then NOT, matching netlist.GateType.Eval).
func gateOp(t netlist.GateType) (core.Op, bool) {
	switch t {
	case netlist.GateAnd:
		return core.OpAnd, false
	case netlist.GateNand:
		return core.OpAnd, true
	case netlist.GateOr:
		return core.OpOr, false
	case netlist.GateNor:
		return core.OpOr, true
	case netlist.GateXor:
		return core.OpXor, false
	case netlist.GateXnor:
		return core.OpXor, true
	}
	panic("oracle: gateOp on " + t.String())
}

// execMeta checks metamorphic Boolean identities on two existing slots
// within each engine; all comparisons are canonical-handle equality, so
// they hold independently of the truth tables.
func (ex *executor) execMeta(i int, r OpRec) *Divergence {
	a, b := ex.slot(r.A), ex.slot(r.B)
	v := r.Var % ex.seq.Vars
	for _, st := range ex.engs {
		f, g := st.slots[a], st.slots[b]
		if d := metaCheck(i, st.spec.Name, f, g, v); d != nil {
			return d
		}
	}
	return nil
}

func metaCheck(i int, engine string, f, g *bfbdd.BDD, v int) *Divergence {
	fail := func(check string) *Divergence {
		return &Divergence{i, engine, check, fmt.Sprintf("identity violated (v%d)", v)}
	}
	tmp := make([]*bfbdd.BDD, 0, 16)
	keep := func(b *bfbdd.BDD) *bfbdd.BDD { tmp = append(tmp, b); return b }
	defer func() {
		for _, b := range tmp {
			b.Free()
		}
	}()
	// De Morgan: ¬(f ∧ g) = ¬f ∨ ¬g.
	nf, ng := keep(f.Not()), keep(g.Not())
	if !keep(keep(f.And(g)).Not()).Equal(keep(nf.Or(ng))) {
		return fail("meta-demorgan")
	}
	// Absorption: f ∨ (f ∧ g) = f and f ∧ (f ∨ g) = f.
	if !keep(f.Or(keep(f.And(g)))).Equal(f) {
		return fail("meta-absorb-or")
	}
	if !keep(f.And(keep(f.Or(g)))).Equal(f) {
		return fail("meta-absorb-and")
	}
	// f ⊕ f = 0.
	if !keep(f.Xor(f)).IsZero() {
		return fail("meta-xor-self")
	}
	// Implication expansion: f → g = ¬f ∨ g.
	if !keep(f.Implies(g)).Equal(keep(nf.Or(g))) {
		return fail("meta-implies")
	}
	// Quantifier duality: ¬∃v f = ∀v ¬f.
	if !keep(keep(f.Exists(v)).Not()).Equal(keep(nf.Forall(v))) {
		return fail("meta-quant-dual")
	}
	return nil
}

// execAnySat checks AnySat agreement with the truth table: satisfiable
// exactly when the table is non-zero, and any returned partial
// assignment must satisfy under both all-false and all-true completions
// of its don't-cares.
func (ex *executor) execAnySat(i int, r OpRec) *Divergence {
	a := ex.slot(r.A)
	want := !ex.truths[a].IsZero()
	for _, st := range ex.engs {
		assign, ok := st.slots[a].AnySat()
		if ok != want {
			return &Divergence{i, st.spec.Name, "anysat",
				fmt.Sprintf("slot %d: ok=%v truth satisfiable=%v", a, ok, want)}
		}
		if !ok {
			continue
		}
		row0, row1 := 0, 1<<ex.seq.Vars-1
		for v, val := range assign {
			if val {
				row0 |= 1 << v
			} else {
				row1 &^= 1 << v
			}
		}
		if !ex.truths[a].Bit(row0) || !ex.truths[a].Bit(row1) {
			return &Divergence{i, st.spec.Name, "anysat",
				fmt.Sprintf("slot %d: assignment completion unsatisfied (rows %d,%d)", a, row0, row1)}
		}
	}
	return nil
}

// execSnapshot round-trips every engine's full slot set through the
// snapshot subsystem: restore must reproduce the exact canonical
// structure and the re-snapshot must be byte-identical.
func (ex *executor) execSnapshot(i int) *Divergence {
	for _, st := range ex.engs {
		if d := snapshotRoundTrip(i, st); d != nil {
			return d
		}
	}
	return nil
}

func snapshotRoundTrip(i int, st *engState) *Divergence {
	roots := make([]bfbdd.SnapshotRoot, len(st.slots))
	for j, b := range st.slots {
		roots[j] = bfbdd.SnapshotRoot{ID: uint64(j), B: b}
	}
	var buf bytes.Buffer
	if err := st.m.SnapshotRoots(&buf, roots); err != nil {
		return &Divergence{i, st.spec.Name, "snapshot", "write: " + err.Error()}
	}
	m2, restored, err := bfbdd.RestoreManager(bytes.NewReader(buf.Bytes()), st.spec.Opts...)
	if err != nil {
		return &Divergence{i, st.spec.Name, "snapshot", "restore: " + err.Error()}
	}
	defer m2.Close()
	if len(restored) != len(st.slots) {
		return &Divergence{i, st.spec.Name, "snapshot",
			fmt.Sprintf("restored %d roots, want %d", len(restored), len(st.slots))}
	}
	sort.Slice(restored, func(a, b int) bool { return restored[a].ID < restored[b].ID })
	for j, rt := range restored {
		if rt.ID != uint64(j) {
			return &Divergence{i, st.spec.Name, "snapshot",
				fmt.Sprintf("root ID %d at position %d", rt.ID, j)}
		}
		want := st.sig(j)
		got := m2.Kernel().CanonicalSignature([]node.Ref{rt.B.Ref()})
		if !equalU64(got, want) {
			return &Divergence{i, st.spec.Name, "snapshot",
				fmt.Sprintf("restored slot %d structure differs", j)}
		}
	}
	roots2 := make([]bfbdd.SnapshotRoot, len(restored))
	for j, rt := range restored {
		roots2[j] = bfbdd.SnapshotRoot{ID: rt.ID, B: rt.B}
	}
	var buf2 bytes.Buffer
	if err := m2.SnapshotRoots(&buf2, roots2); err != nil {
		return &Divergence{i, st.spec.Name, "snapshot", "rewrite: " + err.Error()}
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		return &Divergence{i, st.spec.Name, "snapshot",
			fmt.Sprintf("re-snapshot not byte-identical (%d vs %d bytes)", buf.Len(), buf2.Len())}
	}
	return nil
}

// execSpill round-trips every engine through the memory tier: spill
// every level to disk, verify slot A's canonical structure is unchanged
// while the store is spilled (mmap platforms read through the mapping;
// others unspill transparently), bring everything back, verify again,
// then cross-check the slot across engines. Engines without a tier (the
// temp dir failed) pass trivially — SpillAll is an inert no-op there.
func (ex *executor) execSpill(i int, r OpRec) *Divergence {
	a := ex.slot(r.A)
	for _, st := range ex.engs {
		before := st.sig(a)
		if err := st.m.SpillAll(); err != nil {
			return &Divergence{i, st.spec.Name, "spill", "spill: " + err.Error()}
		}
		if got := st.sig(a); !equalU64(got, before) {
			return &Divergence{i, st.spec.Name, "spill",
				fmt.Sprintf("slot %d structure changed while spilled", a)}
		}
		if err := st.m.Unspill(); err != nil {
			return &Divergence{i, st.spec.Name, "spill", "unspill: " + err.Error()}
		}
		if got := st.sig(a); !equalU64(got, before) {
			return &Divergence{i, st.spec.Name, "spill",
				fmt.Sprintf("slot %d structure changed after unspill", a)}
		}
	}
	return ex.checkSlot(i, a, r.Seed)
}

// execAbort probes abort recovery: a pre-canceled context must refuse
// the build, and a build under a deliberately tiny node budget must
// either finish or abort with a typed budget error — in every case the
// manager must remain consistent and reusable, which checkSlot then
// verifies across engines.
func (ex *executor) execAbort(i int, r OpRec) *Divergence {
	a, b := ex.slot(r.A), ex.slot(r.B)
	for _, st := range ex.engs {
		k := st.m.Kernel()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := k.ApplyCtx(ctx, r.Op, st.slots[a].Ref(), st.slots[b].Ref()); err == nil {
			return &Divergence{i, st.spec.Name, "abort-cancel",
				"pre-canceled ApplyCtx returned no error"}
		}
		k.SetBudget(k.NumNodes()+4, 0)
		_, err := k.ApplyCtx(context.Background(), r.Op, st.slots[a].Ref(), st.slots[b].Ref())
		k.SetBudget(0, 0)
		var be *bfbdd.BudgetError
		if err != nil && !errors.As(err, &be) {
			return &Divergence{i, st.spec.Name, "abort-budget",
				"unexpected abort error: " + err.Error()}
		}
	}
	return ex.checkSlot(i, a, r.Seed)
}

// compileExhaustiveVars bounds exhaustive EvalBatch verification: up to
// this many variables every assignment row is checked; beyond it, 256
// seeded rows per artifact.
const compileExhaustiveVars = 10

// execCompile freezes every engine's full slot set into a compiled
// function artifact and cross-checks the frozen read path against both
// oracles: the truth table (ground truth) and the live manager (the
// write path the artifact was compiled from). Compilation renumbers
// into the canonical level-major order, so the serialized artifact must
// come out byte-identical on every engine, and the bytes must round-trip
// through the hostile-hardened loader with identical answers.
func (ex *executor) execCompile(i int, r OpRec) *Divergence {
	vars := ex.seq.Vars
	rowIdx := make([]int, 0, 1<<compileExhaustiveVars)
	if vars <= compileExhaustiveVars {
		for row := 0; row < 1<<vars; row++ {
			rowIdx = append(rowIdx, row)
		}
	} else {
		rng := rand.New(rand.NewSource(r.Seed))
		for k := 0; k < 256; k++ {
			rowIdx = append(rowIdx, rng.Intn(1<<vars))
		}
	}
	assigns := make([][]bool, len(rowIdx))
	for j, row := range rowIdx {
		assigns[j] = Assignment(vars, row)
	}
	var refBytes []byte
	for _, st := range ex.engs {
		roots := make([]bfbdd.SnapshotRoot, len(st.slots))
		for j, b := range st.slots {
			roots[j] = bfbdd.SnapshotRoot{ID: uint64(j), B: b}
		}
		fn, err := st.m.CompileRoots(roots)
		if err != nil {
			return &Divergence{i, st.spec.Name, "compile", "compile: " + err.Error()}
		}
		if d := ex.checkCompiled(i, st, fn, rowIdx, assigns, r.Seed); d != nil {
			return d
		}
		var buf bytes.Buffer
		if err := fn.Serialize(&buf); err != nil {
			return &Divergence{i, st.spec.Name, "compile", "serialize: " + err.Error()}
		}
		if refBytes == nil {
			refBytes = buf.Bytes()
			fn2, err := bfbdd.LoadCompiled(bytes.NewReader(refBytes))
			if err != nil {
				return &Divergence{i, st.spec.Name, "compile-load", err.Error()}
			}
			if d := ex.checkCompiled(i, st, fn2, rowIdx, assigns, r.Seed); d != nil {
				d.Check = "compile-load"
				return d
			}
		} else if !bytes.Equal(buf.Bytes(), refBytes) {
			return &Divergence{i, st.spec.Name, "compile-bytes",
				fmt.Sprintf("artifact differs from %s (%d vs %d bytes)",
					ex.engs[0].spec.Name, buf.Len(), len(refBytes))}
		}
	}
	return nil
}

// checkCompiled verifies one artifact against every slot's truth table
// (EvalBatch over rowIdx, SatCount) and spot-checks single-assignment
// Eval against both the truth table and the live manager.
func (ex *executor) checkCompiled(i int, st *engState, fn *bfbdd.CompiledFunc,
	rowIdx []int, assigns [][]bool, seed int64) *Divergence {
	vars := ex.seq.Vars
	for s := range st.slots {
		root, ok := fn.RootByID(uint64(s))
		if !ok {
			return &Divergence{i, st.spec.Name, "compile",
				fmt.Sprintf("artifact lost root id %d", s)}
		}
		got := fn.EvalBatch(root, assigns)
		for j, row := range rowIdx {
			if got[j] != ex.truths[s].Bit(row) {
				return &Divergence{i, st.spec.Name, "compile-evalbatch",
					fmt.Sprintf("slot %d row %d: EvalBatch=%v truth=%v", s, row, got[j], ex.truths[s].Bit(row))}
			}
		}
		rng := rand.New(rand.NewSource(seed ^ int64(s)))
		for k := 0; k < 4; k++ {
			row := rng.Intn(1 << vars)
			asn := Assignment(vars, row)
			cv := fn.Eval(root, asn)
			if cv != ex.truths[s].Bit(row) {
				return &Divergence{i, st.spec.Name, "compile-eval",
					fmt.Sprintf("slot %d row %d: Eval=%v truth=%v", s, row, cv, ex.truths[s].Bit(row))}
			}
			if lv := st.slots[s].Eval(asn); lv != cv {
				return &Divergence{i, st.spec.Name, "compile-live",
					fmt.Sprintf("slot %d row %d: compiled=%v manager=%v", s, row, cv, lv)}
			}
		}
		if got := fn.SatCount(root); got.Cmp(ex.truths[s].Count()) != 0 {
			return &Divergence{i, st.spec.Name, "compile-satcount",
				fmt.Sprintf("slot %d: SatCount=%v truth=%v", s, got, ex.truths[s].Count())}
		}
	}
	return nil
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
