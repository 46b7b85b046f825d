package oracle

import (
	"fmt"
	"math/rand"
	"strings"

	"bfbdd/internal/core"
)

// Re-exported operation codes so shrunk regression tests read naturally
// without importing internal/core.
const (
	OpAnd  = core.OpAnd
	OpOr   = core.OpOr
	OpXor  = core.OpXor
	OpNand = core.OpNand
	OpNor  = core.OpNor
	OpXnor = core.OpXnor
	OpDiff = core.OpDiff
	OpImp  = core.OpImp
)

// numBinOps is the binary operation alphabet size (OpAnd..OpImp).
const numBinOps = 8

// OpKind enumerates the operation-sequence grammar. Producing kinds
// append one or more function slots; checking kinds verify properties of
// existing slots without growing the sequence's state.
type OpKind int

// The grammar. Kinds are part of the replay-file format — append only.
const (
	// KApply: slots += Apply(Op, slot A, slot B). Producing.
	KApply OpKind = iota
	// KNot: slots += ¬(slot A). Producing.
	KNot
	// KRestrict: slots += (slot A)|_{Var=Val}. Producing.
	KRestrict
	// KExists: slots += ∃(VarsMask)(slot A). Producing.
	KExists
	// KForall: slots += ∀(VarsMask)(slot A). Producing.
	KForall
	// KCircuit: build a pseudo-random netlist DAG (netlist.Random with
	// Seed) gate by gate through the engine's Apply path and append its
	// output functions. A resolves the input count, B the gate count.
	// Producing (several slots).
	KCircuit
	// KMeta: check metamorphic Boolean identities (De Morgan, absorption,
	// f⊕f=0, implication expansion, quantifier duality over Var) on
	// slots A and B. Checking.
	KMeta
	// KEval: evaluate slot A on random assignment rows (from Seed)
	// against the truth table, on every engine. Checking.
	KEval
	// KAnySat: AnySat(slot A) must produce a satisfying partial
	// assignment exactly when the truth table is satisfiable. Checking.
	KAnySat
	// KSatCount: SatCount(slot A) must equal the truth-table model
	// count. Checking.
	KSatCount
	// KGC: force a collection on every engine, then re-verify slot A.
	// Checking.
	KGC
	// KReorder: install a random variable order (permutation from Seed)
	// on every engine, then re-verify slot A. Checking.
	KReorder
	// KSnapshot: snapshot every slot, restore into a fresh manager,
	// compare restored structure against the original, and require the
	// re-snapshot to be byte-identical. Checking.
	KSnapshot
	// KAbort: probe abort recovery on every engine — a pre-canceled
	// ApplyCtx and a build under a deliberately tiny node budget — then
	// re-verify slot A to prove the manager stayed usable. Checking.
	KAbort
	// KCompile: freeze every slot into a compiled function artifact on
	// every engine, then cross-check the read path — Eval, EvalBatch,
	// SatCount — against the truth table and the live manager, require
	// the serialized artifact to be byte-identical across engines, and
	// round-trip it through the hostile-hardened loader. Checking.
	KCompile
	// KSpill: tier every level down to the spill store on every engine,
	// verify slot A's canonical structure is unchanged while spilled,
	// unspill, and re-verify — the memory tier must be invisible to the
	// function semantics. Checking.
	KSpill
	// KBatch: slots += one Manager.ApplyBatch of 2+A%15 binary ops whose
	// op codes and raw operand draws come from Seed; operands resolve
	// modulo the live slot count before the batch. Producing (several
	// slots).
	KBatch
	numKinds
)

var kindNames = [numKinds]string{
	"apply", "not", "restrict", "exists", "forall", "circuit",
	"meta", "eval", "anysat", "satcount", "gc", "reorder", "snapshot", "abort",
	"compile", "spill", "batch",
}

// String returns the kind mnemonic.
func (k OpKind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// OpRec is one operation of a sequence. Slot operands A and B are raw
// draws resolved modulo the live slot count at execution time, and Var
// is resolved modulo the variable count — so removing earlier operations
// or shrinking the variable count keeps every record executable, which
// is what makes delta-debugging possible.
type OpRec struct {
	Kind     OpKind  `json:"kind"`
	Op       core.Op `json:"op,omitempty"`
	A        int     `json:"a,omitempty"`
	B        int     `json:"b,omitempty"`
	Var      int     `json:"var,omitempty"`
	Val      bool    `json:"val,omitempty"`
	VarsMask uint32  `json:"mask,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

// String renders the record for the replay trace. The rendering is a
// pure function of the record, so traces regenerate byte-identically
// from the sequence seed.
func (r OpRec) String() string {
	switch r.Kind {
	case KApply:
		return fmt.Sprintf("apply %s s%d s%d", r.Op, r.A, r.B)
	case KNot:
		return fmt.Sprintf("not s%d", r.A)
	case KRestrict:
		return fmt.Sprintf("restrict s%d v%d=%v", r.A, r.Var, r.Val)
	case KExists:
		return fmt.Sprintf("exists s%d m%#x", r.A, r.VarsMask)
	case KForall:
		return fmt.Sprintf("forall s%d m%#x", r.A, r.VarsMask)
	case KCircuit:
		return fmt.Sprintf("circuit in%d g%d seed%d", r.A, r.B, r.Seed)
	case KMeta:
		return fmt.Sprintf("meta s%d s%d v%d", r.A, r.B, r.Var)
	case KEval:
		return fmt.Sprintf("eval s%d seed%d", r.A, r.Seed)
	case KAnySat:
		return fmt.Sprintf("anysat s%d", r.A)
	case KSatCount:
		return fmt.Sprintf("satcount s%d", r.A)
	case KGC:
		return fmt.Sprintf("gc s%d", r.A)
	case KReorder:
		return fmt.Sprintf("reorder s%d seed%d", r.A, r.Seed)
	case KSnapshot:
		return "snapshot"
	case KAbort:
		return fmt.Sprintf("abort %s s%d s%d", r.Op, r.A, r.B)
	case KCompile:
		return fmt.Sprintf("compile seed%d", r.Seed)
	case KSpill:
		return fmt.Sprintf("spill s%d", r.A)
	case KBatch:
		return fmt.Sprintf("batch n%d seed%d", batchSize(r), r.Seed)
	}
	return r.Kind.String()
}

// produced is the number of function slots the record appends: one for
// the single-result kinds, several for circuits and batches, none for
// the checking kinds.
func (r OpRec) produced() int {
	switch r.Kind {
	case KApply, KNot, KRestrict, KExists, KForall:
		return 1
	case KCircuit:
		return circuitOutputs(r)
	case KBatch:
		return batchSize(r)
	}
	return 0
}

// Sequence is a deterministic operation program over Vars variables.
type Sequence struct {
	Vars int     `json:"vars"`
	Ops  []OpRec `json:"ops"`
}

// Trace renders one line per operation, prefixed with its index.
func (s Sequence) Trace() []string {
	out := make([]string, len(s.Ops))
	for i, r := range s.Ops {
		out[i] = fmt.Sprintf("%d: %s", i, r)
	}
	return out
}

// String joins the trace for error messages.
func (s Sequence) String() string {
	return fmt.Sprintf("vars=%d\n%s", s.Vars, strings.Join(s.Trace(), "\n"))
}

// Config parameterizes sequence generation.
type Config struct {
	Seed int64
	Vars int // 1..MaxVars
	Ops  int
}

// circuit op bounds: inputs resolve into [1, vars], gates into
// [4, 4+circuitMaxGates), outputs capped by netlist.Random at 8.
const circuitMaxGates = 12

// Generate expands a seed into an explicit operation sequence. The same
// Config always yields the same Sequence; all execution-time randomness
// (evaluation rows, permutations, circuit shapes) is carried in per-op
// Seed fields, so any subsequence executes deterministically too.
func Generate(cfg Config) Sequence {
	if cfg.Vars < 1 || cfg.Vars > MaxVars {
		panic(fmt.Sprintf("oracle: Generate with %d vars (want 1..%d)", cfg.Vars, MaxVars))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	seq := Sequence{Vars: cfg.Vars}
	slots := baseSlots(cfg.Vars)
	for len(seq.Ops) < cfg.Ops {
		r := OpRec{Seed: rng.Int63()}
		switch p := rng.Intn(100); {
		case p < 46:
			r.Kind = KApply
			r.Op = core.Op(rng.Intn(numBinOps))
			r.A, r.B = rng.Intn(slots), rng.Intn(slots)
			if rng.Intn(8) == 0 {
				r.B = r.A // same-operand applies hit the f==g terminal rules
			}
		case p < 50:
			r.Kind = KBatch
			r.A = rng.Intn(15) // 2..16 ops
		case p < 57:
			r.Kind = KNot
			r.A = rng.Intn(slots)
		case p < 63:
			r.Kind = KRestrict
			r.A, r.Var, r.Val = rng.Intn(slots), rng.Intn(cfg.Vars), rng.Intn(2) == 1
		case p < 67:
			r.Kind = KExists
			r.A, r.VarsMask = rng.Intn(slots), quantMask(rng, cfg.Vars)
		case p < 71:
			r.Kind = KForall
			r.A, r.VarsMask = rng.Intn(slots), quantMask(rng, cfg.Vars)
		case p < 74:
			r.Kind = KCircuit
			r.A = 1 + rng.Intn(cfg.Vars)        // input count
			r.B = 4 + rng.Intn(circuitMaxGates) // gate count
		case p < 80:
			r.Kind = KMeta
			r.A, r.B, r.Var = rng.Intn(slots), rng.Intn(slots), rng.Intn(cfg.Vars)
		case p < 86:
			r.Kind = KEval
			r.A = rng.Intn(slots)
		case p < 88:
			r.Kind = KAnySat
			r.A = rng.Intn(slots)
		case p < 90:
			r.Kind = KSatCount
			r.A = rng.Intn(slots)
		case p < 93:
			r.Kind = KGC
			r.A = rng.Intn(slots)
		case p < 95:
			r.Kind = KReorder
			r.A = rng.Intn(slots)
		case p < 97:
			r.Kind = KSnapshot
		case p < 98:
			r.Kind = KCompile
		case p < 99:
			r.Kind = KSpill
			r.A = rng.Intn(slots)
		default:
			r.Kind = KAbort
			r.Op = core.Op(rng.Intn(numBinOps))
			r.A, r.B = rng.Intn(slots), rng.Intn(slots)
		}
		seq.Ops = append(seq.Ops, r)
		slots += r.produced()
	}
	return seq
}

// baseSlots is the fixed slot prefix: Zero, One, then one slot per
// variable. It never shrinks, so operand draws below it stay stable
// under delta-debugging.
func baseSlots(vars int) int { return 2 + vars }

// circuitOutputs is how many slots a KCircuit record appends:
// netlist.Random marks its last min(8, gates) gates as outputs.
func circuitOutputs(r OpRec) int {
	if r.B < 8 {
		return r.B
	}
	return 8
}

// batchSize is how many operations a KBatch record issues.
func batchSize(r OpRec) int { return 2 + r.A%15 }

// quantMask draws a non-empty subset of up to three variables.
func quantMask(rng *rand.Rand, vars int) uint32 {
	var m uint32
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		m |= 1 << rng.Intn(vars)
	}
	return m
}
