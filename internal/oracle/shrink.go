package oracle

import (
	"fmt"
	"strings"
)

// Shrink delta-debugs a failing sequence down to a minimal one that
// still satisfies fails. It alternates three reducers to a fixpoint:
// greedy chunk removal over the op list (ddmin-style, halving chunk
// sizes), operand normalization (rewriting raw A/B/Var draws to their
// resolved values so the records read literally), and variable-count
// reduction. budget caps the number of fails evaluations, since each one
// typically re-runs every engine.
//
// Slot operands resolve modulo the live slot count, so removing ops
// never invalidates later records — it only changes which slot they pick
// up, and fails decides whether that still reproduces.
func Shrink(seq Sequence, fails func(Sequence) bool, budget int) Sequence {
	sh := &shrinker{fails: fails, budget: budget}
	if !sh.check(seq) {
		return seq // not reproducible under this predicate; don't touch it
	}
	for {
		ops, vars := len(seq.Ops), seq.Vars
		seq = sh.ddmin(seq)
		seq = sh.normalize(seq)
		seq = sh.shrinkVars(seq)
		if sh.budget <= 0 || (len(seq.Ops) == ops && seq.Vars == vars) {
			return seq
		}
	}
}

type shrinker struct {
	fails  func(Sequence) bool
	budget int
}

func (sh *shrinker) check(seq Sequence) bool {
	if sh.budget <= 0 {
		return false
	}
	sh.budget--
	return sh.fails(seq)
}

// ddmin removes chunks of operations at halving granularity, keeping any
// removal that still fails.
func (sh *shrinker) ddmin(seq Sequence) Sequence {
	for chunk := len(seq.Ops); chunk >= 1; chunk /= 2 {
		start := 0
		for start < len(seq.Ops) {
			if sh.budget <= 0 {
				return seq
			}
			end := start + chunk
			if end > len(seq.Ops) {
				end = len(seq.Ops)
			}
			cand := Sequence{Vars: seq.Vars, Ops: cutOps(seq.Ops, start, end)}
			if sh.check(cand) {
				seq = cand // same start now holds the next chunk
			} else {
				start = end
			}
		}
	}
	return seq
}

func cutOps(ops []OpRec, start, end int) []OpRec {
	out := make([]OpRec, 0, len(ops)-(end-start))
	out = append(out, ops[:start]...)
	return append(out, ops[end:]...)
}

// normalize rewrites raw operand draws to the values they resolve to at
// execution time and zeroes fields the op kind ignores, so the shrunk
// record reads literally. Resolution is semantics-preserving (the
// executor applies the same modulo), but the result is re-checked and
// dropped if the predicate disagrees.
func (sh *shrinker) normalize(seq Sequence) Sequence {
	out := Sequence{Vars: seq.Vars, Ops: append([]OpRec(nil), seq.Ops...)}
	slots := baseSlots(seq.Vars)
	for i := range out.Ops {
		r := &out.Ops[i]
		switch r.Kind {
		case KApply, KAbort:
			r.A, r.B = r.A%slots, r.B%slots
			r.Var, r.Val, r.VarsMask = 0, false, 0
		case KNot, KEval, KAnySat, KSatCount, KGC, KReorder, KSpill:
			r.A %= slots
			r.Op, r.B, r.Var, r.Val, r.VarsMask = 0, 0, 0, false, 0
		case KRestrict:
			r.A, r.Var = r.A%slots, r.Var%seq.Vars
			r.Op, r.B, r.VarsMask = 0, 0, 0
		case KExists, KForall:
			r.A, r.VarsMask = r.A%slots, r.VarsMask&(1<<seq.Vars-1)
			r.Op, r.B, r.Var, r.Val = 0, 0, 0, false
		case KMeta:
			r.A, r.B, r.Var = r.A%slots, r.B%slots, r.Var%seq.Vars
			r.Op, r.Val, r.VarsMask = 0, false, 0
		case KCircuit:
			r.A = (r.A-1)%seq.Vars + 1
			r.Op, r.Var, r.Val, r.VarsMask = 0, 0, false, 0
		case KSnapshot, KCompile:
			r.Op, r.A, r.B, r.Var, r.Val, r.VarsMask = 0, 0, 0, 0, false, 0
		case KBatch:
			r.A %= 15
			r.Op, r.B, r.Var, r.Val, r.VarsMask = 0, 0, 0, false, 0
		}
		slots += r.produced()
	}
	if sh.check(out) {
		return out
	}
	return seq
}

// shrinkVars lowers the variable count while the failure persists. Var
// and mask fields resolve modulo the variable count, so the ops stay
// executable at any width.
func (sh *shrinker) shrinkVars(seq Sequence) Sequence {
	for seq.Vars > 1 {
		cand := Sequence{Vars: seq.Vars - 1, Ops: seq.Ops}
		if !sh.check(cand) {
			return seq
		}
		seq = cand
	}
	return seq
}

// Go identifier tables for RegressionTest output.
var kindIdents = [numKinds]string{
	"KApply", "KNot", "KRestrict", "KExists", "KForall", "KCircuit",
	"KMeta", "KEval", "KAnySat", "KSatCount", "KGC", "KReorder", "KSnapshot", "KAbort",
	"KCompile", "KSpill", "KBatch",
}

var opIdents = [numBinOps]string{
	"OpAnd", "OpOr", "OpXor", "OpNand", "OpNor", "OpXnor", "OpDiff", "OpImp",
}

// RegressionTest renders a shrunk sequence as a ready-to-paste Go test
// against the oracle package.
func RegressionTest(seq Sequence) string {
	var b strings.Builder
	b.WriteString("func TestOracleRegression(t *testing.T) {\n")
	b.WriteString("\tseq := oracle.Sequence{\n")
	fmt.Fprintf(&b, "\t\tVars: %d,\n", seq.Vars)
	b.WriteString("\t\tOps: []oracle.OpRec{\n")
	for _, r := range seq.Ops {
		b.WriteString("\t\t\t" + recLiteral(r) + ",\n")
	}
	b.WriteString("\t\t},\n\t}\n")
	b.WriteString("\tif rep := oracle.Run(seq, oracle.DefaultEngines()); rep.Div != nil {\n")
	b.WriteString("\t\tt.Fatalf(\"divergence: %s\", rep.Div)\n\t}\n}\n")
	return b.String()
}

// recLiteral renders one record as a Go composite literal, omitting
// zero-valued fields.
func recLiteral(r OpRec) string {
	parts := []string{"Kind: oracle." + kindIdents[r.Kind]}
	if r.Op != 0 || r.Kind == KApply || r.Kind == KAbort {
		parts = append(parts, "Op: oracle."+opIdents[int(r.Op)%numBinOps])
	}
	if r.A != 0 {
		parts = append(parts, fmt.Sprintf("A: %d", r.A))
	}
	if r.B != 0 {
		parts = append(parts, fmt.Sprintf("B: %d", r.B))
	}
	if r.Var != 0 {
		parts = append(parts, fmt.Sprintf("Var: %d", r.Var))
	}
	if r.Val {
		parts = append(parts, "Val: true")
	}
	if r.VarsMask != 0 {
		parts = append(parts, fmt.Sprintf("VarsMask: %#x", r.VarsMask))
	}
	if r.Seed != 0 {
		parts = append(parts, fmt.Sprintf("Seed: %d", r.Seed))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
