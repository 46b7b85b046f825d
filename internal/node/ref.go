// Package node provides the packed BDD node references and the
// per-(worker, variable) block arenas that implement the paper's
// specialized BDD-node managers.
//
// A Ref identifies a BDD node without using a Go pointer, which is what
// allows the garbage collector in internal/core to compact arenas and
// rehash unique tables exactly as the paper describes: nodes of the same
// variable are clustered in blocks, and a node's identity is
// (level, worker, index) rather than a machine address.
package node

import "fmt"

// Ref is a packed reference to a BDD node or terminal.
//
// Layout (most significant bit first):
//
//	bit 63      : always 0 for a Ref (bit 63 set marks an operator-node
//	              handle in the tagged branch words used by internal/core)
//	bits 48..62 : level (15 bits); level 0 is the top variable, i.e. the
//	              variable with the highest precedence in the ordering
//	bits 40..47 : worker that owns the node's arena (8 bits)
//	bits  0..39 : index within that worker's arena for the level (40 bits)
//
// The two terminal nodes use the reserved level TermLevel so that the
// Shannon "top variable" of two refs is simply the minimum of their levels.
type Ref uint64

const (
	levelShift  = 48
	workerShift = 40
	indexBits   = 40
	indexMask   = (1 << indexBits) - 1
	workerMask  = 0xFF
	levelMask   = 0x7FFF

	// TermLevel is the pseudo-level of the constant nodes 0 and 1. It is
	// strictly greater than every real variable level, so min-of-levels
	// picks the correct top variable during Shannon expansion.
	TermLevel = 0x7FFF

	// MaxLevels is the maximum number of distinct variable levels.
	MaxLevels = TermLevel

	// MaxWorkers is the maximum number of per-worker arena sets.
	MaxWorkers = 256
)

// Zero and One are the two terminal (constant) BDDs.
const (
	Zero Ref = Ref(TermLevel) << levelShift
	One  Ref = Ref(TermLevel)<<levelShift | 1
)

// Nil is an invalid sentinel Ref: "no node", for results not yet known
// and for the High field of a freed arena slot. Its bit 63 is set, so it
// can never collide with a valid Ref.
const Nil Ref = ^Ref(0)

// MakeRef packs (level, worker, index) into a Ref.
func MakeRef(level, worker int, index uint64) Ref {
	return Ref(level)<<levelShift | Ref(worker)<<workerShift | Ref(index)
}

// Level returns the variable level of r (TermLevel for terminals).
func (r Ref) Level() int { return int(r>>levelShift) & levelMask }

// Worker returns the worker whose arena holds r.
func (r Ref) Worker() int { return int(r>>workerShift) & workerMask }

// Index returns r's index within its (worker, level) arena.
func (r Ref) Index() uint64 { return uint64(r) & indexMask }

// IsTerminal reports whether r is one of the constants Zero or One.
func (r Ref) IsTerminal() bool { return r.Level() == TermLevel }

// IsZero reports whether r is the constant-false terminal.
func (r Ref) IsZero() bool { return r == Zero }

// IsOne reports whether r is the constant-true terminal.
func (r Ref) IsOne() bool { return r == One }

// Valid reports whether r is a structurally valid reference (terminal or
// in-range node reference). It does not check that the node exists.
func (r Ref) Valid() bool { return r>>63 == 0 }

// String renders r for debugging.
func (r Ref) String() string {
	switch {
	case r == Zero:
		return "0"
	case r == One:
		return "1"
	case r == Nil:
		return "nil"
	default:
		return fmt.Sprintf("v%d/w%d/%d", r.Level(), r.Worker(), r.Index())
	}
}

// TopLevel returns the smaller (higher-precedence) of the two refs'
// levels: the variable on which Shannon expansion of a binary operation
// over f and g splits.
func TopLevel(f, g Ref) int {
	lf, lg := f.Level(), g.Level()
	if lf < lg {
		return lf
	}
	return lg
}
