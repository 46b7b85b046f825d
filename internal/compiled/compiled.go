// Package compiled freezes the subgraph reachable from chosen BDD roots
// into an immutable, position-independent Func artifact built for the
// read path: one flat, packed node array in breadth-first, level-major
// order (the paper's construction layout reused as a serving layout),
// children as forward stream indices, per-level segments. Because a Func
// is immutable after construction, any number of goroutines may evaluate
// it concurrently with no locks, no reference counting, and no
// interaction with the Manager that produced it — artifacts outlive their
// manager entirely.
//
// Artifacts serialize as BFBDFUNC streams, the ascending direction of
// the shared level-major codec (see bfbdd/internal/levelfmt for the
// layout): segments run top level first, the order evaluation walks, and
// every child reference points forwards past the end of its own segment,
// which both encodes the BDD's level discipline and guarantees
// termination of any walk over a decoded artifact, hostile or not.
package compiled

import (
	"fmt"

	"bfbdd/internal/levelfmt"
	"bfbdd/internal/node"
)

// Magic identifies a compiled-function stream.
const Magic = "BFBDFUNC"

// format is the compiled-artifact instance of the shared codec.
var format = levelfmt.Format{Magic: Magic, MaxNodes: maxNodes}

// Version is the format version this package writes.
const Version = levelfmt.Version

// HeaderSize is the byte length of the fixed header.
const HeaderSize = levelfmt.HeaderSize

// FlagDeltaRefs marks streams whose level segments delta-encode child
// references against the current node's stream index.
const FlagDeltaRefs = levelfmt.FlagDeltaRefs

// Terminal sentinels in the in-memory packed array: the codec's own
// terminals, at the top of the uint32 range so that `child >= termOne` is
// the terminal test and every real index stays below both. Packed
// children and codec numbers therefore convert by plain casts.
const (
	termZero uint32 = levelfmt.Zero
	termOne  uint32 = levelfmt.One
)

// maxNodes bounds an artifact's node count so indices never collide with
// the terminal sentinels.
const maxNodes = 1 << 31

// Typed decode errors, shared with the codec. Every Load failure wraps
// exactly one of these.
var (
	// ErrBadMagic means the stream does not start with the artifact magic.
	ErrBadMagic = levelfmt.ErrBadMagic
	// ErrVersion means the stream's version or flags are not supported.
	ErrVersion = levelfmt.ErrVersion
	// ErrChecksum means a CRC does not match.
	ErrChecksum = levelfmt.ErrChecksum
	// ErrTruncated means the stream ended before the end-of-stream marker.
	ErrTruncated = levelfmt.ErrTruncated
	// ErrCorrupt means the stream is structurally invalid.
	ErrCorrupt = levelfmt.ErrCorrupt
	// ErrTooLarge means the graph exceeds the format's limits.
	ErrTooLarge = levelfmt.ErrTooLarge
)

// wrap prefixes a codec error with the package name.
func wrap(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("compiled: %w", err)
}

// Root labels one entry point into the compiled graph. IDs are opaque to
// the format; the service layer uses them to carry its wire handle
// numbers into the artifact.
type Root struct {
	ID  uint64
	Ref node.Ref
}

// packed is one node of the flat array: the stream indices (or terminal
// sentinels) of the low and high children.
type packed struct {
	lo, hi uint32
}

// segment describes one contiguous run of nodes sharing a level.
// Segments are stored in ascending level order and their [start, end)
// ranges tile [0, len(nodes)).
type segment struct {
	level  int
	varIdx int // public variable index decided at this level
	start  uint32
	end    uint32
}

// funcRoot is one labeled root of a Func: its external ID and the stream
// index (or terminal sentinel) it points at.
type funcRoot struct {
	id   uint64
	node uint32
}
