// Package snapshot implements the BFBDSNAP format, which serializes the
// BDD node graph reachable from chosen roots for checkpoints and restore.
// It is the descending direction of the shared level-major codec (see
// bfbdd/internal/levelfmt for the layout): segments run deepest level
// first and every child reference points backwards, so a reader
// materializes nodes in one pass straight into fresh unique tables.
//
// The writer exploits the engine's per-(worker, variable) arena layout:
// one level's segment is a sequential scan of that level's arenas, with
// child references re-packed as dense stream numbers instead of (level,
// worker, index) triples.
package snapshot

import (
	"fmt"
	"math"

	"bfbdd/internal/levelfmt"
	"bfbdd/internal/node"
)

// Magic identifies a snapshot stream.
const Magic = "BFBDSNAP"

// format is the snapshot instance of the shared codec. Stream numbers
// are packed as uint32 by the writer, and the top two codes belong to
// the terminals.
var format = levelfmt.Format{Magic: Magic, Descending: true, MaxNodes: math.MaxUint32 - 2}

// Version is the format version this package writes.
const Version = levelfmt.Version

// HeaderSize is the byte length of the fixed header.
const HeaderSize = levelfmt.HeaderSize

// FlagDeltaRefs marks streams whose level segments delta-encode child
// references against the current node's sequence number.
const FlagDeltaRefs = levelfmt.FlagDeltaRefs

// Typed decode errors, shared with the codec. Every reader failure wraps
// exactly one of these.
var (
	// ErrBadMagic means the stream does not start with the snapshot magic.
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
	return fmt.Errorf("snapshot: %w", err)
}

// Header is the decoded fixed header of a snapshot stream.
type Header = levelfmt.Header

// ParseHeader decodes and validates a fixed header from b, which must
// hold at least HeaderSize bytes. It lets a caller vet a stream's
// dimensions (variable count, node count) against resource limits before
// committing to a full restore.
func ParseHeader(b []byte) (Header, error) {
	h, err := format.ParseHeader(b)
	return h, wrap(err)
}

// Root labels one externally meaningful entry point into the node graph.
// IDs are opaque to the format; the service layer uses them to carry its
// wire handle numbers across a save/restore cycle.
type Root struct {
	ID  uint64
	Ref node.Ref
}
