// Package levelfmt is the level-major graph codec behind bfbdd's two
// on-disk formats, snapshots (BFBDSNAP) and compiled artifacts
// (BFBDFUNC). Both serialize a BDD the way the breadth-first engine lays
// it out: one contiguous segment of nodes per variable level. Nodes are
// numbered 0, 1, 2, … in stream order across all segments, and children
// and roots refer to those numbers, so a stream is position independent.
// The two formats differ only in their magic and their direction:
//
//   - Descending (snapshot): segments in strictly decreasing level order,
//     deepest first. Every child lives at a deeper level, so it points
//     strictly backwards in the stream and a reader can materialize nodes
//     in one pass.
//   - Ascending (compiled): segments in strictly increasing level order,
//     top first, the order evaluation walks. Every child points strictly
//     forwards, past the end of its own segment, which also guarantees
//     that any walk over a decoded stream terminates.
//
// Layout:
//
//	header (32 bytes, fixed):
//	  magic      [8]byte  (Format.Magic)
//	  version    uint16
//	  flags      uint16   (bit 0: delta-encoded child refs)
//	  numVars    uint32
//	  numRoots   uint32
//	  totalNodes uint64
//	  headerCRC  uint32   (IEEE CRC-32 of the 28 preceding bytes)
//
//	then a series of sections, each:
//	  kind    uint8   (1 varorder, 2 level segment, 3 roots, 4 end)
//	  length  uint32  (payload bytes, little endian)
//	  payload [length]byte
//	  crc     uint32  (IEEE CRC-32 of payload)
//
//	varorder payload: numVars × uvarint(level of variable v) — a
//	  permutation of [0, numVars).
//	level-segment payload: uvarint(level), uvarint(count), then count ×
//	  (uvarint low, uvarint high), levels ordered by the direction.
//	roots payload: numRoots × (uvarint id, uvarint node), node raw-encoded.
//	end payload: empty; marks a complete stream.
//
// Child/root encoding: 0 is the Zero terminal, 1 is the One terminal.
// With delta refs (flag bit 0), a child of node cur encodes as
// 1 + |cur - child|: the distance is at least 1 in either direction, so
// the code never collides with the terminals, and level-local references
// stay small varints (cf. Hansen et al., "Compressing Binary Decision
// Diagrams"). Without delta refs, and always in the roots section, node
// n encodes as 2 + n.
//
// Every malformed input is reported as one of six typed errors and the
// decoder never panics on untrusted bytes. No allocation is proportional
// to a length claim beyond the bytes actually present: sections are read
// in 64 KiB chunks, a segment's node count and the header's root count
// are checked against the payload bytes, and the node total against the
// header. Formats prefix the errors with their own package name.
package levelfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"bfbdd/internal/node"
)

// Version is the format version this package writes.
const Version = 1

// HeaderSize is the byte length of the fixed header.
const HeaderSize = 32

// FlagDeltaRefs marks streams whose level segments delta-encode child
// references against the current node's number.
const FlagDeltaRefs = 1 << 0

// Section kinds.
const (
	secVarOrder = 1
	secLevel    = 2
	secRoots    = 3
	secEnd      = 4
)

// maxSectionLen bounds a single section payload; longer claims are
// rejected as corrupt before any allocation of that size is attempted.
const maxSectionLen = 1 << 30

// Terminal values of decoded and encoded children and roots. They sit
// above every node number (Format.MaxNodes must not exceed One) and fit
// 32 bits, so a format with uint32 node indices stores them as they are.
const (
	Zero = math.MaxUint32
	One  = math.MaxUint32 - 1
)

// Typed decode errors. Every decoder failure wraps exactly one of these.
var (
	// ErrBadMagic means the stream does not start with the format's magic.
	ErrBadMagic = errors.New("bad magic")
	// ErrVersion means the stream's version or flags are not supported.
	ErrVersion = errors.New("unsupported version")
	// ErrChecksum means the header's or a section's CRC does not match.
	ErrChecksum = errors.New("checksum mismatch")
	// ErrTruncated means the stream ended before the end-of-stream marker.
	ErrTruncated = errors.New("truncated stream")
	// ErrCorrupt means the stream is structurally invalid (bad varint,
	// out-of-order segment, dangling reference, count mismatch, …).
	ErrCorrupt = errors.New("corrupt stream")
	// ErrTooLarge means the graph exceeds the format's limits.
	ErrTooLarge = errors.New("graph too large for format")
)

// corrupt wraps ErrCorrupt with detail.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// eofErr converts io EOF errors into ErrTruncated, passing others through.
func eofErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return err
}

// Format is one on-disk format built on the codec.
type Format struct {
	// Magic is the 8-byte stream identifier.
	Magic string
	// Descending selects the snapshot direction; otherwise segments
	// ascend (compiled).
	Descending bool
	// MaxNodes bounds the node total the format writes and accepts; at
	// most One.
	MaxNodes uint64
}

// Header is the decoded fixed header of a stream.
type Header struct {
	Version    uint16
	Flags      uint16
	NumVars    int
	NumRoots   int
	TotalNodes uint64
}

// encodeHeader renders h, including its trailing CRC.
func (f Format) encodeHeader(h Header) []byte {
	b := make([]byte, HeaderSize)
	copy(b, f.Magic)
	binary.LittleEndian.PutUint16(b[8:], h.Version)
	binary.LittleEndian.PutUint16(b[10:], h.Flags)
	binary.LittleEndian.PutUint32(b[12:], uint32(h.NumVars))
	binary.LittleEndian.PutUint32(b[16:], uint32(h.NumRoots))
	binary.LittleEndian.PutUint64(b[20:], h.TotalNodes)
	binary.LittleEndian.PutUint32(b[28:], crc32.ChecksumIEEE(b[:28]))
	return b
}

// ParseHeader decodes and validates a fixed header from b, which must
// hold at least HeaderSize bytes. It lets a caller vet a stream's
// dimensions against resource limits before committing to a full decode.
func (f Format) ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(b))
	}
	if string(b[:8]) != f.Magic {
		return Header{}, ErrBadMagic
	}
	if got, want := binary.LittleEndian.Uint32(b[28:32]), crc32.ChecksumIEEE(b[:28]); got != want {
		return Header{}, fmt.Errorf("%w: header", ErrChecksum)
	}
	h := Header{
		Version:    binary.LittleEndian.Uint16(b[8:]),
		Flags:      binary.LittleEndian.Uint16(b[10:]),
		NumVars:    int(binary.LittleEndian.Uint32(b[12:])),
		NumRoots:   int(binary.LittleEndian.Uint32(b[16:])),
		TotalNodes: binary.LittleEndian.Uint64(b[20:]),
	}
	if h.Version != Version {
		return Header{}, fmt.Errorf("%w: version %d", ErrVersion, h.Version)
	}
	if h.Flags&^FlagDeltaRefs != 0 {
		return Header{}, fmt.Errorf("%w: unknown flags %#x", ErrVersion, h.Flags)
	}
	if h.NumVars >= node.MaxLevels {
		return Header{}, corrupt("variable count %d out of range", h.NumVars)
	}
	if h.TotalNodes > f.MaxNodes {
		return Header{}, fmt.Errorf("%w: %d nodes", ErrTooLarge, h.TotalNodes)
	}
	return h, nil
}

// Root labels one entry point into the stream: an opaque ID and a node
// number, or Zero or One.
type Root struct {
	ID   uint64
	Node uint64
}

// LevelInfo summarizes one level segment of a stream.
type LevelInfo struct {
	// Level is the variable level the segment's nodes live at.
	Level int
	// Count is the number of nodes in the segment.
	Count uint64
	// Bytes is the segment's on-disk size including framing.
	Bytes int
}

// InvertOrder returns the level-to-variable table of var2level (entry v
// is the level of variable v), and false if var2level is not a
// permutation of [0, len(var2level)).
func InvertOrder(var2level []int) ([]int, bool) {
	level2var := make([]int, len(var2level))
	seen := make([]bool, len(var2level))
	for v, l := range var2level {
		if l < 0 || l >= len(var2level) || seen[l] {
			return nil, false
		}
		level2var[l] = v
		seen[l] = true
	}
	return level2var, true
}
