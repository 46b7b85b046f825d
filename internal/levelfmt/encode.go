package levelfmt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Encoder writes one stream: NewEncoder emits the header and variable
// order, Node streams the nodes in the format's direction, and Finish
// writes the roots and the end marker.
type Encoder struct {
	f     Format
	w     *bufio.Writer
	delta bool
	level int          // level of the open segment
	count uint64       // nodes in the open segment
	seg   bytes.Buffer // encoded nodes of the open segment
	next  uint64       // number of the next node
	err   error        // ErrTooLarge once a section overflows
}

// NewEncoder starts a stream of totalNodes nodes over the variable order
// var2level (entry v is the level of variable v), with numRoots roots.
// raw disables delta-encoded child references. Write errors surface in
// Finish.
func (f Format) NewEncoder(w io.Writer, var2level []int, numRoots int, totalNodes uint64, raw bool) (*Encoder, error) {
	if totalNodes > f.MaxNodes {
		return nil, fmt.Errorf("%w: %d nodes", ErrTooLarge, totalNodes)
	}
	flags := uint16(FlagDeltaRefs)
	if raw {
		flags = 0
	}
	e := &Encoder{f: f, w: bufio.NewWriter(w), delta: !raw}
	e.w.Write(f.encodeHeader(Header{Version: Version, Flags: flags, NumVars: len(var2level), NumRoots: numRoots, TotalNodes: totalNodes}))
	var order []byte
	for _, l := range var2level {
		order = binary.AppendUvarint(order, uint64(l))
	}
	e.section(secVarOrder, order)
	return e, nil
}

// Node appends the next node in stream order: it sits at level lvl (a
// change of level ends the segment) and its children are node numbers in
// the direction's range, or Zero or One.
func (e *Encoder) Node(lvl int, lo, hi uint64) {
	if lvl != e.level {
		e.endLevel()
		e.level = lvl
	}
	var b [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], e.child(lo))
	n += binary.PutUvarint(b[n:], e.child(hi))
	e.seg.Write(b[:n])
	e.count++
	e.next++
}

// Finish ends the last segment, writes the roots and end sections, and
// flushes the stream, reporting the first error of the whole stream.
func (e *Encoder) Finish(roots []Root) error {
	e.endLevel()
	var b []byte
	for _, rt := range roots {
		b = binary.AppendUvarint(b, rt.ID)
		b = binary.AppendUvarint(b, rawCode(rt.Node))
	}
	e.section(secRoots, b)
	e.section(secEnd, nil)
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// endLevel writes the open segment, if it holds any node.
func (e *Encoder) endLevel() {
	if e.count > 0 {
		prefix := binary.AppendUvarint(nil, uint64(e.level))
		prefix = binary.AppendUvarint(prefix, e.count)
		e.section(secLevel, prefix, e.seg.Bytes())
	}
	e.count = 0
	e.seg.Reset()
}

// child encodes one child of the node numbered e.next.
func (e *Encoder) child(c uint64) uint64 {
	switch {
	case c == Zero || c == One || !e.delta:
		return rawCode(c)
	case e.f.Descending:
		return 1 + e.next - c
	default:
		return 1 + c - e.next
	}
}

// rawCode encodes a node number or terminal without delta.
func rawCode(c uint64) uint64 {
	switch c {
	case Zero:
		return 0
	case One:
		return 1
	}
	return 2 + c
}

// section emits one kind/length/payload/crc section whose payload is the
// concatenation of parts; after an oversized one it writes nothing more.
// Write errors are left to the bufio.Writer, whose error is sticky and
// reported by Flush.
func (e *Encoder) section(kind byte, parts ...[]byte) {
	if e.err != nil {
		return
	}
	n := 0
	var crc uint32
	for _, p := range parts {
		n += len(p)
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	if n > maxSectionLen {
		e.err = ErrTooLarge
		return
	}
	var hdr [5]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(n))
	e.w.Write(hdr[:])
	for _, p := range parts {
		e.w.Write(p)
	}
	e.w.Write(binary.LittleEndian.AppendUint32(nil, crc))
}
