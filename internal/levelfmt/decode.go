package levelfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Decoder reads one stream in two phases: NewDecoder consumes and
// validates the header and the variable order (so a caller can size its
// node store), then Decode streams the level segments and returns the
// roots.
type Decoder struct {
	Header Header
	// Var2Level is the stream's variable order: entry v is the level of
	// variable v. Level2Var is its inverse.
	Var2Level, Level2Var []int
	// Levels holds per-segment statistics in stream order, filled by
	// Decode.
	Levels []LevelInfo

	f Format
	r io.Reader
}

// NewDecoder consumes the fixed header and the variable-order section.
func (f Format) NewDecoder(r io.Reader) (*Decoder, error) {
	var hb [HeaderSize]byte
	if _, err := io.ReadFull(r, hb[:]); err != nil {
		return nil, eofErr(err)
	}
	hdr, err := f.ParseHeader(hb[:])
	if err != nil {
		return nil, err
	}
	d := &Decoder{Header: hdr, f: f, r: r}
	kind, payload, err := d.readSection()
	if err != nil {
		return nil, err
	}
	if kind != secVarOrder {
		return nil, corrupt("expected variable-order section, got kind %d", kind)
	}
	p := cursor{b: payload}
	d.Var2Level = make([]int, hdr.NumVars)
	for v := range d.Var2Level {
		// An out-of-range level clamps to NumVars, which InvertOrder rejects.
		d.Var2Level[v] = int(min(p.uvarint(), uint64(hdr.NumVars)))
	}
	if err := p.done("variable-order section"); err != nil {
		return nil, err
	}
	var ok bool
	if d.Level2Var, ok = InvertOrder(d.Var2Level); !ok {
		return nil, corrupt("variable order is not a permutation of [0,%d)", hdr.NumVars)
	}
	return d, nil
}

// Decode reads the level segments, calling node once per node in stream
// order with its level and its children: node numbers or Zero or One.
// Every child has been checked against the direction before node sees
// it — in a descending stream it is a node already passed to node; in an
// ascending one it lies past the current segment and below the header's
// total. Decode then reads the roots, whose node numbers are all below
// the total, and the end marker.
func (d *Decoder) Decode(node func(level int, lo, hi uint64)) ([]Root, error) {
	delta := d.Header.Flags&FlagDeltaRefs != 0
	total := d.Header.TotalNodes
	var n uint64 // nodes decoded so far
	prev := -1   // level of the previous segment
	for {
		kind, payload, err := d.readSection()
		if err != nil {
			return nil, err
		}
		if kind == secRoots {
			if n != total {
				return nil, corrupt("stream has %d nodes, header promised %d", n, total)
			}
			return d.roots(payload)
		}
		if kind != secLevel {
			return nil, corrupt("unexpected section kind %d", kind)
		}
		p := cursor{b: payload}
		lvl, count := p.uvarint(), p.uvarint()
		if p.err != nil {
			return nil, p.err
		}
		if !d.inOrder(lvl, prev) {
			return nil, corrupt("level segment %d out of order after %d (%d levels)", lvl, prev, d.Header.NumVars)
		}
		// Each node costs at least two payload bytes; this bound stops
		// hostile counts before any proportional allocation.
		if count == 0 || count > uint64(len(payload))/2 {
			return nil, corrupt("level %d claims %d nodes in %d payload bytes", lvl, count, len(payload))
		}
		if n+count > total {
			return nil, corrupt("more nodes than the header's total %d", total)
		}
		// Valid children lie in [lo, hi): the deeper levels already
		// decoded, or those still to come.
		lo, hi := n+count, total
		if d.f.Descending {
			lo, hi = 0, n
		}
		for end := n + count; n < end; n++ {
			c0, c1 := p.child(n, lo, hi, delta, d.f.Descending), p.child(n, lo, hi, delta, d.f.Descending)
			if p.err != nil {
				return nil, fmt.Errorf("node %d: %w", n, p.err)
			}
			node(int(lvl), c0, c1)
		}
		if p.off != len(payload) {
			return nil, corrupt("trailing bytes in level %d segment", lvl)
		}
		d.Levels = append(d.Levels, LevelInfo{Level: int(lvl), Count: count, Bytes: len(payload) + 9})
		prev = int(lvl)
	}
}

// inOrder reports whether a segment at level lvl may follow one at prev
// (-1 for the first segment).
func (d *Decoder) inOrder(lvl uint64, prev int) bool {
	switch {
	case lvl >= uint64(d.Header.NumVars):
		return false
	case prev < 0:
		return true
	case d.f.Descending:
		return lvl < uint64(prev)
	default:
		return lvl > uint64(prev)
	}
}

// roots decodes the roots section of a stream whose nodes are all read,
// then the end marker.
func (d *Decoder) roots(payload []byte) ([]Root, error) {
	p := cursor{b: payload}
	// Each root costs at least two payload bytes (id and node uvarints);
	// this bound stops a hostile NumRoots — the header CRC is not an
	// integrity guarantee — before any proportional allocation.
	if uint64(d.Header.NumRoots)*2 > uint64(len(payload)) {
		return nil, corrupt("header claims %d roots in %d payload bytes", d.Header.NumRoots, len(payload))
	}
	roots := make([]Root, d.Header.NumRoots)
	for i := range roots {
		roots[i].ID = p.uvarint()
		roots[i].Node = p.child(0, 0, d.Header.TotalNodes, false, false)
		if p.err != nil {
			return nil, fmt.Errorf("root %d: %w", i, p.err)
		}
	}
	if err := p.done("roots section"); err != nil {
		return nil, err
	}
	kind, payload, err := d.readSection()
	if err != nil {
		return nil, err
	}
	if kind != secEnd || len(payload) != 0 {
		return nil, corrupt("missing end-of-stream section")
	}
	return roots, nil
}

// readSection reads one kind/length/payload/crc section. The payload is
// read in bounded chunks so a hostile length field cannot force a large
// allocation beyond the bytes actually present.
func (d *Decoder) readSection() (kind byte, payload []byte, err error) {
	var hb [5]byte
	if _, err := io.ReadFull(d.r, hb[:]); err != nil {
		return 0, nil, eofErr(err)
	}
	kind = hb[0]
	n := binary.LittleEndian.Uint32(hb[1:])
	if n > maxSectionLen {
		return 0, nil, corrupt("section length %d exceeds limit", n)
	}
	const chunk = 64 << 10
	payload = make([]byte, 0, min(int(n), chunk))
	for remaining := int(n); remaining > 0; {
		c := min(remaining, chunk)
		start := len(payload)
		payload = append(payload, make([]byte, c)...)
		if _, err := io.ReadFull(d.r, payload[start:]); err != nil {
			return 0, nil, eofErr(err)
		}
		remaining -= c
	}
	var crcb [4]byte
	if _, err := io.ReadFull(d.r, crcb[:]); err != nil {
		return 0, nil, eofErr(err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcb[:]) {
		return 0, nil, fmt.Errorf("%w: section kind %d", ErrChecksum, kind)
	}
	return kind, payload, nil
}

// cursor is a uvarint cursor over one section's payload. Its first
// failure sticks: later reads return 0 and err keeps the first cause.
type cursor struct {
	b   []byte
	off int
	err error
}

func (p *cursor) uvarint() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		p.err = corrupt("bad varint at payload offset %d", p.off)
		return 0
	}
	p.off += n
	return v
}

// done reports the cursor's failure, or trailing bytes in what.
func (p *cursor) done(what string) error {
	if p.err == nil && p.off != len(p.b) {
		p.err = corrupt("trailing bytes in %s", what)
	}
	return p.err
}

// child decodes one reference of node cur (a root's is raw), which must
// be a terminal or a node number in [lo, hi). Deltas count backwards from
// cur when descending and forwards otherwise; both are bounded before the
// arithmetic, so a near-2^64 delta cannot wrap back into range.
func (p *cursor) child(cur, lo, hi uint64, delta, descending bool) uint64 {
	enc := p.uvarint()
	switch {
	case p.err != nil:
		return 0
	case enc == 0:
		return Zero
	case enc == 1:
		return One
	}
	s := enc - 2
	if delta {
		d := enc - 1
		switch {
		case descending && d > cur:
			p.err = corrupt("child delta %d reaches before the stream", d)
		case descending:
			s = cur - d
		case d >= hi:
			p.err = corrupt("child delta %d exceeds the stream", d)
		default:
			s = cur + d
		}
	}
	if p.err == nil && (s < lo || s >= hi) {
		p.err = corrupt("reference %d outside [%d,%d)", s, lo, hi)
	}
	return s
}
