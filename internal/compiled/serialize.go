package compiled

import (
	"io"

	"bfbdd/internal/levelfmt"
)

// Serialize writes the artifact in the compiled wire format with
// delta-encoded child references. The byte stream is a deterministic
// function of the artifact's contents, so equal Funcs serialize to equal
// bytes — the property the oracle uses to compare engines.
func (f *Func) Serialize(w io.Writer) error {
	return f.serialize(w, false)
}

// SerializeRaw writes the artifact without delta-encoding child
// references (flag bit 0 clear): larger but flatter, for format
// debugging and encoding ablations. Load accepts both transparently.
func (f *Func) SerializeRaw(w io.Writer) error {
	return f.serialize(w, true)
}

func (f *Func) serialize(w io.Writer, raw bool) error {
	enc, err := format.NewEncoder(w, f.var2level, len(f.roots), uint64(len(f.nodes)), raw)
	if err != nil {
		return wrap(err)
	}
	for _, s := range f.segs {
		for _, nd := range f.nodes[s.start:s.end] {
			enc.Node(s.level, uint64(nd.lo), uint64(nd.hi))
		}
	}
	roots := make([]levelfmt.Root, len(f.roots))
	for i, rt := range f.roots {
		roots[i] = levelfmt.Root{ID: rt.id, Node: uint64(rt.node)}
	}
	return wrap(enc.Finish(roots))
}

// Load decodes a compiled artifact from r. Malformed input of any kind —
// truncated, bit-flipped, or adversarial — yields a typed error (never a
// panic), and no allocation is proportional to a hostile length claim.
//
// The codec re-validates the structural invariants evaluation depends
// on: segment levels strictly ascend, every child reference lands
// strictly past the end of its own segment (deeper level, forward
// progress), and the segment totals match the header. A Func returned by
// Load is therefore safe to evaluate concurrently like any compiled one,
// even if the bytes came from an untrusted peer.
func Load(r io.Reader) (*Func, error) {
	d, err := format.NewDecoder(r)
	if err != nil {
		return nil, wrap(err)
	}
	f := &Func{
		numVars:   d.Header.NumVars,
		nodes:     make([]packed, 0, min(d.Header.TotalNodes, 1<<20)),
		var2level: d.Var2Level,
		level2var: d.Level2Var,
	}
	roots, err := d.Decode(f.fill)
	if err != nil {
		return nil, wrap(err)
	}
	for _, rt := range roots {
		f.roots = append(f.roots, funcRoot{id: rt.ID, node: uint32(rt.Node)})
	}
	f.buildVarOf()
	return f, nil
}

// fill appends the next node in level-major stream order to the packed
// array, opening a segment when the level changes. Compile and Load
// both build a Func through it; children are codec numbers.
func (f *Func) fill(level int, lo, hi uint64) {
	n := uint32(len(f.nodes))
	if k := len(f.segs); k == 0 || f.segs[k-1].level != level {
		f.segs = append(f.segs, segment{level: level, varIdx: f.level2var[level], start: n})
	}
	f.segs[len(f.segs)-1].end = n + 1
	f.nodes = append(f.nodes, packed{lo: uint32(lo), hi: uint32(hi)})
}
