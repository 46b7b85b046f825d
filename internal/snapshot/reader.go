package snapshot

import (
	"io"

	"bfbdd/internal/levelfmt"
	"bfbdd/internal/node"
)

// Reader decodes a snapshot stream in two phases: NewReader consumes and
// validates the header and variable-order section (so a caller can size a
// fresh manager), then Resolve streams the level segments through a
// node-construction callback and returns the labeled roots.
type Reader struct {
	d *levelfmt.Decoder
}

// LevelInfo summarizes one level segment of a stream.
type LevelInfo = levelfmt.LevelInfo

// NewReader consumes the fixed header and the variable-order section.
func NewReader(r io.Reader) (*Reader, error) {
	d, err := format.NewDecoder(r)
	if err != nil {
		return nil, wrap(err)
	}
	return &Reader{d: d}, nil
}

// Header returns the decoded fixed header.
func (rd *Reader) Header() Header { return rd.d.Header }

// NumVars returns the stream's variable count.
func (rd *Reader) NumVars() int { return rd.d.Header.NumVars }

// Var2Level returns the stream's variable order: entry v is the level of
// public variable v. The slice is owned by the reader.
func (rd *Reader) Var2Level() []int { return rd.d.Var2Level }

// Levels returns per-segment statistics, in stream order (deepest level
// first). Populated by Resolve.
func (rd *Reader) Levels() []LevelInfo { return rd.d.Levels }

// Resolve reads the level segments, materializing every node through mk
// in bottom-up order — each call's low/high arguments are terminals or
// refs returned by earlier mk calls, so mk can insert directly into fresh
// unique tables (compaction-on-load: only live nodes arrive, in dense
// order). It returns the stream's labeled roots.
//
// mk is typically a canonicalizing constructor; if the stream encodes a
// redundant or duplicate node, mk's collapsed result is used for all
// later references to it, so the restored graph is canonical even when
// the stream was not minimal.
func (rd *Reader) Resolve(mk func(level int, low, high node.Ref) node.Ref) ([]Root, error) {
	refs := make([]node.Ref, 0, min(rd.d.Header.TotalNodes, 1<<20))
	ref := func(c uint64) node.Ref {
		switch c {
		case levelfmt.Zero:
			return node.Zero
		case levelfmt.One:
			return node.One
		}
		return refs[c]
	}
	lroots, err := rd.d.Decode(func(level int, lo, hi uint64) {
		refs = append(refs, mk(level, ref(lo), ref(hi)))
	})
	if err != nil {
		return nil, wrap(err)
	}
	roots := make([]Root, len(lroots))
	for i, rt := range lroots {
		roots[i] = Root{ID: rt.ID, Ref: ref(rt.Node)}
	}
	return roots, nil
}

// Info is the result of Inspect: everything about a stream except the
// nodes themselves.
type Info struct {
	Header    Header
	Var2Level []int
	// Levels holds the per-level histogram in stream order (deepest
	// first).
	Levels []LevelInfo
	// Roots carries the stream's labeled roots; each Ref is synthetic
	// (not resolvable against any store) but its Level() is meaningful.
	Roots []Root
}

// Inspect fully decodes and checksums a stream without building a node
// store, returning header fields, the per-level node histogram, and the
// root labels. It validates exactly as much as a real restore does.
func Inspect(r io.Reader) (*Info, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var n uint64
	roots, err := rd.Resolve(func(level int, low, high node.Ref) node.Ref {
		ref := node.MakeRef(level, 0, n)
		n++
		return ref
	})
	if err != nil {
		return nil, err
	}
	return &Info{Header: rd.Header(), Var2Level: rd.Var2Level(), Levels: rd.Levels(), Roots: roots}, nil
}
