package node

import "fmt"

// Side-table pages hold 256 slots: small enough that a walk over a
// handful of nodes zeroes a few KiB, large enough that a walk over a
// whole arena allocates one page per 256 nodes.
const (
	pageShift = 8
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Table is a side table with one slot of type T per arena slot of a
// Store. Whole-graph walks keep their per-node state (a mark, a number,
// a memoized result) here rather than in a map keyed by Ref: a slot is
// addressed exactly like its node, by (level, worker, index), through
// pages that follow each arena's index space. A page is allocated, zeroed,
// the first time a walk touches it, and the table keeps page lists only
// for the range of arenas its walk has touched, so a walk costs time and
// memory in proportion to the pages and levels it touches, not to the
// store's levels. The zero T means "no entry".
//
// A Table belongs to one walk. It is not safe for concurrent use, and
// like the walks that use it, it assumes the refs it is given are valid
// non-terminal refs of its store.
type Table[T comparable] struct {
	st *Store
	// pages[a-lo] is the page list of arena a (level*workers+worker),
	// for the arenas from lo on that the walk has reached.
	pages [][]*[pageSize]T
	lo    int
}

// NewTable returns an empty side table over st's arenas.
func NewTable[T comparable](st *Store) *Table[T] {
	return &Table[T]{st: st}
}

// list returns the page list of arena a, or nil if a is outside the
// range the table covers.
func (t *Table[T]) list(a int) []*[pageSize]T {
	if i := a - t.lo; i >= 0 && i < len(t.pages) {
		return t.pages[i]
	}
	return nil
}

// cover extends the covered range to arena a, at least doubling it so
// that a walk reaching new arenas one by one copies the lists a
// logarithmic number of times.
func (t *Table[T]) cover(a int) {
	if i := a - t.lo; i >= 0 && i < len(t.pages) {
		return
	}
	lo, hi := a, a+1
	if n := len(t.pages); n > 0 {
		lo, hi = min(lo, t.lo), max(hi, t.lo+n)
		if span := max(hi-lo, 2*n); a < t.lo {
			lo = max(hi-span, 0)
		} else {
			hi = min(lo+span, t.st.levels*t.st.workers)
		}
	}
	pages := make([][]*[pageSize]T, hi-lo)
	copy(pages[max(t.lo-lo, 0):], t.pages)
	t.pages, t.lo = pages, lo
}

// At returns r's slot, allocating its page on first touch.
func (t *Table[T]) At(r Ref) *T {
	w, i := r.Worker(), r.Index()
	if w >= t.st.workers {
		panic(fmt.Sprintf("node: side table lookup of %v in a %d-worker store", r, t.st.workers))
	}
	ps := t.list(r.Level()*t.st.workers + w)
	if p := i >> pageShift; p < uint64(len(ps)) && ps[p] != nil {
		return &ps[p][i&pageMask]
	}
	return t.grow(r)
}

// grow allocates r's page, first extending the arena's page list to
// cover the arena (or r, if the arena grew since the list was made).
func (t *Table[T]) grow(r Ref) *T {
	a := r.Level()*t.st.workers + r.Worker()
	i := r.Index()
	t.cover(a)
	ps := t.pages[a-t.lo]
	if need := i>>pageShift + 1; need > uint64(len(ps)) {
		n := (t.st.arenas[r.Worker()][r.Level()].Len() + pageMask) >> pageShift
		nps := make([]*[pageSize]T, max(n, need))
		copy(nps, ps)
		ps = nps
		t.pages[a-t.lo] = ps
	}
	p := new([pageSize]T)
	ps[i>>pageShift] = p
	return &p[i&pageMask]
}

// Get returns r's slot value without allocating: the zero T if r's page
// was never touched.
func (t *Table[T]) Get(r Ref) T {
	w, i := r.Worker(), r.Index()
	if w < t.st.workers {
		ps := t.list(r.Level()*t.st.workers + w)
		if p := i >> pageShift; p < uint64(len(ps)) && ps[p] != nil {
			return ps[p][i&pageMask]
		}
	}
	var zero T
	return zero
}

// Sweep calls fn for every non-zero slot at level, worker by worker and
// in index order within each arena: the order in which the collector's
// mark reads an arena. fn may set slots at other levels, and the value of
// the slot it is given; it must not add entries at level itself.
func (t *Table[T]) Sweep(level int, fn func(r Ref, v *T)) {
	var zero T
	for w := 0; w < t.st.workers; w++ {
		for pi, p := range t.list(level*t.st.workers + w) {
			if p == nil {
				continue
			}
			base := uint64(pi) << pageShift
			for j := range p {
				if p[j] != zero {
					fn(MakeRef(level, w, base+uint64(j)), &p[j])
				}
			}
		}
	}
}

// Reach sets the slot of every non-terminal node reachable from roots to
// mark, which must not be the zero T, and calls visit once per node,
// level by level from the top. It marks the way the collector does
// (§3.4): set the roots, then sweep the levels top-down, each marked
// node setting its children, down to the deepest level reached.
// Children always sit at strictly deeper levels than their parent, so
// one sweep per level reaches every node without a stack; a child that
// does not is an error.
func (t *Table[T]) Reach(roots []Ref, mark T, visit func(Ref)) error {
	top := t.st.levels
	for _, r := range roots {
		if !r.IsTerminal() {
			*t.At(r) = mark
			top = min(top, r.Level())
		}
	}
	var bad error
	for lvl := top; lvl*t.st.workers < t.lo+len(t.pages) && bad == nil; lvl++ {
		t.Sweep(lvl, func(r Ref, _ *T) {
			visit(r)
			nd := t.st.Node(r)
			for _, c := range [2]Ref{nd.Low, nd.High} {
				switch {
				case c.IsTerminal():
				case c.Level() <= lvl:
					bad = fmt.Errorf("node %v has non-descending child %v", r, c)
				default:
					*t.At(c) = mark
				}
			}
		})
	}
	return bad
}
