package core

import (
	"math/big"

	"bfbdd/internal/cache"
	"bfbdd/internal/node"
)

// Exists computes ∃ cube . f: existential quantification of f over the
// variables of cube, which must be a positive cube (a conjunction of
// variables, as built by CubeRef).
func (k *Kernel) Exists(f, cube node.Ref) node.Ref {
	k.ensureReadable()
	k.InhibitGC()
	defer k.ReleaseGC()
	return k.workers[0].quantRec(opExists, f, cube)
}

// Forall computes ∀ cube . f: universal quantification.
func (k *Kernel) Forall(f, cube node.Ref) node.Ref {
	k.ensureReadable()
	k.InhibitGC()
	defer k.ReleaseGC()
	return k.workers[0].quantRec(opForall, f, cube)
}

// CubeRef builds the positive cube over the given levels (conjunction of
// the corresponding variables).
func (k *Kernel) CubeRef(levels []int) node.Ref {
	// Build bottom-up in decreasing precedence so each mkNode call has
	// already-canonical children.
	sorted := append([]int(nil), levels...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	r := node.One
	for i := len(sorted) - 1; i >= 0; i-- {
		if i+1 < len(sorted) && sorted[i] == sorted[i+1] {
			continue // duplicate level
		}
		r = k.MkNode(sorted[i], node.Zero, r)
	}
	return r
}

func (w *worker) quantRec(op Op, f, cube node.Ref) node.Ref {
	k := w.k
	st := k.store
	// Skip cube variables with higher precedence than f's top variable:
	// they do not occur in f, so quantifying them is the identity.
	for !cube.IsTerminal() && cube.Level() < f.Level() {
		cube = st.Node(cube).High
	}
	if cube.IsOne() || f.IsTerminal() {
		return f
	}
	if cube.IsZero() {
		panic("core: quantification cube must be a positive cube")
	}
	lvl := f.Level()
	if v, ok := w.cache.Lookup(lvl, uint8(op), f, cube); ok && !v.IsOpHandle() {
		w.st.CacheHits++
		return v.Ref()
	}
	nd := st.Node(f)
	var res node.Ref
	if cube.Level() == lvl {
		next := st.Node(cube).High
		// GC is inhibited for the whole quantification, so raw refs stay
		// valid across the recursive calls and Applies below.
		r0 := w.quantRec(op, nd.Low, next)
		r1 := w.quantRec(op, nd.High, next)
		if op == opExists {
			res = k.Apply(OpOr, r0, r1)
		} else {
			res = k.Apply(OpAnd, r0, r1)
		}
	} else {
		r0 := w.quantRec(op, nd.Low, cube)
		r1 := w.quantRec(op, nd.High, cube)
		res = k.mkNode(w.id, lvl, r0, r1)
	}
	w.cache.Insert(lvl, uint8(op), f, cube, cache.FromRef(res))
	return res
}

// Restrict computes f with the variable at level fixed to value.
func (k *Kernel) Restrict(f node.Ref, level int, value bool) node.Ref {
	k.ensureReadable()
	var lit node.Ref
	if value {
		lit = k.MkNode(level, node.Zero, node.One)
	} else {
		lit = k.MkNode(level, node.One, node.Zero)
	}
	k.InhibitGC()
	defer k.ReleaseGC()
	return k.workers[0].restrictRec(f, lit)
}

func (w *worker) restrictRec(f, lit node.Ref) node.Ref {
	k := w.k
	st := k.store
	llvl := lit.Level()
	if f.IsTerminal() || f.Level() > llvl {
		return f // the restricted variable does not occur in f
	}
	if f.Level() == llvl {
		nd := st.Node(f)
		if st.Node(lit).High.IsOne() {
			return nd.High
		}
		return nd.Low
	}
	lvl := f.Level()
	if v, ok := w.cache.Lookup(lvl, uint8(opRestrict), f, lit); ok && !v.IsOpHandle() {
		w.st.CacheHits++
		return v.Ref()
	}
	nd := st.Node(f)
	r0 := w.restrictRec(nd.Low, lit)
	r1 := w.restrictRec(nd.High, lit)
	res := k.mkNode(w.id, lvl, r0, r1)
	w.cache.Insert(lvl, uint8(opRestrict), f, lit, cache.FromRef(res))
	return res
}

// ITE computes if-then-else: f ? g : h.
func (k *Kernel) ITE(f, g, h node.Ref) node.Ref {
	k.InhibitGC()
	defer k.ReleaseGC()
	fg := k.Apply(OpAnd, f, g)
	nfh := k.Apply(OpDiff, h, f) // h AND NOT f
	return k.Apply(OpOr, fg, nfh)
}

// Compose substitutes the function g for the variable at level in f.
func (k *Kernel) Compose(f node.Ref, level int, g node.Ref) node.Ref {
	k.ensureReadable()
	k.InhibitGC()
	defer k.ReleaseGC()
	return k.composeRec(f, level, g, node.NewTable[memoRef](k.store))
}

// memoRef is a memoized result in a side table; the zero slot means the
// node has not been visited.
type memoRef struct {
	r  node.Ref
	ok bool
}

func (k *Kernel) composeRec(f node.Ref, level int, g node.Ref, memo *node.Table[memoRef]) node.Ref {
	if f.IsTerminal() || f.Level() > level {
		return f
	}
	if m := memo.Get(f); m.ok {
		return m.r
	}
	nd := k.store.Node(f)
	var res node.Ref
	if f.Level() == level {
		res = k.ITE(g, nd.High, nd.Low)
	} else {
		r0 := k.composeRec(nd.Low, level, g, memo)
		r1 := k.composeRec(nd.High, level, g, memo)
		// g may introduce variables above f's level, so rebuild with ITE
		// on f's variable rather than mkNode, which would assume the
		// children stay below this level.
		v := k.MkNode(f.Level(), node.Zero, node.One)
		res = k.ITE(v, r1, r0)
	}
	*memo.At(f) = memoRef{res, true}
	return res
}

// SatCount returns the exact number of satisfying assignments of f over
// all of the kernel's variables.
func (k *Kernel) SatCount(f node.Ref) *big.Int {
	k.ensureReadable()
	c := k.satCountRec(f, node.NewTable[*big.Int](k.store))
	// Variables with higher precedence than f's top variable are free.
	return new(big.Int).Lsh(c, uint(min(f.Level(), k.opts.Levels)))
}

// satCountRec counts assignments of the variables at levels ≥ f's level.
func (k *Kernel) satCountRec(f node.Ref, memo *node.Table[*big.Int]) *big.Int {
	if f.IsZero() {
		return big.NewInt(0)
	}
	if f.IsOne() {
		return big.NewInt(1)
	}
	if c := memo.Get(f); c != nil {
		return c
	}
	nd := k.store.Node(f)
	lvl := f.Level()
	c0 := k.satCountRec(nd.Low, memo)
	c1 := k.satCountRec(nd.High, memo)
	gap := func(child node.Ref) uint {
		cl := child.Level()
		if cl == node.TermLevel {
			cl = k.opts.Levels
		}
		return uint(cl - lvl - 1)
	}
	c := new(big.Int).Lsh(c0, gap(nd.Low))
	c.Add(c, new(big.Int).Lsh(c1, gap(nd.High)))
	*memo.At(f) = c
	return c
}

// AnySat returns one satisfying assignment of f as a slice indexed by
// level: 0, 1, or -1 (don't care). ok is false when f is unsatisfiable.
func (k *Kernel) AnySat(f node.Ref) (assignment []int8, ok bool) {
	k.ensureReadable()
	if f.IsZero() {
		return nil, false
	}
	a := make([]int8, k.opts.Levels)
	for i := range a {
		a[i] = -1
	}
	for !f.IsTerminal() {
		nd := k.store.Node(f)
		// In a reduced BDD a branch is unsatisfiable iff it is the Zero
		// terminal, so any non-Zero branch leads to One.
		if nd.Low.IsZero() {
			a[f.Level()] = 1
			f = nd.High
		} else {
			a[f.Level()] = 0
			f = nd.Low
		}
	}
	return a, true
}

// Eval evaluates f under a complete assignment indexed by level.
func (k *Kernel) Eval(f node.Ref, assignment []bool) bool {
	k.ensureReadable()
	for !f.IsTerminal() {
		nd := k.store.Node(f)
		if assignment[f.Level()] {
			f = nd.High
		} else {
			f = nd.Low
		}
	}
	return f.IsOne()
}

// Size returns the number of internal nodes in f's reachable subgraph.
func (k *Kernel) Size(f node.Ref) int { return k.SizeMulti([]node.Ref{f}) }

// SizeMulti returns the number of distinct internal nodes reachable from
// any of the given roots (shared nodes counted once).
func (k *Kernel) SizeMulti(roots []node.Ref) int {
	k.ensureReadable()
	count := 0
	k.reach(roots, func(node.Ref) { count++ })
	return count
}

// Support returns the sorted levels of the variables occurring in f.
func (k *Kernel) Support(f node.Ref) []int {
	k.ensureReadable()
	levels := []int{}
	k.reach([]node.Ref{f}, func(r node.Ref) {
		if n := len(levels); n == 0 || levels[n-1] != r.Level() {
			levels = append(levels, r.Level())
		}
	})
	return levels
}

// reach calls visit once for every non-terminal node reachable from
// roots, level by level from the top (node.Table.Reach).
func (k *Kernel) reach(roots []node.Ref, visit func(node.Ref)) {
	if err := node.NewTable[bool](k.store).Reach(roots, true, visit); err != nil {
		panic("core: " + err.Error())
	}
}
