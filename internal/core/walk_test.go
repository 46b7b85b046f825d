package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/big"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bfbdd/internal/node"
)

// The reference walks below are the map-keyed implementations the side
// table replaced, kept as the oracle for the table-based ones.

func refSizeMulti(st *node.Store, roots []node.Ref) int {
	seen := make(map[node.Ref]bool)
	var stack []node.Ref
	for _, r := range roots {
		if !r.IsTerminal() && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	count := 0
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		nd := st.Node(r)
		for _, c := range [2]node.Ref{nd.Low, nd.High} {
			if !c.IsTerminal() && !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return count
}

func refSupport(st *node.Store, f node.Ref) []int {
	present := make(map[int]bool)
	seen := make(map[node.Ref]bool)
	var visit func(r node.Ref)
	visit = func(r node.Ref) {
		if r.IsTerminal() || seen[r] {
			return
		}
		seen[r] = true
		present[r.Level()] = true
		nd := st.Node(r)
		visit(nd.Low)
		visit(nd.High)
	}
	visit(f)
	levels := []int{}
	for l := 0; l < st.Levels(); l++ {
		if present[l] {
			levels = append(levels, l)
		}
	}
	return levels
}

func refSatCount(st *node.Store, f node.Ref) *big.Int {
	L := st.Levels()
	memo := make(map[node.Ref]*big.Int)
	var rec func(f node.Ref) *big.Int
	rec = func(f node.Ref) *big.Int {
		if f.IsZero() {
			return big.NewInt(0)
		}
		if f.IsOne() {
			return big.NewInt(1)
		}
		if c, ok := memo[f]; ok {
			return c
		}
		nd := st.Node(f)
		gap := func(child node.Ref) uint {
			return uint(min(child.Level(), L) - f.Level() - 1)
		}
		c := new(big.Int).Lsh(rec(nd.Low), gap(nd.Low))
		c.Add(c, new(big.Int).Lsh(rec(nd.High), gap(nd.High)))
		memo[f] = c
		return c
	}
	return new(big.Int).Lsh(rec(f), uint(min(f.Level(), L)))
}

func refCanonicalSignature(st *node.Store, roots []node.Ref) []uint64 {
	code := make(map[node.Ref]uint64)
	var sig []uint64
	next := uint64(2)
	var visit func(r node.Ref) uint64
	visit = func(r node.Ref) uint64 {
		if r.IsZero() {
			return 0
		}
		if r.IsOne() {
			return 1
		}
		if c, ok := code[r]; ok {
			return c
		}
		nd := st.Node(r)
		lo := visit(nd.Low)
		hi := visit(nd.High)
		c := next
		next++
		code[r] = c
		sig = append(sig, uint64(r.Level()), lo, hi)
		return c
	}
	for _, r := range roots {
		sig = append(sig, visit(r))
	}
	return sig
}

func refLevelMajorOrder(st *node.Store, roots []node.Ref) []node.Ref {
	perLevel := make([][]node.Ref, st.Levels())
	seen := make(map[node.Ref]bool)
	push := func(r node.Ref) {
		if !r.IsTerminal() && !seen[r] {
			seen[r] = true
			perLevel[r.Level()] = append(perLevel[r.Level()], r)
		}
	}
	for _, r := range roots {
		push(r)
	}
	var out []node.Ref
	for lvl := range perLevel {
		for i := 0; i < len(perLevel[lvl]); i++ {
			nd := st.Node(perLevel[lvl][i])
			push(nd.Low)
			push(nd.High)
		}
		out = append(out, perLevel[lvl]...)
	}
	return out
}

// randomForest builds steps random binary operations over the kernel's
// variables and earlier results, the way the truth-table oracle does but
// over more variables, and pins every result.
func randomForest(k *Kernel, steps int, seed int64) []*Pin {
	rng := rand.New(rand.NewSource(seed))
	var pins []*Pin
	for v := 0; v < k.Levels(); v++ {
		pins = append(pins, k.Pin(k.VarRef(v)))
	}
	for i := 0; i < steps; i++ {
		op := Op(rng.Intn(int(numBinaryOps)))
		f := pins[rng.Intn(len(pins))].Ref()
		g := pins[rng.Intn(len(pins))].Ref()
		pins = append(pins, k.Pin(k.Apply(op, f, g)))
	}
	return pins
}

// freeSlots counts the arena slots on free lists.
func freeSlots(st *node.Store) uint64 {
	var n uint64
	for w := 0; w < st.Workers(); w++ {
		for l := 0; l < st.Levels(); l++ {
			a := st.Arena(w, l)
			n += a.Len() - a.Live()
		}
	}
	return n
}

// TestWalksMatchMapReference compares the side-table walks with the
// map-keyed reference on random forests under every arena layout the
// kernel produces: one worker, two workers, reused free-list slots, a
// compacted store, and a spilled level.
func TestWalksMatchMapReference(t *testing.T) {
	const levels = 14
	setups := []struct {
		name  string
		opts  Options
		setup func(t *testing.T, k *Kernel, pins []*Pin) []*Pin
	}{
		{name: "pbf-seq", opts: Options{Engine: EnginePBF}},
		{name: "par-2w", opts: Options{Engine: EnginePar, Workers: 2, EvalThreshold: 8, GroupSize: 4, Stealing: true}},
		{name: "freelist-reuse", opts: Options{Engine: EnginePBF, GC: GCFreeList},
			setup: func(t *testing.T, k *Kernel, pins []*Pin) []*Pin {
				// Drop every other result, collect, and build again into
				// the freed slots.
				var kept []*Pin
				for i, p := range pins {
					if i >= levels && i%2 == 0 {
						k.Unpin(p)
					} else {
						kept = append(kept, p)
					}
				}
				k.GC()
				before := freeSlots(k.Store())
				kept = append(kept, randomForest(k, 60, 99)...)
				if after := freeSlots(k.Store()); before == 0 || after >= before {
					t.Fatalf("free slots %d -> %d: the rebuild reused none", before, after)
				}
				return kept
			}},
		{name: "compacted", opts: Options{Engine: EnginePar, Workers: 2, GC: GCCompact},
			setup: func(t *testing.T, k *Kernel, pins []*Pin) []*Pin {
				var kept []*Pin
				for i, p := range pins {
					if i >= levels && i%3 != 0 {
						k.Unpin(p)
					} else {
						kept = append(kept, p)
					}
				}
				k.GC()
				return kept
			}},
		{name: "spilled-level", opts: Options{Engine: EnginePBF},
			setup: func(t *testing.T, k *Kernel, pins []*Pin) []*Pin {
				if err := k.EnableSpill(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				if err := k.SpillLevels([]int{levels / 2}); err != nil {
					t.Fatal(err)
				}
				if len(k.SpilledLevels()) != 1 {
					t.Fatalf("spilled levels = %v, want one", k.SpilledLevels())
				}
				return pins
			}},
	}
	for _, s := range setups {
		t.Run(s.name, func(t *testing.T) {
			opts := s.opts
			opts.Levels = levels
			k := NewKernel(opts)
			defer k.Close()
			pins := randomForest(k, 300, 7)
			if s.setup != nil {
				pins = s.setup(t, k, pins)
			}
			roots := make([]node.Ref, len(pins))
			for i, p := range pins {
				roots[i] = p.Ref()
			}
			gotOrder, pos, err := k.LevelMajorOrder(roots)
			if err != nil {
				t.Fatal(err)
			}
			st := k.Store()
			if want := refLevelMajorOrder(st, roots); !reflect.DeepEqual(gotOrder, want) {
				t.Fatalf("LevelMajorOrder differs from the map reference (%d vs %d nodes)", len(gotOrder), len(want))
			}
			for i, r := range gotOrder {
				if got := pos.Get(r); got != uint32(i+1) {
					t.Fatalf("LevelMajorOrder position of %v = %d, want %d", r, got, i+1)
				}
			}
			if got, want := k.SizeMulti(roots), refSizeMulti(st, roots); got != want {
				t.Fatalf("SizeMulti = %d, want %d", got, want)
			}
			if got, want := k.CanonicalSignature(roots), refCanonicalSignature(st, roots); !reflect.DeepEqual(got, want) {
				t.Fatal("CanonicalSignature differs from the map reference")
			}
			pagesCrossed := false
			for _, r := range gotOrder {
				pagesCrossed = pagesCrossed || r.Index() >= 256
			}
			if !pagesCrossed {
				t.Fatalf("no node index reached a second side-table page (%d nodes)", len(gotOrder))
			}
			for _, r := range roots {
				if got, want := k.Size(r), refSizeMulti(st, []node.Ref{r}); got != want {
					t.Fatalf("Size(%v) = %d, want %d", r, got, want)
				}
				if got, want := k.Support(r), refSupport(st, r); !reflect.DeepEqual(got, want) {
					t.Fatalf("Support(%v) = %v, want %v", r, got, want)
				}
				if got, want := k.SatCount(r), refSatCount(st, r); got.Cmp(want) != 0 {
					t.Fatalf("SatCount(%v) = %v, want %v", r, got, want)
				}
			}
		})
	}
}

// TestWalksOnClosedKernelPanic pins Close's contract for every read-only
// walk: use after Close panics with the kernel's own message, not a nil
// dereference of the released store.
func TestWalksOnClosedKernelPanic(t *testing.T) {
	k := NewKernel(Options{Levels: 4, Engine: EnginePBF})
	f := k.Apply(OpAnd, k.VarRef(0), k.VarRef(2))
	roots := []node.Ref{f}
	k.Close()
	walks := []struct {
		name string
		fn   func()
	}{
		{"Size", func() { k.Size(f) }},
		{"SizeMulti", func() { k.SizeMulti(roots) }},
		{"Support", func() { k.Support(f) }},
		{"SatCount", func() { k.SatCount(f) }},
		{"AnySat", func() { k.AnySat(f) }},
		{"Eval", func() { k.Eval(f, make([]bool, 4)) }},
		{"Compose", func() { k.Compose(f, 0, node.One) }},
		{"Exists", func() { k.Exists(f, node.One) }},
		{"Restrict", func() { k.Restrict(f, 0, true) }},
		{"LevelMajorOrder", func() { _, _, _ = k.LevelMajorOrder(roots) }},
		{"CanonicalSignature", func() { k.CanonicalSignature(roots) }},
	}
	for _, w := range walks {
		t.Run(w.name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); msg != "core: use of closed kernel" {
					t.Fatalf("panic %q, want %q", msg, "core: use of closed kernel")
				}
			}()
			w.fn()
		})
	}
}

// TestNoRefKeyedMaps keeps whole-graph walks on the side table: a map
// keyed by node.Ref in the module's non-test code fails the test.
func TestNoRefKeyedMaps(t *testing.T) {
	// File paths exempted, each with its reason; none is needed today.
	allowed := map[string]bool{}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if d.Name() == "testdata" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		inNode := filepath.Dir(rel) == "internal/node"
		ast.Inspect(f, func(n ast.Node) bool {
			if mt, ok := n.(*ast.MapType); ok && isRefType(mt.Key, inNode) && !allowed[rel] {
				t.Errorf("%s: map keyed by node.Ref; use a node.Table over the arenas", fset.Position(mt.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// isRefType reports whether e spells node.Ref, or Ref inside package node.
func isRefType(e ast.Expr, inNode bool) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		return ok && x.Name == "node" && e.Sel.Name == "Ref"
	case *ast.Ident:
		return inNode && e.Name == "Ref"
	}
	return false
}
