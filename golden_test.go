package bfbdd_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bfbdd"
	"bfbdd/internal/node"
)

// goldenVars and goldenOrder fix the variable count and a non-identity
// order (goldenOrder[v] is the level of variable v) for the golden
// streams, so level and variable numbering differ on the wire.
const goldenVars = 6

var goldenOrder = []int{3, 5, 0, 4, 1, 2}

// goldenFuncs are the fixture's roots as plain Go predicates: the oracle
// every decoded stream is checked against, independent of the engine.
var goldenFuncs = []struct {
	id uint64
	fn func(a []bool) bool
}{
	{7, func(a []bool) bool { return a[0] && a[3] || !a[5] }},
	{0, func(a []bool) bool { return a[1] != a[4] != a[2] }},
	{300, func(a []bool) bool {
		if a[0] {
			return a[2]
		}
		return a[5]
	}},
	{1, func([]bool) bool { return false }},
	{1 << 40, func([]bool) bool { return true }},
}

// goldenManager builds the fixture's roots under goldenOrder.
func goldenManager(t *testing.T) (*bfbdd.Manager, []bfbdd.SnapshotRoot) {
	t.Helper()
	m := bfbdd.New(goldenVars)
	m.SetOrder(goldenOrder)
	x := func(v int) *bfbdd.BDD { return m.Var(v) }
	bs := []*bfbdd.BDD{
		x(0).And(x(3)).Or(x(5).Not()),
		x(1).Xor(x(4)).Xor(x(2)),
		x(0).ITE(x(2), x(5)),
		m.Zero(),
		m.One(),
	}
	roots := make([]bfbdd.SnapshotRoot, len(bs))
	for i, b := range bs {
		roots[i] = bfbdd.SnapshotRoot{ID: goldenFuncs[i].id, B: b}
	}
	return m, roots
}

// checkGolden compares got with testdata/golden/name, rewriting the file
// first when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder output deviates from the golden stream (%d vs %d bytes)", name, len(got), len(want))
	}
	return want
}

// forAllAssignments calls fn with every assignment of goldenVars variables.
func forAllAssignments(fn func(a []bool)) {
	for mask := uint64(0); mask < 1<<goldenVars; mask++ {
		fn(assignmentOf(mask, goldenVars))
	}
}

// TestGoldenSnapshotBytes pins the BFBDSNAP format: Write must reproduce
// the checked-in delta and raw streams byte for byte, and RestoreManager
// must decode them to the fixture's order, root IDs, functions and
// canonical signature.
func TestGoldenSnapshotBytes(t *testing.T) {
	m, roots := goldenManager(t)
	defer m.Close()
	refs := make([]*bfbdd.BDD, len(roots))
	for i, rt := range roots {
		refs[i] = rt.B
	}
	wantSig := signatureOf(m, refs)

	for _, tc := range []struct {
		name string
		opts []bfbdd.SnapshotOption
	}{
		{"snapshot-delta.bin", nil},
		{"snapshot-raw.bin", []bfbdd.SnapshotOption{bfbdd.SnapshotRawRefs()}},
	} {
		var buf bytes.Buffer
		if err := m.SnapshotRoots(&buf, roots, tc.opts...); err != nil {
			t.Fatalf("%s: Snapshot: %v", tc.name, err)
		}
		stream := checkGolden(t, tc.name, buf.Bytes())

		m2, got, err := bfbdd.RestoreManager(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s: RestoreManager: %v", tc.name, err)
		}
		if !reflect.DeepEqual(m2.Order(), m.Order()) {
			t.Fatalf("%s: restored order %v, want %v", tc.name, m2.Order(), m.Order())
		}
		if len(got) != len(goldenFuncs) {
			t.Fatalf("%s: %d roots, want %d", tc.name, len(got), len(goldenFuncs))
		}
		bs := make([]*bfbdd.BDD, len(got))
		for i, rt := range got {
			if rt.ID != goldenFuncs[i].id {
				t.Fatalf("%s: root %d ID %d, want %d", tc.name, i, rt.ID, goldenFuncs[i].id)
			}
			bs[i] = rt.B
			forAllAssignments(func(a []bool) {
				if rt.B.Eval(a) != goldenFuncs[i].fn(a) {
					t.Fatalf("%s: root %d Eval(%v) wrong", tc.name, i, a)
				}
			})
		}
		if sig := signatureOf(m2, bs); !reflect.DeepEqual(sig, wantSig) {
			t.Fatalf("%s: restored signature %v, want %v", tc.name, sig, wantSig)
		}
		m2.Close()
	}
}

// TestGoldenCompiledBytes pins the BFBDFUNC format: Serialize and
// SerializeRaw must reproduce the checked-in streams byte for byte, and
// LoadCompiled must decode each to the fixture's order, root IDs and
// functions, re-serializing to the delta stream.
func TestGoldenCompiledBytes(t *testing.T) {
	m, roots := goldenManager(t)
	cf, err := m.CompileRoots(roots)
	m.Close()
	if err != nil {
		t.Fatalf("CompileRoots: %v", err)
	}
	var delta, raw bytes.Buffer
	if err := cf.Serialize(&delta); err != nil {
		t.Fatalf("Serialize: %v", err)
	}
	if err := cf.SerializeRaw(&raw); err != nil {
		t.Fatalf("SerializeRaw: %v", err)
	}
	deltaWant := checkGolden(t, "compiled-delta.bin", delta.Bytes())
	rawWant := checkGolden(t, "compiled-raw.bin", raw.Bytes())

	for name, stream := range map[string][]byte{"delta": deltaWant, "raw": rawWant} {
		lf, err := bfbdd.LoadCompiled(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s: LoadCompiled: %v", name, err)
		}
		if !reflect.DeepEqual(lf.Var2Level(), goldenOrder) {
			t.Fatalf("%s: order %v, want %v", name, lf.Var2Level(), goldenOrder)
		}
		ids := lf.RootIDs()
		for i, g := range goldenFuncs {
			if ids[i] != g.id {
				t.Fatalf("%s: root %d ID %d, want %d", name, i, ids[i], g.id)
			}
			forAllAssignments(func(a []bool) {
				if lf.Eval(i, a) != g.fn(a) {
					t.Fatalf("%s: root %d Eval(%v) wrong", name, i, a)
				}
			})
		}
		var again bytes.Buffer
		if err := lf.Serialize(&again); err != nil {
			t.Fatalf("%s: re-serialize: %v", name, err)
		}
		if !bytes.Equal(again.Bytes(), deltaWant) {
			t.Fatalf("%s: re-serialized artifact differs from the golden delta stream", name)
		}
	}
}

// signatureOf returns the canonical signature of bs in m.
func signatureOf(m *bfbdd.Manager, bs []*bfbdd.BDD) []uint64 {
	refs := make([]node.Ref, len(bs))
	for i, b := range bs {
		refs[i] = b.Ref()
	}
	return m.Kernel().CanonicalSignature(refs)
}
