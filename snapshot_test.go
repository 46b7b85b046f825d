package bfbdd_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"strings"
	"testing"

	"bfbdd"
	"bfbdd/internal/snapshot"
)

// dotOf renders b deterministically; with WriteDOT's stable ordering this
// is a canonical structural fingerprint.
func dotOf(t *testing.T, b *bfbdd.BDD) string {
	t.Helper()
	var sb strings.Builder
	if err := bfbdd.WriteDOT(&sb, nil, b); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	return sb.String()
}

func randAssign(rng *rand.Rand, n int) []bool {
	a := make([]bool, n)
	for i := range a {
		a[i] = rng.Intn(2) == 0
	}
	return a
}

// TestSnapshotRoundTripProperty builds random circuits under several
// engines, snapshots them, restores them (under a different engine than
// they were built with), and checks Eval, SatCount, Size, Support, and
// full structural equality against the originals. It also checks the
// compaction-on-load guarantee (restored live nodes never exceed the
// source's) and write determinism (re-snapshotting the restored manager
// reproduces the original bytes).
func TestSnapshotRoundTripProperty(t *testing.T) {
	const vars = 12
	engines := []struct {
		name    string
		opts    []bfbdd.Option
		restore []bfbdd.Option
	}{
		{"pbf->df", nil, []bfbdd.Option{bfbdd.WithEngine(bfbdd.EngineDF)}},
		{"df->pbf", []bfbdd.Option{bfbdd.WithEngine(bfbdd.EngineDF)}, nil},
		{"par->pbf", []bfbdd.Option{bfbdd.WithEngine(bfbdd.EnginePar), bfbdd.WithWorkers(3)}, nil},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				m := bfbdd.New(vars, eng.opts...)
				roots := make([]*bfbdd.BDD, 3)
				for i := range roots {
					f := m.Var(rng.Intn(vars))
					for j := 0; j < 10; j++ {
						g := m.Var(rng.Intn(vars))
						switch rng.Intn(4) {
						case 0:
							f = f.And(g)
						case 1:
							f = f.Or(g.Not())
						case 2:
							f = f.Xor(g)
						default:
							f = f.Implies(g)
						}
					}
					roots[i] = f
				}

				var buf bytes.Buffer
				if err := m.Snapshot(&buf, roots...); err != nil {
					t.Fatalf("seed %d: Snapshot: %v", seed, err)
				}
				saved := append([]byte(nil), buf.Bytes()...)
				preNodes := m.NumNodes()

				m2, restored, err := bfbdd.RestoreManager(bytes.NewReader(saved), eng.restore...)
				if err != nil {
					t.Fatalf("seed %d: RestoreManager: %v", seed, err)
				}
				if len(restored) != len(roots) {
					t.Fatalf("seed %d: restored %d roots, want %d", seed, len(restored), len(roots))
				}
				if m2.NumVars() != vars {
					t.Fatalf("seed %d: restored NumVars = %d, want %d", seed, m2.NumVars(), vars)
				}
				if m2.NumNodes() > preNodes {
					t.Errorf("seed %d: restore grew the node space: %d > %d", seed, m2.NumNodes(), preNodes)
				}
				for i, rr := range restored {
					orig := roots[i]
					if rr.ID != uint64(i) {
						t.Fatalf("seed %d root %d: ID = %d", seed, i, rr.ID)
					}
					if got, want := rr.B.Size(), orig.Size(); got != want {
						t.Errorf("seed %d root %d: Size = %d, want %d", seed, i, got, want)
					}
					if got, want := rr.B.SatCount(), orig.SatCount(); got.Cmp(want) != 0 {
						t.Errorf("seed %d root %d: SatCount = %v, want %v", seed, i, got, want)
					}
					if got, want := rr.B.Support(), orig.Support(); len(got) != len(want) {
						t.Errorf("seed %d root %d: Support = %v, want %v", seed, i, got, want)
					}
					for trial := 0; trial < 32; trial++ {
						a := randAssign(rng, vars)
						if rr.B.Eval(a) != orig.Eval(a) {
							t.Fatalf("seed %d root %d: Eval(%v) disagrees after restore", seed, i, a)
						}
					}
					if got, want := dotOf(t, rr.B), dotOf(t, orig); got != want {
						t.Errorf("seed %d root %d: structure differs after restore\ngot:\n%s\nwant:\n%s", seed, i, got, want)
					}
				}

				// Determinism: the restored manager holds exactly the saved
				// subgraph in the saved order, so re-snapshotting it must
				// reproduce the stream byte for byte.
				var buf2 bytes.Buffer
				rr2 := make([]*bfbdd.BDD, len(restored))
				for i, rr := range restored {
					rr2[i] = rr.B
				}
				if err := m2.Snapshot(&buf2, rr2...); err != nil {
					t.Fatalf("seed %d: re-Snapshot: %v", seed, err)
				}
				if !bytes.Equal(saved, buf2.Bytes()) {
					t.Errorf("seed %d: re-snapshot of restored manager is not byte-identical (%d vs %d bytes)",
						seed, len(saved), buf2.Len())
				}
				m.Close()
				m2.Close()
			}
		})
	}
}

// TestSnapshotRawRefsRoundTrip checks that the non-delta encoding decodes
// to the same structures.
func TestSnapshotRawRefsRoundTrip(t *testing.T) {
	m := bfbdd.New(8)
	defer m.Close()
	f := m.Var(0).Xor(m.Var(3)).Or(m.Var(5).And(m.Var(7).Not()))

	var delta, raw bytes.Buffer
	if err := m.SnapshotRoots(&delta, []bfbdd.SnapshotRoot{{ID: 42, B: f}}); err != nil {
		t.Fatalf("delta snapshot: %v", err)
	}
	if err := m.SnapshotRoots(&raw, []bfbdd.SnapshotRoot{{ID: 42, B: f}}, bfbdd.SnapshotRawRefs()); err != nil {
		t.Fatalf("raw snapshot: %v", err)
	}
	if bytes.Equal(delta.Bytes(), raw.Bytes()) {
		t.Fatalf("raw and delta encodings are identical; flag is not taking effect")
	}
	for name, stream := range map[string][]byte{"delta": delta.Bytes(), "raw": raw.Bytes()} {
		m2, roots, err := bfbdd.RestoreManager(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s restore: %v", name, err)
		}
		if len(roots) != 1 || roots[0].ID != 42 {
			t.Fatalf("%s restore: roots = %+v", name, roots)
		}
		if got, want := dotOf(t, roots[0].B), dotOf(t, f); got != want {
			t.Errorf("%s restore: structure differs", name)
		}
		m2.Close()
	}
}

// TestSnapshotTerminalAndEmptyRoots covers the degenerate shapes: no
// roots at all, and constant-only roots.
func TestSnapshotTerminalAndEmptyRoots(t *testing.T) {
	m := bfbdd.New(4)
	defer m.Close()

	var buf bytes.Buffer
	if err := m.SnapshotRoots(&buf, nil); err != nil {
		t.Fatalf("empty snapshot: %v", err)
	}
	m2, roots, err := bfbdd.RestoreManager(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("empty restore: %v", err)
	}
	if len(roots) != 0 || m2.NumVars() != 4 || m2.NumNodes() != 0 {
		t.Fatalf("empty restore: roots=%d vars=%d nodes=%d", len(roots), m2.NumVars(), m2.NumNodes())
	}
	m2.Close()

	buf.Reset()
	if err := m.Snapshot(&buf, m.Zero(), m.One()); err != nil {
		t.Fatalf("terminal snapshot: %v", err)
	}
	m3, roots, err := bfbdd.RestoreManager(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("terminal restore: %v", err)
	}
	defer m3.Close()
	if len(roots) != 2 || !roots[0].B.IsZero() || !roots[1].B.IsOne() {
		t.Fatalf("terminal restore mismatched: %+v", roots)
	}
}

// TestSnapshotPreservesVariableOrder reorders variables before saving and
// checks the restored manager speaks the same variable indexing.
func TestSnapshotPreservesVariableOrder(t *testing.T) {
	m := bfbdd.New(6)
	defer m.Close()
	f := m.Var(0).And(m.Var(3)).Or(m.Var(5).Xor(m.Var(1)))
	m.SetOrder([]int{5, 4, 3, 2, 1, 0}) // reverse the order

	var buf bytes.Buffer
	if err := m.Snapshot(&buf, f); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	m2, roots, err := bfbdd.RestoreManager(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("RestoreManager: %v", err)
	}
	defer m2.Close()
	if got, want := m2.Order(), m.Order(); len(got) != len(want) {
		t.Fatalf("Order length mismatch")
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("restored Order = %v, want %v", got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 64; trial++ {
		a := randAssign(rng, 6)
		if roots[0].B.Eval(a) != f.Eval(a) {
			t.Fatalf("Eval(%v) differs after reorder+restore", a)
		}
	}
}

// TestSnapshotDropsDeadNodes checks compaction-on-load: garbage that is
// unreachable from the saved roots never crosses the snapshot boundary.
func TestSnapshotDropsDeadNodes(t *testing.T) {
	m := bfbdd.New(16, bfbdd.WithGCMinNodes(1<<30)) // suppress auto-GC
	defer m.Close()
	keep := m.Var(0).And(m.Var(1)).Or(m.Var(2))
	// Manufacture a pile of garbage the manager still stores.
	for i := 0; i < 10; i++ {
		g := m.Var(i).Xor(m.Var(15 - i)).And(m.Var((i + 3) % 16))
		g.Free()
	}
	keepSize := uint64(keep.Size())
	if m.NumNodes() <= keepSize {
		t.Fatalf("test needs garbage: live=%d keep=%d", m.NumNodes(), keepSize)
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf, keep); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	m2, _, err := bfbdd.RestoreManager(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("RestoreManager: %v", err)
	}
	defer m2.Close()
	if m2.NumNodes() != keepSize {
		t.Fatalf("restored nodes = %d, want exactly the %d reachable ones", m2.NumNodes(), keepSize)
	}
}

// resealHeader recomputes the header checksum over bytes [0,28) and
// stores it at [28,32), so tests can patch header fields without
// tripping the CRC check first.
func resealHeader(b []byte) {
	binary.LittleEndian.PutUint32(b[28:32], crc32.ChecksumIEEE(b[:28]))
}

// validStream builds one well-formed snapshot to corrupt in the tests
// below.
func validStream(t *testing.T) []byte {
	t.Helper()
	m := bfbdd.New(10)
	defer m.Close()
	f := m.Var(0).And(m.Var(4)).Xor(m.Var(9).Or(m.Var(2)))
	g := f.Not().Implies(m.Var(7))
	var buf bytes.Buffer
	if err := m.Snapshot(&buf, f, g); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestRestoreTruncated checks that every proper prefix of a valid stream
// fails with ErrTruncated and never panics.
func TestRestoreTruncated(t *testing.T) {
	stream := validStream(t)
	for n := 0; n < len(stream); n++ {
		m, _, err := bfbdd.RestoreManager(bytes.NewReader(stream[:n]))
		if err == nil {
			m.Close()
			t.Fatalf("prefix of %d/%d bytes restored successfully", n, len(stream))
		}
		if !errors.Is(err, snapshot.ErrTruncated) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrTruncated", n, err)
		}
	}
}

// TestRestoreCorrupted flips every byte of a valid stream in turn; each
// mutation must either fail with a typed error or (if it happens to be
// semantically neutral, which CRC coverage makes effectively impossible)
// restore something evaluable. Panics fail the test by crashing it.
func TestRestoreCorrupted(t *testing.T) {
	stream := validStream(t)
	typed := []error{
		snapshot.ErrBadMagic, snapshot.ErrVersion, snapshot.ErrChecksum,
		snapshot.ErrTruncated, snapshot.ErrCorrupt, snapshot.ErrTooLarge,
	}
	for i := 0; i < len(stream); i++ {
		mut := append([]byte(nil), stream...)
		mut[i] ^= 0x41
		m, _, err := bfbdd.RestoreManager(bytes.NewReader(mut))
		if err == nil {
			m.Close()
			continue
		}
		ok := false
		for _, te := range typed {
			if errors.Is(err, te) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("flip at byte %d: untyped error %v", i, err)
		}
	}
}

// TestRestoreHostileRootCount patches the header's root count to the
// uint32 ceiling (re-sealing the header CRC, which any attacker can do)
// and checks the reader rejects the claim against the actual roots
// payload instead of allocating ~4 billion Root slots up front.
func TestRestoreHostileRootCount(t *testing.T) {
	for _, stream := range [][]byte{
		validStream(t),
		func() []byte { // degenerate stream: zero nodes, zero roots
			m := bfbdd.New(4)
			defer m.Close()
			var buf bytes.Buffer
			if err := m.SnapshotRoots(&buf, nil); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			return buf.Bytes()
		}(),
	} {
		mut := append([]byte(nil), stream...)
		binary.LittleEndian.PutUint32(mut[16:20], 0xFFFFFFFF)
		resealHeader(mut)
		m, _, err := bfbdd.RestoreManager(bytes.NewReader(mut))
		if err == nil {
			m.Close()
			t.Fatalf("hostile root count restored successfully")
		}
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("hostile root count: err = %v, want ErrCorrupt", err)
		}
	}
}

// TestRestoreTypedErrors runs the codec's hostile-input table for this
// format (written by the levelfmt tests) through RestoreManager, which
// must keep every typed error visible through its wrapping.
func TestRestoreTypedErrors(t *testing.T) {
	b, err := os.ReadFile("internal/levelfmt/testdata/hostile-" + snapshot.Magic + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var vectors []struct {
		Name, Want string
		Data       []byte
	}
	if err := json.Unmarshal(b, &vectors); err != nil {
		t.Fatal(err)
	}
	for _, v := range vectors {
		t.Run(v.Name, func(t *testing.T) {
			m, _, err := bfbdd.RestoreManager(bytes.NewReader(v.Data))
			if v.Want == "" {
				if err != nil {
					t.Fatalf("valid stream rejected: %v", err)
				}
				m.Close()
				return
			}
			for _, te := range []error{snapshot.ErrBadMagic, snapshot.ErrVersion, snapshot.ErrChecksum,
				snapshot.ErrTruncated, snapshot.ErrCorrupt, snapshot.ErrTooLarge} {
				if errors.Is(err, te) && te.Error() == v.Want {
					return
				}
			}
			t.Fatalf("error %v, want %q", err, v.Want)
		})
	}
}
