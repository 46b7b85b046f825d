package levelfmt_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"bfbdd/internal/levelfmt"
)

// The real formats' magics and directions, which is all the hostile
// table depends on.
var (
	snapshotFormat = levelfmt.Format{Magic: "BFBDSNAP", Descending: true}
	compiledFormat = levelfmt.Format{Magic: "BFBDFUNC"}
)

// formats pairs both magics with both directions: the codec treats them
// as independent parameters.
func formats() []levelfmt.Format {
	var fs []levelfmt.Format
	for _, magic := range []string{snapshotFormat.Magic, compiledFormat.Magic} {
		for _, desc := range []bool{true, false} {
			fs = append(fs, levelfmt.Format{Magic: magic, Descending: desc, MaxNodes: 1 << 31})
		}
	}
	return fs
}

func name(f levelfmt.Format) string {
	if f.Descending {
		return f.Magic + "/descending"
	}
	return f.Magic + "/ascending"
}

// Section kinds, as the layout fixes them.
const (
	secVarOrder = 1
	secLevel    = 2
	secRoots    = 3
	secEnd      = 4
)

// stream hand-assembles a byte stream, independently of the encoder,
// straight from the layout in the package doc.
type stream struct {
	magic string
	buf   bytes.Buffer
}

func (s *stream) versionHeader(version, flags uint16, numVars, numRoots int, totalNodes uint64) *stream {
	b := make([]byte, levelfmt.HeaderSize)
	copy(b, s.magic)
	binary.LittleEndian.PutUint16(b[8:], version)
	binary.LittleEndian.PutUint16(b[10:], flags)
	binary.LittleEndian.PutUint32(b[12:], uint32(numVars))
	binary.LittleEndian.PutUint32(b[16:], uint32(numRoots))
	binary.LittleEndian.PutUint64(b[20:], totalNodes)
	binary.LittleEndian.PutUint32(b[28:], crc32.ChecksumIEEE(b[:28]))
	s.buf.Write(b)
	return s
}

func (s *stream) header(flags uint16, numVars, numRoots int, totalNodes uint64) *stream {
	return s.versionHeader(levelfmt.Version, flags, numVars, numRoots, totalNodes)
}

func (s *stream) section(kind byte, payload []byte) *stream {
	s.buf.WriteByte(kind)
	s.buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))))
	s.buf.Write(payload)
	s.buf.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload)))
	return s
}

func (s *stream) raw(b ...byte) *stream {
	s.buf.Write(b)
	return s
}

func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func identity(n int) []byte {
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = uint64(i)
	}
	return uvarints(vs...)
}

// valid returns a minimal well-formed stream for f: two variables, two
// one-node segments in f's direction, one root at the top node.
func valid(f levelfmt.Format) []byte {
	// The top node's low child is the deep node, one step away.
	top, deep := uvarints(0, 1, 2, 1), uvarints(1, 1, 0, 1)
	first, second, root := top, deep, uint64(0)
	if f.Descending {
		first, second, root = deep, top, 1
	}
	return (&stream{magic: f.Magic}).header(levelfmt.FlagDeltaRefs, 2, 1, 2).
		section(secVarOrder, identity(2)).
		section(secLevel, first).
		section(secLevel, second).
		section(secRoots, uvarints(9, 2+root)).
		section(secEnd, nil).buf.Bytes()
}

// vector is one entry of the hostile-input table: a stream and the
// message of the typed error it must fail with ("" for the valid
// stream that leads the table).
type vector struct {
	Name string `json:"name"`
	Want string `json:"want"`
	Data []byte `json:"data"`
}

// hostile returns the hostile-input table for f. Cases whose meaning
// depends on the direction build their segments from it.
func hostile(f levelfmt.Format) []vector {
	st := func() *stream { return &stream{magic: f.Magic} }
	const delta = levelfmt.FlagDeltaRefs
	// Two segments of one terminal-only node each, in stream order.
	twoSegs := func(first, second uint64) []byte {
		return st().header(delta, 3, 1, 2).section(secVarOrder, identity(3)).
			section(secLevel, uvarints(first, 1, 0, 1)).
			section(secLevel, uvarints(second, 1, 0, 1)).buf.Bytes()
	}
	wrongOrder, wrongLevels := "descending levels", twoSegs(1, 0)
	// Node 0 refers to node 1 (delta 1) in its own segment.
	sameSeg := uvarints(0, 2, 2, 1, 0, 1)
	// The second segment's node refers back to the first's: raw node 0.
	againstDir := "backward child"
	against := [2][]byte{uvarints(0, 1, 0, 1), uvarints(1, 1, 2+0, 1)}
	if f.Descending {
		wrongOrder, wrongLevels = "ascending levels", twoSegs(0, 1)
		sameSeg = uvarints(0, 2, 0, 1, 2, 1)
		// The first segment's node refers ahead to the second's: raw node 1.
		againstDir = "forward child"
		against = [2][]byte{uvarints(1, 1, 2+1, 1), uvarints(0, 1, 0, 1)}
	}
	ok := valid(f)
	flipped := func(i int) []byte {
		b := append([]byte(nil), ok...)
		b[i] ^= 0x40
		return b
	}
	var (
		truncated = levelfmt.ErrTruncated.Error()
		corrupt   = levelfmt.ErrCorrupt.Error()
	)
	vs := []vector{
		{"valid", "", ok},
		{"empty", truncated, nil},
		{"bad magic", levelfmt.ErrBadMagic.Error(), []byte("NOTMAGIC________________________")},
		{"header only", truncated, st().header(delta, 2, 0, 0).buf.Bytes()},
		{"bad-version", levelfmt.ErrVersion.Error(), st().versionHeader(99, delta, 2, 0, 0).buf.Bytes()},
		{"bad-flags", levelfmt.ErrVersion.Error(), st().header(0xFE, 2, 0, 0).buf.Bytes()},
		{"header checksum", levelfmt.ErrChecksum.Error(), flipped(12)},
		{"payload-bit-rot", levelfmt.ErrChecksum.Error(), flipped(levelfmt.HeaderSize + 5)},
		{"huge totalNodes", levelfmt.ErrTooLarge.Error(), st().header(delta, 1, 0, 1<<62).buf.Bytes()},
		{"section too long", corrupt, st().header(delta, 1, 0, 0).raw(secVarOrder, 0xFF, 0xFF, 0xFF, 0x7F).buf.Bytes()},
		// 512 MiB claimed, one byte present: read in bounded chunks.
		{"section cut short", truncated, st().header(delta, 1, 0, 0).raw(secVarOrder, 0, 0, 0, 0x20, 0).buf.Bytes()},
		{"bad varorder", corrupt, st().header(delta, 2, 0, 0).
			section(secVarOrder, uvarints(0, 0)).buf.Bytes()},
		{"varorder out of range", corrupt, st().header(delta, 2, 0, 0).
			section(secVarOrder, uvarints(0, 2)).buf.Bytes()},
		{"trailing varorder bytes", corrupt, st().header(delta, 2, 0, 0).
			section(secVarOrder, uvarints(0, 1, 9)).buf.Bytes()},
		{"varorder missing", corrupt, st().header(delta, 1, 0, 0).
			section(secRoots, nil).buf.Bytes()},
		{wrongOrder, corrupt, wrongLevels},
		{"repeated level", corrupt, twoSegs(0, 0)},
		{"level past numvars", corrupt, st().header(delta, 2, 0, 1).
			section(secVarOrder, identity(2)).
			section(secLevel, uvarints(5, 1, 0, 1)).buf.Bytes()},
		{"zero count", corrupt, st().header(delta, 2, 0, 0).
			section(secVarOrder, identity(2)).
			section(secLevel, uvarints(0, 0)).buf.Bytes()},
		{"count exceeds payload", corrupt, st().header(delta, 2, 0, 1000).
			section(secVarOrder, identity(2)).
			section(secLevel, uvarints(0, 1000, 0, 1)).buf.Bytes()},
		{"count exceeds header total", corrupt, st().header(delta, 2, 0, 1).
			section(secVarOrder, identity(2)).
			section(secLevel, uvarints(0, 2, 0, 1, 0, 1)).buf.Bytes()},
		{"bad varint", corrupt, st().header(delta, 2, 0, 1).
			section(secVarOrder, identity(2)).
			section(secLevel, []byte{0, 1, 0x80, 0x80}).buf.Bytes()},
		{"trailing segment bytes", corrupt, st().header(delta, 2, 0, 1).
			section(secVarOrder, identity(2)).
			section(secLevel, uvarints(0, 1, 0, 1, 9)).buf.Bytes()},
		{"same-segment child", corrupt, st().header(delta, 2, 1, 2).
			section(secVarOrder, identity(2)).
			section(secLevel, sameSeg).buf.Bytes()},
		{againstDir, corrupt, st().header(0, 2, 1, 2).
			section(secVarOrder, identity(2)).
			section(secLevel, against[0]).
			section(secLevel, against[1]).buf.Bytes()},
		// A delta near 2^64 would wrap back into range if added blindly.
		{"wrapping delta", corrupt, st().header(delta, 2, 1, 2).
			section(secVarOrder, identity(2)).
			section(secLevel, append(uvarints(0, 1), uvarints(^uint64(0), 1)...)).buf.Bytes()},
		{"raw child out of range", corrupt, st().header(0, 2, 1, 1).
			section(secVarOrder, identity(2)).
			section(secLevel, uvarints(0, 1, 2+5, 1)).buf.Bytes()},
		{"root out of range", corrupt, st().header(delta, 1, 1, 1).
			section(secVarOrder, identity(1)).
			section(secLevel, uvarints(0, 1, 0, 1)).
			section(secRoots, uvarints(0, 2+7)).buf.Bytes()},
		{"roots before total reached", corrupt, st().header(delta, 1, 0, 5).
			section(secVarOrder, identity(1)).
			section(secRoots, nil).buf.Bytes()},
		{"hostile root count", corrupt, st().header(delta, 1, 1<<20, 0).
			section(secVarOrder, identity(1)).
			section(secRoots, uvarints(0, 0)).buf.Bytes()},
		{"trailing roots bytes", corrupt, st().header(delta, 1, 0, 0).
			section(secVarOrder, identity(1)).
			section(secRoots, uvarints(0, 0)).buf.Bytes()},
		{"missing end", truncated, st().header(delta, 1, 0, 0).
			section(secVarOrder, identity(1)).
			section(secRoots, nil).buf.Bytes()},
		{"end with payload", corrupt, st().header(delta, 1, 0, 0).
			section(secVarOrder, identity(1)).
			section(secRoots, nil).
			section(secEnd, []byte{0}).buf.Bytes()},
		{"unknown section", corrupt, st().header(delta, 1, 0, 0).
			section(secVarOrder, identity(1)).
			section(99, nil).buf.Bytes()},
	}
	// A valid stream under another format's magic.
	for _, other := range []struct{ name, magic string }{{"snapshot", snapshotFormat.Magic}, {"compiled", compiledFormat.Magic}} {
		if other.magic != f.Magic {
			vs = append(vs, vector{other.name + " magic", levelfmt.ErrBadMagic.Error(), append([]byte(other.magic), ok[8:]...)})
		}
	}
	return vs
}

type decoded struct {
	var2level []int
	nodes     [][3]uint64 // level, lo, hi
	roots     []levelfmt.Root
	levels    []levelfmt.LevelInfo
}

func decodeAll(f levelfmt.Format, b []byte) (*decoded, error) {
	d, err := f.NewDecoder(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	out := &decoded{var2level: d.Var2Level}
	out.roots, err = d.Decode(func(level int, lo, hi uint64) {
		out.nodes = append(out.nodes, [3]uint64{uint64(level), lo, hi})
	})
	out.levels = d.Levels
	return out, err
}

// checkVector requires err to match v: nil for the valid stream, else
// wrapping the typed error named by v.Want.
func checkVector(t *testing.T, v vector, err error) {
	t.Helper()
	if v.Want == "" {
		if err != nil {
			t.Fatalf("valid stream rejected: %v", err)
		}
		return
	}
	if err == nil {
		t.Fatalf("decoded hostile stream")
	}
	if te := typedAs(err); te == nil || te.Error() != v.Want {
		t.Fatalf("error %v, want %q", err, v.Want)
	}
}

// typedAs returns the typed error err wraps, or nil.
func typedAs(err error) error {
	for _, te := range []error{levelfmt.ErrBadMagic, levelfmt.ErrVersion, levelfmt.ErrChecksum,
		levelfmt.ErrTruncated, levelfmt.ErrCorrupt, levelfmt.ErrTooLarge} {
		if errors.Is(err, te) {
			return te
		}
	}
	return nil
}

// TestHostile runs the hostile-input table against the decoder under
// both magics and both directions. No case may allocate in proportion to
// a length or count it claims: each stays under 1 MiB.
func TestHostile(t *testing.T) {
	for _, f := range formats() {
		for _, v := range hostile(f) {
			t.Run(name(f)+"/"+v.Name, func(t *testing.T) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := decodeAll(f, v.Data)
				runtime.ReadMemStats(&after)
				checkVector(t, v, err)
				if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
					t.Fatalf("decode allocated %d bytes", n)
				}
			})
		}
	}
}

// TestHostileVectors keeps testdata/hostile-<magic>.json equal to the
// table for the two real formats. The snapshot and compiled packages run
// those files through their own decode paths, so every consumer is held
// to this one table. Regenerate with UPDATE_GOLDEN=1.
func TestHostileVectors(t *testing.T) {
	for _, f := range []levelfmt.Format{snapshotFormat, compiledFormat} {
		got, err := json.MarshalIndent(hostile(f), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		path := filepath.Join("testdata", "hostile-"+f.Magic+".json")
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read vectors (regenerate with UPDATE_GOLDEN=1): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s is stale; regenerate with UPDATE_GOLDEN=1", path)
		}
	}
}

// randomGraph returns a valid node list in f's stream order: segments at
// levels 0, 1 and 3 of five (levels 2 and 4 empty), children drawn from
// the terminals and the direction's legal range, and roots with IDs of
// several varint widths.
func randomGraph(f levelfmt.Format, rng *rand.Rand) *decoded {
	g := &decoded{var2level: []int{2, 0, 4, 1, 3}}
	levels := []int{0, 1, 3}
	if f.Descending {
		levels = []int{3, 1, 0}
	}
	counts := []uint64{3, 5, 4}
	const total = 3 + 5 + 4
	var n uint64
	for i, lvl := range levels {
		start, end := n, n+counts[i]
		lo, hi := end, uint64(total)
		if f.Descending {
			lo, hi = 0, start
		}
		pick := func() uint64 {
			switch k := uint64(rng.Intn(int(hi-lo) + 2)); {
			case k < hi-lo:
				return lo + k
			case k == hi-lo:
				return levelfmt.Zero
			default:
				return levelfmt.One
			}
		}
		for ; n < end; n++ {
			g.nodes = append(g.nodes, [3]uint64{uint64(lvl), pick(), pick()})
		}
		g.levels = append(g.levels, levelfmt.LevelInfo{Level: lvl, Count: counts[i]})
	}
	for _, id := range []uint64{0, 300, 1 << 40} {
		g.roots = append(g.roots, levelfmt.Root{ID: id, Node: uint64(rng.Intn(total))})
	}
	g.roots = append(g.roots, levelfmt.Root{ID: 7, Node: levelfmt.Zero}, levelfmt.Root{ID: 8, Node: levelfmt.One})
	return g
}

func encode(t *testing.T, f levelfmt.Format, g *decoded, raw bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := f.NewEncoder(&buf, g.var2level, len(g.roots), uint64(len(g.nodes)), raw)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	for _, nd := range g.nodes {
		enc.Node(int(nd[0]), nd[1], nd[2])
	}
	if err := enc.Finish(g.roots); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return buf.Bytes()
}

// TestRoundTrip encodes random graphs in every format and both child
// encodings and requires the decoder to return them unchanged. Every
// proper prefix of a stream must fail with ErrTruncated, and every
// single-byte flip must fail typed or decode; a panic crashes the test.
func TestRoundTrip(t *testing.T) {
	for _, f := range formats() {
		for _, raw := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/raw=%v", name(f), raw), func(t *testing.T) {
				rng := rand.New(rand.NewSource(1))
				for trial := 0; trial < 20; trial++ {
					g := randomGraph(f, rng)
					data := encode(t, f, g, raw)
					got, err := decodeAll(f, data)
					if err != nil {
						t.Fatalf("trial %d: decode: %v", trial, err)
					}
					for i := range got.levels {
						got.levels[i].Bytes = 0
					}
					if !reflect.DeepEqual(got, g) {
						t.Fatalf("trial %d: decoded %+v, want %+v", trial, got, g)
					}
					if trial > 0 {
						continue
					}
					for n := range data {
						if _, err := decodeAll(f, data[:n]); !errors.Is(err, levelfmt.ErrTruncated) {
							t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrTruncated", n, len(data), err)
						}
						mut := append([]byte(nil), data...)
						mut[n] ^= 0x41
						if _, err := decodeAll(f, mut); err != nil && typedAs(err) == nil {
							t.Fatalf("flip at byte %d: untyped error %v", n, err)
						}
					}
				}
			})
		}
	}
}

// TestEncoderTooLarge checks the format's node bound on the write side.
func TestEncoderTooLarge(t *testing.T) {
	f := levelfmt.Format{Magic: compiledFormat.Magic, MaxNodes: 10}
	var buf bytes.Buffer
	if _, err := f.NewEncoder(&buf, []int{0}, 0, 11, false); !errors.Is(err, levelfmt.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected encoder wrote %d bytes", buf.Len())
	}
}
