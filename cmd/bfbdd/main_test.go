package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bfbdd"
	"bfbdd/internal/netlist"
	"bfbdd/internal/trace"
	"bfbdd/internal/wal"
)

// golden is the repository's fixture directory, relative to this package.
const golden = "../../testdata/golden/"

// genInputs writes every input the verb table runs on besides the golden
// fixtures into dir:
//
//	wal/          two sessions: s-a spans three segments and journals
//	              every record kind; s-b (epoch 2) ends with a close
//	              record and a torn tail on its newest segment
//	wal-bad/      s-a again, with its first segment's header flipped
//	snap-bad.bin  snapshot-delta.bin with a byte in the middle flipped
//	id.snap       a 3-variable snapshot in identity order
//	traces.json   two valid exported traces, concatenated
//	bad.json      a trace whose span ids are not dense
//	empty.json    no traces at all
//	adder-8-fault.bench
//	              the built-in adder-8 with one gate stuck at 0
func genInputs(t testing.TB, dir string) {
	t.Helper()
	faulty, _, err := netlist.InjectFault(netlist.RippleAdder(8), netlist.FaultStuckAt0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var bench bytes.Buffer
	if err := netlist.Write(&bench, faulty); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "adder-8-fault.bench"), bench.Bytes())

	writeSession(t, filepath.Join(dir, "wal"), "s-a", 0, [][]wal.Record{
		{
			wal.CreateRec{Options: []byte(`{"vars":4,"engine":"par","workers":2}`)},
			wal.VarRec{Index: 0, Handle: 1},
			wal.VarRec{Index: 1, Handle: 2},
			wal.VarRec{Index: 2, Negated: true, Handle: 3},
			wal.ConstRec{Value: true, Handle: 4},
			wal.ApplyRec{Op: 0, F: 1, G: 2, Handle: 5},
		},
		{
			wal.BatchRec{Ops: []wal.ApplyRec{{Op: 1, F: 5, G: 3, Handle: 6}, {Op: 2, F: 5, G: 4, Handle: 7}}},
			wal.ITERec{F: 1, G: 2, H: 3, Handle: 8},
			wal.NotRec{F: 8, Handle: 9},
			wal.QuantifyRec{F: 7, Vars: []int{0, 2}, Handle: 10},
			wal.RestrictRec{F: 7, Var: 1, Value: true, Handle: 11},
			wal.ComposeRec{F: 8, G: 9, Var: 2, Handle: 12},
		},
		{
			wal.FreeRec{Handles: []uint64{4, 6}},
			wal.GCRec{},
			wal.SnapshotRec{},
			wal.PublishRec{Name: "f", Handles: []uint64{12}},
			wal.QuantifyRec{Forall: true, F: 12, Vars: []int{3}, Handle: 13},
		},
	})
	writeSession(t, filepath.Join(dir, "wal"), "s-b", 2, [][]wal.Record{{
		wal.CreateRec{Options: []byte(`{"vars":2}`)},
		wal.VarRec{Index: 1, Handle: 1},
		wal.CloseRec{},
	}})
	segs, err := wal.ListSegments(filepath.Join(dir, "wal"), "s-b")
	if err != nil || len(segs) == 0 {
		t.Fatalf("list s-b segments: %v", err)
	}
	appendFile(t, segs[len(segs)-1].Path, []byte{0x2a, 0, 0, 0, 1, 2, 3})

	writeSession(t, filepath.Join(dir, "wal-bad"), "s-a", 0, [][]wal.Record{
		{wal.CreateRec{Options: []byte(`{"vars":2}`)}, wal.VarRec{Index: 0, Handle: 1}},
		{wal.VarRec{Index: 1, Handle: 2}},
	})
	if segs, err = wal.ListSegments(filepath.Join(dir, "wal-bad"), "s-a"); err != nil || len(segs) != 2 {
		t.Fatalf("list wal-bad segments: %v (%d)", err, len(segs))
	}
	flipByte(t, segs[0].Path, func(n int) int { return 10 })

	copyFile(t, golden+"snapshot-delta.bin", filepath.Join(dir, "snap-bad.bin"))
	flipByte(t, filepath.Join(dir, "snap-bad.bin"), func(n int) int { return n / 2 })

	m := bfbdd.New(3)
	defer m.Close()
	var snap bytes.Buffer
	if err := m.Snapshot(&snap, m.Var(0).And(m.Var(1)), m.Var(2)); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "id.snap"), snap.Bytes())

	var traces bytes.Buffer
	enc := json.NewEncoder(&traces)
	for _, ex := range []trace.Exported{
		{
			TraceID: trace.FormatTraceID(1), Root: "POST /v1/sessions/{sid}/apply",
			StartUnixNs: 1_000_000_000, DurationNs: 12_400_000,
			Spans: []trace.ExportedSpan{
				{Span: 1, Name: "POST /v1/sessions/{sid}/apply", StartUnixNs: 1_000_000_000, DurationNs: 12_400_000,
					Attrs: []trace.ExportedAttr{{Key: "status", Value: 200}}},
				{Span: 2, Parent: 1, Name: "queue-wait", StartUnixNs: 1_000_100_000, DurationNs: 2_100_000},
				{Span: 3, Parent: 1, Name: "batch", StartUnixNs: 1_002_200_000, DurationNs: 10_200_000,
					Attrs: []trace.ExportedAttr{{Key: "batch_id", Value: 7}, {Key: "ops", Value: 4}}},
				{Span: 4, Parent: 3, Name: "kernel-build", StartUnixNs: 1_002_300_000, DurationNs: 9_800_123,
					Attrs: []trace.ExportedAttr{{Key: "shannon_steps", Value: 51193}}},
				{Span: 5, Parent: 4, Name: "expand", StartUnixNs: 1_002_400_000, DurationNs: 1_200_000},
				{Span: 6, Parent: 4, Name: "reduce", StartUnixNs: 1_003_600_000, DurationNs: 8_000_000},
				{Span: 7, Parent: 3, Name: "wal-commit", StartUnixNs: 1_012_100_000, DurationNs: 250_000},
			},
		},
		{
			TraceID: trace.FormatTraceID(2), Root: "POST /v1/funcs/{id}/eval",
			StartUnixNs: 2_000_000_000, DurationNs: 380_000, Forced: true, DroppedSpans: 3,
			Spans: []trace.ExportedSpan{
				{Span: 1, Name: "POST /v1/funcs/{id}/eval", StartUnixNs: 2_000_000_000, DurationNs: 380_000},
				{Span: 2, Parent: 1, Name: "eval", StartUnixNs: 2_000_010_000, DurationNs: 16_000},
			},
		},
	} {
		if err := enc.Encode(ex); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(t, filepath.Join(dir, "traces.json"), traces.Bytes())
	writeFile(t, filepath.Join(dir, "bad.json"), []byte(`{"trace_id":"t-0000000000000003","root":"x","spans":[{"span":1,"name":"x"},{"span":3,"parent":1,"name":"y"}]}`))
	writeFile(t, filepath.Join(dir, "empty.json"), nil)
}

// writeSession journals one session, one segment per record group.
func writeSession(t testing.TB, dir, id string, epoch uint64, groups [][]wal.Record) {
	t.Helper()
	l, err := wal.Open(dir, id, 0, wal.Options{Policy: wal.SyncNone, Epoch: epoch}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		if i > 0 {
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Append(g...); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func writeFile(t testing.TB, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func copyFile(t testing.TB, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, to, b)
}

func appendFile(t testing.TB, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// flipByte inverts the byte at offset at(len) of the file.
func flipByte(t testing.TB, path string, at func(n int) int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[at(len(b))] ^= 0xFF
	writeFile(t, path, b)
}

// verbCases is every verb on the golden fixtures and the generated
// inputs. $TMP stands for the directory genInputs wrote. The cases run in
// order: the later func verbs read the artifact func build wrote.
var verbCases = []struct {
	name string
	args string
}{
	{"snap-info-delta", "snap info " + golden + "snapshot-delta.bin"},
	{"snap-info-raw", "snap info " + golden + "snapshot-raw.bin"},
	{"snap-info-identity", "snap info $TMP/id.snap"},
	{"snap-verify-delta", "snap verify " + golden + "snapshot-delta.bin"},
	{"snap-verify-raw", "snap verify " + golden + "snapshot-raw.bin"},
	{"snap-verify-corrupt", "snap verify $TMP/snap-bad.bin"},
	{"snap-verify-missing", "snap verify $TMP/no-such.snap"},
	{"snap-repack-raw", "snap repack -o $TMP/repacked.snap -raw " + golden + "snapshot-delta.bin"},
	{"snap-repack-delta", "snap repack -o $TMP/repacked2.snap $TMP/repacked.snap"},
	{"snap-verify-repacked", "snap verify $TMP/repacked2.snap"},
	{"snap-dot", "snap dot " + golden + "snapshot-delta.bin"},
	{"snap-dot-identity", "snap dot $TMP/id.snap"},
	{"func-info-delta", "func info " + golden + "compiled-delta.bin"},
	{"func-info-raw", "func info " + golden + "compiled-raw.bin"},
	{"func-build", "func build -o $TMP/all.fn " + golden + "snapshot-raw.bin"},
	{"func-build-raw", "func build -raw -o $TMP/id.fn $TMP/id.snap"},
	{"func-info-built", "func info $TMP/all.fn"},
	{"func-info-identity", "func info $TMP/id.fn"},
	{"func-eval", "func eval " + golden + "compiled-delta.bin 000000 111111 010110 101001"},
	{"func-eval-root", "func eval -root 7 " + golden + "compiled-raw.bin 000000 111111 010110 101001"},
	{"func-eval-built", "func eval -root 300 $TMP/all.fn 000000 111111 010110"},
	{"func-eval-badlen", "func eval " + golden + "compiled-delta.bin 0110"},
	{"func-eval-badbits", "func eval " + golden + "compiled-delta.bin 012010"},
	{"func-eval-noroot", "func eval -root 99 " + golden + "compiled-delta.bin 000000"},
	{"func-satcount", "func satcount " + golden + "compiled-delta.bin"},
	{"func-satcount-root", "func satcount -root 300 " + golden + "compiled-raw.bin"},
	{"func-satcount-one", "func satcount -root 1099511627776 " + golden + "compiled-raw.bin"},
	{"func-anysat", "func anysat " + golden + "compiled-delta.bin"},
	{"func-anysat-root", "func anysat -root 7 $TMP/all.fn"},
	{"func-anysat-unsat", "func anysat -root 1 " + golden + "compiled-delta.bin"},
	{"wal-info", "wal info $TMP/wal"},
	{"wal-info-session", "wal info $TMP/wal s-b"},
	{"wal-info-corrupt", "wal info $TMP/wal-bad"},
	{"wal-verify", "wal verify $TMP/wal"},
	{"wal-verify-checkpoint-dir", "wal verify $TMP s-a"},
	{"wal-verify-corrupt", "wal verify $TMP/wal-bad"},
	{"wal-replay", "wal replay $TMP/wal s-a"},
	{"wal-replay-closed", "wal replay $TMP/wal s-b"},
	{"wal-replay-corrupt", "wal replay $TMP/wal-bad s-a"},
	{"wal-export", "wal export $TMP/wal s-a"},
	{"wal-export-closed", "wal export $TMP/wal s-b"},
	{"trace", "trace $TMP/traces.json"},
	{"trace-quiet", "trace -q $TMP/traces.json $TMP/traces.json"},
	{"trace-invalid", "trace -q $TMP/traces.json $TMP/bad.json"},
	{"trace-empty", "trace $TMP/empty.json"},
	{"trace-missing", "trace $TMP/no-such.json"},
	{"circuit-sat", "circuit -circuit adder-4 -sat"},
	{"circuit-bench", "circuit -bench $TMP/adder-8-fault.bench -order interleave"},
	{"circuit-unknown-engine", "circuit -circuit adder-4 -engine nope"},
	{"circuit-unknown-order", "circuit -circuit adder-4 -order nope"},
	{"verify-equivalent", "verify -spec adder-16 -impl cla-16"},
	{"verify-fault", "verify -spec adder-8 -impl $TMP/adder-8-fault.bench -max-cex 2"},
	{"verify-missing-spec", "verify -impl cla-16"},
	{"verify-unknown-engine", "verify -spec adder-4 -impl cla-4 -engine nope"},
	{"verify-unknown-order", "verify -spec adder-4 -impl cla-4 -order nope"},
	{"verify-unknown-circuit", "verify -spec nope-4 -impl cla-4"},
	{"oracle", "oracle -seed 7 -seqs 20"},
	{"oracle-replay-missing", "oracle -replay $TMP/no-such.json"},
	{"oracle-bad-vars", "oracle -vars 99"},
}

// timedVerbs print wall-clock times, which TestVerbs masks.
var timedVerbs = map[string]bool{"circuit": true, "verify": true, "oracle": true}

// duration matches a Go time.Duration string such as 0s, 12ms or 1m2.5s.
var duration = regexp.MustCompile(`\b(\d+(\.\d+)?(ns|µs|us|ms|s|m|h))+\b`)

// TestVerbs runs every verb in-process and compares its exit status and
// stdout with testdata/<case>.golden, which holds "exit: N" and then the
// stdout of the seven single-purpose tools this command replaced, run on
// the same inputs. The corrupt cases pin the contract CI gates rely on:
// a one-line ok:false verdict and exit 1. Where the tools disagreed on
// exit codes, the goldens hold this command's: an unknown -engine or
// -order is a usage error (2), and a circuit or replay file that cannot
// be read is a failure (1).
func TestVerbs(t *testing.T) {
	tmp := t.TempDir()
	genInputs(t, tmp)
	for _, tc := range verbCases {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(strings.ReplaceAll(tc.args, "$TMP", tmp)), &stdout, &stderr)
		out := strings.ReplaceAll(stdout.String(), tmp, "$TMP")
		if timedVerbs[strings.Fields(tc.args)[0]] {
			out = duration.ReplaceAllString(out, "<dur>")
		}
		got := fmt.Sprintf("exit: %d\n%s", code, out)
		want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("bfbdd %s:\n--- got\n%s--- want\n%s--- stderr\n%s", tc.args, got, want, stderr.String())
		}
	}
}

// runTool runs one command line in-process.
func runTool(args ...string) (stdout, stderr string, code int) {
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return o.String(), e.String(), code
}

// TestRepackInPlace repacks a snapshot onto itself: the output is
// committed through internal/durable, so naming the input as -o must
// leave a whole, verifiable stream holding the same roots, and no
// temporary file behind.
func TestRepackInPlace(t *testing.T) {
	tmp := t.TempDir()
	path := filepath.Join(tmp, "s.snap")
	copyFile(t, golden+"snapshot-delta.bin", path)
	wantDot, _, _ := runTool("snap", "dot", path)

	if stdout, stderr, code := runTool("snap", "repack", "-raw", "-o", path, path); code != 0 {
		t.Fatalf("repack in place: exit %d\n%s%s", code, stdout, stderr)
	}
	if stdout, _, code := runTool("snap", "verify", path); code != 0 || !strings.HasPrefix(stdout, `{"ok":true`) {
		t.Fatalf("verify after in-place repack: exit %d, %s", code, stdout)
	}
	info, _, _ := runTool("snap", "info", path)
	if !strings.Contains(info, "child refs:  raw\n") {
		t.Errorf("in-place repack did not rewrite the stream:\n%s", info)
	}
	if gotDot, _, _ := runTool("snap", "dot", path); gotDot != wantDot {
		t.Errorf("roots changed by the in-place repack:\n--- got\n%s--- want\n%s", gotDot, wantDot)
	}
	if ents, _ := os.ReadDir(tmp); len(ents) != 1 {
		t.Errorf("repack left %d files in its directory, want only the output", len(ents))
	}
}

// TestUsageErrors checks the exit-code convention: a malformed command
// line exits 2 with the usage text on stderr and nothing on stdout.
func TestUsageErrors(t *testing.T) {
	snap, fn := golden+"snapshot-delta.bin", golden+"compiled-delta.bin"
	for _, args := range [][]string{
		{},
		{"nope"},
		{"snap"},
		{"snap", "nope"},
		{"snap", "info"},
		{"snap", "verify", snap, snap},
		{"snap", "repack", snap},
		{"snap", "repack", "-o"},
		{"func", "build", "-o", "x.fn"},
		{"func", "info"},
		{"func", "eval", fn},
		{"func", "satcount", "-bogus", fn},
		{"func", "anysat", "-root", "x", fn},
		{"wal", "info"},
		{"wal", "verify", "a", "b", "c"},
		{"wal", "replay", "dir"},
		{"wal", "export"},
		{"trace", "-x"},
		{"circuit"},
		{"circuit", "-circuit", "adder-4", "-bench", "a.bench"},
		{"circuit", "-circuit", "adder-4", "extra"},
		{"verify", "-spec", "adder-4"},
		{"verify", "-spec", "adder-4", "-impl", "cla-4", "-max-cex"},
		{"oracle", "-seqs", "0"},
		{"oracle", "-engines", "nope"},
	} {
		stdout, stderr, code := runTool(args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "usage:") {
			t.Errorf("bfbdd %s: exit %d, stdout %q, stderr %q; want exit 2 and the usage text",
				strings.Join(args, " "), code, stdout, stderr)
		}
	}
	if stdout, stderr, code := runTool("-h"); code != 0 || stdout != "" || !strings.Contains(stderr, "usage:") {
		t.Errorf("bfbdd -h: exit %d, stderr %q; want exit 0 and the usage text", code, stderr)
	}
}

// TestTraceStdin checks that trace reads stdin when given no files.
func TestTraceStdin(t *testing.T) {
	tmp := t.TempDir()
	genInputs(t, tmp)
	f, err := os.Open(filepath.Join(tmp, "traces.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdin = f
	defer func() { stdin = os.Stdin }()
	if stdout, stderr, code := runTool("trace", "-q"); code != 0 || stdout != "stdin: 2 trace(s) valid\n" {
		t.Errorf("trace -q on stdin: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestCircuitWriteRoundTrip re-reads a circuit that circuit -write
// emitted: the .bench file must build the same BDDs. Only the circuit's
// name and the names netlist.Write gives unnamed outputs differ.
func TestCircuitWriteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.bench")
	written, stderr, code := runTool("circuit", "-circuit", "adder-8", "-write", path)
	if code != 0 {
		t.Fatalf("circuit -write: exit %d\n%s", code, stderr)
	}
	reread, stderr, code := runTool("circuit", "-bench", path)
	if code != 0 {
		t.Fatalf("circuit -bench: exit %d\n%s", code, stderr)
	}
	want, got := circuitReport(t, written), circuitReport(t, reread)
	if len(got) != len(want) {
		t.Fatalf("circuit -bench printed %d lines, want %d:\n%s", len(got), len(want), reread)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

// circuitReport returns circuit's stdout lines without the wrote lines
// and the circuit name, with durations masked and each output line's
// name dropped.
func circuitReport(t *testing.T, stdout string) []string {
	t.Helper()
	var lines []string
	for _, l := range strings.Split(duration.ReplaceAllString(stdout, "<dur>"), "\n") {
		switch {
		case strings.HasPrefix(l, "wrote "):
			continue
		case strings.HasPrefix(l, "circuit "):
			_, l, _ = strings.Cut(l, ": ")
		case strings.HasPrefix(l, "  "):
			l = strings.Join(strings.Fields(l)[1:], " ")
		}
		lines = append(lines, l)
	}
	if len(lines) < 3 {
		t.Fatalf("short circuit report:\n%s", stdout)
	}
	return lines
}

// TestCircuitDOTEngines checks that circuit -dot renders through the
// library's deterministic renderer: the parallel and the sequential
// engine build the same diagrams, so their DOT files must be identical.
// mult-8 is large enough that the parallel engine's nodes land in both
// workers' arenas.
func TestCircuitDOTEngines(t *testing.T) {
	tmp := t.TempDir()
	par, pbf := filepath.Join(tmp, "par.dot"), filepath.Join(tmp, "pbf.dot")
	for _, args := range [][]string{
		{"circuit", "-circuit", "mult-8", "-engine", "par", "-workers", "2", "-dot", par},
		{"circuit", "-circuit", "mult-8", "-engine", "pbf", "-dot", pbf},
	} {
		if stdout, stderr, code := runTool(args...); code != 0 || !strings.HasSuffix(stdout, "wrote "+args[len(args)-1]+"\n") {
			t.Fatalf("bfbdd %s: exit %d\n%s%s", strings.Join(args, " "), code, stdout, stderr)
		}
	}
	a, err := os.ReadFile(par)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(pbf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
		for i := 0; i < len(al) && i < len(bl); i++ {
			if al[i] != bl[i] {
				t.Fatalf("par and pbf DOT differ at line %d: %q vs %q", i+1, al[i], bl[i])
			}
		}
		t.Fatalf("par and pbf DOT differ in length: %d vs %d lines", len(al), len(bl))
	}
	if !bytes.HasPrefix(a, []byte("digraph bdd {\n")) || !bytes.Contains(a, []byte(`r0 [label="out0", shape=plaintext];`)) {
		t.Errorf("unexpected DOT:\n%s", a)
	}
}
