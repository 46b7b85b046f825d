package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bfbdd/internal/trace"
)

// tracedApply posts one apply with ?trace=1 and returns the result
// handle and the trace id from the response header.
func tracedApply(t *testing.T, base, sid, op string, f, g uint64) (uint64, string) {
	t.Helper()
	raw, tid := tracedPost(t, base+"/v1/sessions/"+sid+"/apply",
		map[string]any{"op": op, "f": f, "g": g})
	var out struct {
		Handle uint64 `json:"handle"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("unmarshal %q: %v", raw, err)
	}
	return out.Handle, tid
}

// tracedPost posts req to url with ?trace=1, requires a 200, and returns
// the response body and the trace id from the response header.
func tracedPost(t *testing.T, url string, req any) ([]byte, string) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced POST %s -> %d: %s", url, resp.StatusCode, raw)
	}
	tid := resp.Header.Get("X-Bfbdd-Trace")
	if tid == "" {
		t.Fatal("forced request missing X-Bfbdd-Trace header")
	}
	return raw, tid
}

// fetchTrace retrieves and validates one exported trace by id.
func fetchTrace(t *testing.T, base, tid string) *trace.Exported {
	t.Helper()
	resp, err := http.Get(base + "/v1/debug/traces/" + tid)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace %s -> %d: %s", tid, resp.StatusCode, raw)
	}
	var ex trace.Exported
	if err := json.Unmarshal(raw, &ex); err != nil {
		t.Fatalf("unmarshal trace: %v", err)
	}
	if err := ex.Validate(); err != nil {
		t.Fatalf("exported trace invalid: %v\n%s", err, raw)
	}
	return &ex
}

// spanByName returns the first span with the given name, failing the
// test when absent.
func spanByName(t *testing.T, ex *trace.Exported, name string) *trace.ExportedSpan {
	t.Helper()
	sp := ex.FindSpan(name)
	if sp == nil {
		var names []string
		for _, s := range ex.Spans {
			names = append(names, s.Name)
		}
		t.Fatalf("no %q span in trace (have %v)", name, names)
	}
	return sp
}

// TestTraceEndToEndApply asserts the full span tree of one traced
// coalesced apply on a persistent session: handler root → queue-wait +
// batch → kernel-build (with per-level expansion/reduction children and
// the paper's counters) + wal-commit + repl-await, with correct
// parentage throughout.
func TestTraceEndToEndApply(t *testing.T) {
	_, ts := testServer(t, Config{
		CheckpointDir:      t.TempDir(),
		CheckpointInterval: -1,
	})
	sid := createSession(t, ts.URL, SessionOptions{Vars: 6})
	v0 := mkVar(t, ts.URL, sid, 0, false)
	v1 := mkVar(t, ts.URL, sid, 1, false)

	_, tid := tracedApply(t, ts.URL, sid, "and", v0, v1)
	ex := fetchTrace(t, ts.URL, tid)

	root := spanByName(t, ex, "POST /v1/sessions/{sid}/apply")
	if root.Span != 1 || root.Parent != 0 {
		t.Fatalf("handler span is not the root: %+v", root)
	}
	if st, ok := root.Attr("status"); !ok || st != http.StatusOK {
		t.Fatalf("root status attr = %v", root.Attrs)
	}
	if ex.Root != root.Name {
		t.Fatalf("export root %q != root span name %q", ex.Root, root.Name)
	}

	qw := spanByName(t, ex, "queue-wait")
	if qw.Parent != root.Span {
		t.Fatalf("queue-wait parented to %d, want root %d", qw.Parent, root.Span)
	}
	batch := spanByName(t, ex, "batch")
	if batch.Parent != root.Span {
		t.Fatalf("batch parented to %d, want root %d", batch.Parent, root.Span)
	}
	if ops, ok := batch.Attr("ops"); !ok || ops != 1 {
		t.Fatalf("batch ops attr = %v", batch.Attrs)
	}
	if _, ok := batch.Attr("batch_id"); !ok {
		t.Fatalf("batch missing batch_id: %v", batch.Attrs)
	}

	build := spanByName(t, ex, "kernel-build")
	if build.Parent != batch.Span {
		t.Fatalf("kernel-build parented to %d, want batch %d", build.Parent, batch.Span)
	}
	for _, key := range []string{
		"shannon_steps", "cache_hits", "terminals", "steals", "stolen_ops",
		"stalls", "context_pushes", "lock_wait_ns", "nodes_created",
	} {
		if _, ok := build.Attr(key); !ok {
			t.Errorf("kernel-build missing %s attr: %v", key, build.Attrs)
		}
	}
	if steps, _ := build.Attr("shannon_steps"); steps <= 0 {
		t.Fatalf("kernel-build shannon_steps = %d, want > 0", steps)
	}

	var expands, reduces int
	for i := range ex.Spans {
		sp := &ex.Spans[i]
		switch sp.Name {
		case "expand", "reduce":
			if sp.Parent != build.Span {
				t.Fatalf("%s span parented to %d, want kernel-build %d", sp.Name, sp.Parent, build.Span)
			}
			if _, ok := sp.Attr("level"); !ok {
				t.Fatalf("%s span missing level attr: %v", sp.Name, sp.Attrs)
			}
			if sp.Name == "expand" {
				expands++
			} else {
				reduces++
			}
		}
	}
	if expands == 0 || reduces == 0 {
		t.Fatalf("per-level phase spans missing: %d expand, %d reduce", expands, reduces)
	}

	wc := spanByName(t, ex, "wal-commit")
	if wc.Parent != batch.Span {
		t.Fatalf("wal-commit parented to %d, want batch %d", wc.Parent, batch.Span)
	}
	if n, ok := wc.Attr("records"); !ok || n != 1 {
		t.Fatalf("wal-commit records attr = %v", wc.Attrs)
	}
	ra := spanByName(t, ex, "repl-await")
	if ra.Parent != batch.Span {
		t.Fatalf("repl-await parented to %d, want batch %d", ra.Parent, batch.Span)
	}
	if seq, ok := ra.Attr("seq"); !ok || seq <= 0 {
		t.Fatalf("repl-await seq attr = %v", ra.Attrs)
	}
}

// TestTraceCoalescedBatchMembership asserts that two applies coalesced
// into one engine batch produce one owner trace carrying the batch span
// and one member trace carrying a batch-join marker with the same
// batch_id.
func TestTraceCoalescedBatchMembership(t *testing.T) {
	_, ts := testServer(t, Config{CoalesceWindow: 50 * time.Millisecond})
	sid := createSession(t, ts.URL, SessionOptions{Vars: 6})
	v0 := mkVar(t, ts.URL, sid, 0, false)
	v1 := mkVar(t, ts.URL, sid, 1, false)

	var wg sync.WaitGroup
	tids := make([]string, 2)
	for i := range tids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, tids[i] = tracedApply(t, ts.URL, sid, "or", v0, v1)
		}(i)
	}
	wg.Wait()

	var owners, members []*trace.Exported
	for _, tid := range tids {
		ex := fetchTrace(t, ts.URL, tid)
		switch {
		case ex.FindSpan("batch") != nil:
			owners = append(owners, ex)
		case ex.FindSpan("batch-join") != nil:
			members = append(members, ex)
		default:
			t.Fatalf("trace %s has neither batch nor batch-join", ex.TraceID)
		}
	}
	if len(owners) != 1 || len(members) != 1 {
		// The two requests raced past each other's window: both became
		// owners of singleton batches. Legal, but not what this test is
		// about — with a 50ms window it should be vanishingly rare.
		t.Fatalf("got %d owners / %d members, want 1/1", len(owners), len(members))
	}
	ownerID, _ := owners[0].FindSpan("batch").Attr("batch_id")
	memberID, _ := members[0].FindSpan("batch-join").Attr("batch_id")
	if ownerID != memberID {
		t.Fatalf("batch_id mismatch: owner %d, member %d", ownerID, memberID)
	}
	if ops, _ := owners[0].FindSpan("batch").Attr("ops"); ops != 2 {
		t.Fatalf("owner batch ops = %d, want 2", ops)
	}
	// Both traces recorded their queue wait; only the owner carries the
	// kernel build.
	for _, ex := range append(owners, members...) {
		if ex.FindSpan("queue-wait") == nil {
			t.Fatalf("trace %s missing queue-wait span", ex.TraceID)
		}
	}
	if owners[0].FindSpan("kernel-build") == nil {
		t.Fatal("owner trace missing kernel-build span")
	}
	if members[0].FindSpan("kernel-build") != nil {
		t.Fatal("member trace must not carry the kernel build")
	}
}

// gcEveryBuild is a session that collects at the start of any build
// that follows node growth (no node floor, a growth factor barely over
// 1), so a build's report carries nonzero GC phase times.
var gcEveryBuild = SessionOptions{Vars: 10, GCGrowth: 1.001, GCMinNodes: 1}

// TestTraceCountersMatchStats is the parity check: the kernel-build
// span's counter attributes must equal the Manager.Stats deltas across
// the traced build.
func TestTraceCountersMatchStats(t *testing.T) {
	srv, ts := testServer(t, Config{})
	sid := createSession(t, ts.URL, gcEveryBuild)
	v0 := mkVar(t, ts.URL, sid, 0, false)
	acc := v0
	for i := 1; i < 10; i++ {
		vi := mkVar(t, ts.URL, sid, i, false)
		acc = apply(t, ts.URL, sid, "xor", acc, vi)
	}

	sess, err := srv.reg.get(sid)
	if err != nil {
		t.Fatal(err)
	}
	// Quiesce: the noop stats task drains every prior executor task, so
	// the direct Stats read below cannot race engine work.
	mustCall(t, "GET", ts.URL+"/v1/sessions/"+sid+"/stats", nil, http.StatusOK)
	before := sess.mgr.Stats()

	_, tid := tracedApply(t, ts.URL, sid, "and", acc, v0)
	mustCall(t, "GET", ts.URL+"/v1/sessions/"+sid+"/stats", nil, http.StatusOK)
	after := sess.mgr.Stats()

	build := spanByName(t, fetchTrace(t, ts.URL, tid), "kernel-build")
	checks := []struct {
		attr string
		want int64
	}{
		{"shannon_steps", int64(after.Ops - before.Ops)},
		{"cache_hits", int64(after.CacheHits - before.CacheHits)},
		{"terminals", int64(after.Terminals - before.Terminals)},
		{"steals", int64(after.Steals - before.Steals)},
		{"stolen_ops", int64(after.StolenOps - before.StolenOps)},
		{"stalls", int64(after.Stalls - before.Stalls)},
		{"context_pushes", int64(after.ContextPushes - before.ContextPushes)},
		{"lock_wait_ns", int64(after.LockWait - before.LockWait)},
		{"nodes_created", int64(after.NumNodes) - int64(before.NumNodes)},
		{"expansion_ns", int64(after.ExpansionTime - before.ExpansionTime)},
		{"reduction_ns", int64(after.ReductionTime - before.ReductionTime)},
		{"gc_mark_ns", int64(after.GCMarkTime - before.GCMarkTime)},
		{"gc_fix_ns", int64(after.GCFixTime - before.GCFixTime)},
		{"gc_rehash_ns", int64(after.GCRehashTime - before.GCRehashTime)},
	}
	if len(build.Attrs) != len(checks) {
		t.Errorf("kernel-build has %d attributes, want %d: %v", len(build.Attrs), len(checks), build.Attrs)
	}
	for _, c := range checks {
		got, ok := build.Attr(c.attr)
		if !ok {
			t.Errorf("kernel-build missing %s", c.attr)
			continue
		}
		if got != c.want {
			t.Errorf("kernel-build %s = %d, stats delta = %d", c.attr, got, c.want)
		}
	}
	if steps, _ := build.Attr("shannon_steps"); steps == 0 {
		t.Error("parity check exercised a build with zero Shannon steps")
	}
	if after.GCCount == before.GCCount {
		t.Error("parity check exercised a build without a collection")
	}
}

// TestSlowBuildLogMatchesSpan drives one traced /apply and one traced
// /batch with every build over the slow-build threshold: each build logs
// exactly one slow-build line, naming its route, whose counters are the
// kernel-build span's attributes, key for key and value for value.
func TestSlowBuildLogMatchesSpan(t *testing.T) {
	var logged syncBuffer
	prev := log.Writer()
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(prev) })

	_, ts := testServer(t, Config{SlowBuildThreshold: time.Nanosecond})
	sid := createSession(t, ts.URL, gcEveryBuild)
	base := ts.URL + "/v1/sessions/" + sid
	v0 := mkVar(t, ts.URL, sid, 0, false)
	v1 := mkVar(t, ts.URL, sid, 1, false)
	v2 := mkVar(t, ts.URL, sid, 2, false)
	acc := apply(t, ts.URL, sid, "xor", v0, v1)

	for _, tc := range []struct {
		op  string
		url string
		req any
	}{
		{"apply", base + "/apply", map[string]any{"op": "and", "f": acc, "g": v2}},
		{"batch", base + "/batch", map[string]any{"ops": []map[string]any{
			{"op": "or", "f": acc, "g": v2},
			{"op": "xor", "f": v1, "g": v2},
		}}},
	} {
		logged.Reset()
		_, tid := tracedPost(t, tc.url, tc.req)
		build := spanByName(t, fetchTrace(t, ts.URL, tid), "kernel-build")

		var lines []string
		for _, l := range strings.Split(logged.String(), "\n") {
			if strings.Contains(l, "server: slow build:") && strings.Contains(l, "session="+sid+" ") {
				lines = append(lines, l)
			}
		}
		if len(lines) != 1 {
			t.Fatalf("%s: %d slow-build lines, want 1: %q", tc.op, len(lines), lines)
		}
		fields := strings.Fields(lines[0][strings.Index(lines[0], "session="):])
		if len(fields) < 3 || fields[1] != "op="+tc.op || !strings.HasPrefix(fields[2], "wall=") {
			t.Fatalf("%s: slow-build line starts %q, want session, op=%s, wall", tc.op, fields, tc.op)
		}
		var want []string
		for _, a := range build.Attrs {
			want = append(want, fmt.Sprintf("%s=%d", a.Key, a.Value))
		}
		if got := fields[3:]; !slices.Equal(got, want) {
			t.Errorf("%s: slow-build counters %q, kernel-build span %q", tc.op, got, want)
		}
		if v, _ := build.Attr("gc_mark_ns"); v == 0 {
			t.Errorf("%s: build ran no collection", tc.op)
		}
	}
}

// syncBuffer is a bytes.Buffer safe for the log package's writes from
// executor goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}

// TestTraceDebugEndpoints covers the listing surface: empty when
// sampling is off and nothing was forced, 404 for unknown ids, newest-
// first ordering, and eviction once the ring wraps.
func TestTraceDebugEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{TraceRingSize: 2})
	sid := createSession(t, ts.URL, SessionOptions{Vars: 4})
	v0 := mkVar(t, ts.URL, sid, 0, false)
	v1 := mkVar(t, ts.URL, sid, 1, false)

	out := mustCall(t, "GET", ts.URL+"/v1/debug/traces", nil, http.StatusOK)
	if sampling, _ := out["sampling"].(bool); sampling {
		t.Fatal("sampling reported enabled at rate 0")
	}
	if traces, _ := out["traces"].([]any); len(traces) != 0 {
		t.Fatalf("expected empty trace list with sampling off, got %v", traces)
	}
	mustCall(t, "GET", ts.URL+"/v1/debug/traces/t-00000000deadbeef", nil, http.StatusNotFound)

	var tids []string
	for i := 0; i < 3; i++ {
		_, tid := tracedApply(t, ts.URL, sid, "and", v0, v1)
		tids = append(tids, tid)
	}
	out = mustCall(t, "GET", ts.URL+"/v1/debug/traces", nil, http.StatusOK)
	traces, _ := out["traces"].([]any)
	if len(traces) != 2 {
		t.Fatalf("ring of 2 retains %d traces", len(traces))
	}
	first, _ := traces[0].(map[string]any)
	second, _ := traces[1].(map[string]any)
	if first["trace_id"] != tids[2] || second["trace_id"] != tids[1] {
		t.Fatalf("listing not newest-first: %v vs %v", traces, tids)
	}
	// The evicted trace 404s; the retained ones export fully.
	mustCall(t, "GET", ts.URL+"/v1/debug/traces/"+tids[0], nil, http.StatusNotFound)
	fetchTrace(t, ts.URL, tids[2])
}

// TestTraceHeadSampling asserts rate-1 sampling traces every request
// without the force flag.
func TestTraceHeadSampling(t *testing.T) {
	_, ts := testServer(t, Config{TraceSample: 1})
	sid := createSession(t, ts.URL, SessionOptions{Vars: 4})
	v0 := mkVar(t, ts.URL, sid, 0, false)
	_ = apply(t, ts.URL, sid, "and", v0, v0)

	out := mustCall(t, "GET", ts.URL+"/v1/debug/traces", nil, http.StatusOK)
	if sampling, _ := out["sampling"].(bool); !sampling {
		t.Fatal("sampling reported disabled at rate 1")
	}
	traces, _ := out["traces"].([]any)
	// Session create, var, apply — at least three sampled traces.
	if len(traces) < 3 {
		t.Fatalf("rate-1 sampler retained only %d traces", len(traces))
	}
}

// normalizeTrace zeroes everything host- or run-dependent (timestamps,
// durations, global ids) while keeping the structural content the
// golden file locks down: span names, parentage, and the deterministic
// counter attributes.
func normalizeTrace(ex *trace.Exported) {
	ex.TraceID = "t-0000000000000000"
	ex.StartUnixNs = 0
	ex.DurationNs = 0
	for i := range ex.Spans {
		sp := &ex.Spans[i]
		sp.StartUnixNs = 0
		sp.DurationNs = 0
		for j := range sp.Attrs {
			a := &sp.Attrs[j]
			if strings.HasSuffix(a.Key, "_ns") || a.Key == "batch_id" {
				a.Value = 0
			}
		}
	}
}

// TestTraceGoldenExport locks the export schema and the span tree of a
// canonical traced apply against a golden file: stable field ordering,
// stable span names and parentage, and stable values for every
// deterministic counter attribute. Regenerate with UPDATE_GOLDEN=1.
func TestTraceGoldenExport(t *testing.T) {
	_, ts := testServer(t, Config{
		CheckpointDir:      t.TempDir(),
		CheckpointInterval: -1,
	})
	sid := createSession(t, ts.URL, SessionOptions{Vars: 4})
	v0 := mkVar(t, ts.URL, sid, 0, false)
	v1 := mkVar(t, ts.URL, sid, 1, false)
	_, tid := tracedApply(t, ts.URL, sid, "and", v0, v1)

	ex := fetchTrace(t, ts.URL, tid)
	normalizeTrace(ex)
	got, err := json.MarshalIndent(ex, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "trace_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exported trace deviates from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// The golden bytes double as the wire-schema contract: field order
	// comes from the struct, so trace_id must lead and spans must close.
	compact := &bytes.Buffer{}
	if err := json.Compact(compact, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(compact.Bytes(), []byte(`{"trace_id":`)) {
		t.Fatalf("golden does not start with trace_id: %.60s", compact.Bytes())
	}
}

// TestTraceOffCostsNothingVisible asserts the untraced path leaves no
// observable residue: no header, nothing in the ring.
func TestTraceOffCostsNothingVisible(t *testing.T) {
	srv, ts := testServer(t, Config{})
	sid := createSession(t, ts.URL, SessionOptions{Vars: 4})
	v0 := mkVar(t, ts.URL, sid, 0, false)

	body, _ := json.Marshal(map[string]any{"op": "and", "f": v0, "g": v0})
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sid+"/apply",
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h := resp.Header.Get("X-Bfbdd-Trace"); h != "" {
		t.Fatalf("untraced request got trace header %q", h)
	}
	if n := srv.tracer.Ring().Len(); n != 0 {
		t.Fatalf("untraced workload left %d traces in the ring", n)
	}
}
