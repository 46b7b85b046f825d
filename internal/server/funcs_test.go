package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTS / closeTS split testServer's lifecycle so a test can stop one
// server and start another over the same checkpoint directory.
func newTS(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	return httptest.NewServer(srv.Handler())
}

func closeTS(t *testing.T, srv *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// publishFixture builds f = (x0 AND x1) OR (x2 XOR x3) in a fresh
// session and returns (sid, handle). Truth: (a&b) | (c^d).
func publishFixture(t *testing.T, base string) (string, uint64) {
	t.Helper()
	sid := createSession(t, base, SessionOptions{Vars: 6})
	h0 := mkVar(t, base, sid, 0, false)
	h1 := mkVar(t, base, sid, 1, false)
	h2 := mkVar(t, base, sid, 2, false)
	h3 := mkVar(t, base, sid, 3, false)
	a := apply(t, base, sid, "and", h0, h1)
	x := apply(t, base, sid, "xor", h2, h3)
	f := apply(t, base, sid, "or", a, x)
	return sid, f
}

func fixtureTruth(a []bool) bool {
	return (a[0] && a[1]) || (a[2] != a[3])
}

func allAssignments6(t *testing.T) [][]bool {
	t.Helper()
	out := make([][]bool, 64)
	for mask := range out {
		a := make([]bool, 6)
		for v := 0; v < 6; v++ {
			a[v] = mask>>uint(v)&1 == 1
		}
		out[mask] = a
	}
	return out
}

func evalValues(t *testing.T, out map[string]any) []bool {
	t.Helper()
	raw, ok := out["values"].([]any)
	if !ok {
		t.Fatalf("no values in %v", out)
	}
	vs := make([]bool, len(raw))
	for i, v := range raw {
		vs[i] = v.(bool)
	}
	return vs
}

// TestPublishEvalLifecycle is the subsystem happy path: publish named
// and anonymous artifacts, evaluate them, list/get/download/delete, and
// keep serving after the source session is gone.
func TestPublishEvalLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := ts.URL
	sid, f := publishFixture(t, base)

	out := mustCall(t, "POST", base+"/v1/sessions/"+sid+"/publish",
		map[string]any{"name": "fixture", "handles": []uint64{f}}, http.StatusCreated)
	if out["func"] != "fixture" {
		t.Fatalf("publish: %v", out)
	}
	if nodes := out["nodes"].(float64); nodes <= 0 {
		t.Fatalf("publish reported %v nodes", nodes)
	}

	// Anonymous publish of every handle gets a generated name.
	out = mustCall(t, "POST", base+"/v1/sessions/"+sid+"/publish",
		map[string]any{}, http.StatusCreated)
	anon := out["func"].(string)
	if !strings.HasPrefix(anon, "f-") {
		t.Fatalf("generated name %q", anon)
	}
	if roots := out["roots"].([]any); len(roots) != 7 {
		t.Fatalf("anonymous publish took %d roots, want all 7 handles", len(roots))
	}

	all := allAssignments6(t)
	check := func(url string, root uint64) {
		t.Helper()
		out := mustCall(t, "POST", url,
			map[string]any{"root": root, "assignments": all}, http.StatusOK)
		vs := evalValues(t, out)
		for mask, a := range all {
			if vs[mask] != fixtureTruth(a) {
				t.Fatalf("%s mask %d: got %v want %v", url, mask, vs[mask], fixtureTruth(a))
			}
		}
	}
	check(base+"/v1/funcs/fixture/eval", f)
	check(base+"/v1/funcs/"+anon+"/eval", f)

	// Default root on the single-root artifact.
	out = mustCall(t, "POST", base+"/v1/funcs/fixture/eval",
		map[string]any{"assignments": all[:1]}, http.StatusOK)
	if vs := evalValues(t, out); vs[0] != fixtureTruth(all[0]) {
		t.Fatalf("default-root eval: %v", vs)
	}

	// satcount: (a&b)|(c^d) has 40 satisfying rows over 6 vars.
	out = mustCall(t, "POST", base+"/v1/funcs/fixture/query",
		map[string]any{"kind": "satcount", "root": f}, http.StatusOK)
	if out["satcount"] != "40" {
		t.Fatalf("satcount: %v", out)
	}
	out = mustCall(t, "POST", base+"/v1/funcs/fixture/query",
		map[string]any{"kind": "anysat", "root": f}, http.StatusOK)
	if out["sat"] != true {
		t.Fatalf("anysat: %v", out)
	}

	// List and get.
	out = mustCall(t, "GET", base+"/v1/funcs", nil, http.StatusOK)
	if funcs := out["funcs"].([]any); len(funcs) != 2 {
		t.Fatalf("list: %v", out)
	}
	out = mustCall(t, "GET", base+"/v1/funcs/fixture", nil, http.StatusOK)
	if out["source"] != sid {
		t.Fatalf("get: source %v want %v", out["source"], sid)
	}

	// The artifact must outlive its source session.
	mustCall(t, "DELETE", base+"/v1/sessions/"+sid, nil, http.StatusOK)
	check(base+"/v1/funcs/fixture/eval", f)

	// Download yields a loadable stream (content sanity only here; the
	// CLI round trip is exercised by scripts/compiled-roundtrip.sh).
	code, out := call(t, "GET", base+"/v1/funcs/fixture/download", nil)
	if code != http.StatusOK || !strings.HasPrefix(out["raw"].(string), "BFBDFUNC") {
		t.Fatalf("download: %d %.20q", code, out["raw"])
	}

	mustCall(t, "DELETE", base+"/v1/funcs/fixture", nil, http.StatusOK)
	mustCall(t, "POST", base+"/v1/funcs/fixture/eval",
		map[string]any{"assignments": all[:1]}, http.StatusNotFound)
}

// TestPublishValidation covers the publish misuse surface.
func TestPublishValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := ts.URL
	sid, f := publishFixture(t, base)

	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/publish",
		map[string]any{"name": "bad name!"}, http.StatusBadRequest)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/publish",
		map[string]any{"name": strings.Repeat("x", 65)}, http.StatusBadRequest)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/publish",
		map[string]any{"name": "dup", "handles": []uint64{f}}, http.StatusCreated)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/publish",
		map[string]any{"name": "dup", "handles": []uint64{f}}, http.StatusConflict)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/publish",
		map[string]any{"handles": []uint64{99999}}, http.StatusBadRequest)

	empty := createSession(t, base, SessionOptions{Vars: 2})
	mustCall(t, "POST", base+"/v1/sessions/"+empty+"/publish",
		map[string]any{}, http.StatusBadRequest)
}

// TestEvalHardening is the satellite's 413 coverage: a request body over
// MaxEvalBodyBytes and a batch over MaxEvalBatch must both be refused
// with 413, and well-formed requests right at the caps must pass.
func TestEvalHardening(t *testing.T) {
	_, ts := testServer(t, Config{MaxEvalBodyBytes: 16 << 10, MaxEvalBatch: 8})
	base := ts.URL
	sid, f := publishFixture(t, base)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/publish",
		map[string]any{"name": "hard", "handles": []uint64{f}}, http.StatusCreated)

	asn := make([]bool, 6)
	batch := func(n int) [][]bool {
		b := make([][]bool, n)
		for i := range b {
			b[i] = asn
		}
		return b
	}
	// At the batch cap: fine.
	mustCall(t, "POST", base+"/v1/funcs/hard/eval",
		map[string]any{"root": f, "assignments": batch(8)}, http.StatusOK)
	// One over the batch cap: 413.
	mustCall(t, "POST", base+"/v1/funcs/hard/eval",
		map[string]any{"root": f, "assignments": batch(9)}, http.StatusRequestEntityTooLarge)
	// A body over the byte limit: 413. 16KiB of padding in an otherwise
	// valid request; json decoding hits the MaxBytesReader first.
	big := map[string]any{"root": f, "assignments": batch(1),
		"pad": strings.Repeat("x", 17<<10)}
	mustCall(t, "POST", base+"/v1/funcs/hard/eval", big, http.StatusRequestEntityTooLarge)

	// Residual 400s: wrong assignment width, unknown root, empty batch.
	mustCall(t, "POST", base+"/v1/funcs/hard/eval",
		map[string]any{"root": f, "assignments": [][]bool{make([]bool, 5)}}, http.StatusBadRequest)
	mustCall(t, "POST", base+"/v1/funcs/hard/eval",
		map[string]any{"root": 123456, "assignments": batch(1)}, http.StatusBadRequest)
	mustCall(t, "POST", base+"/v1/funcs/hard/eval",
		map[string]any{"root": f, "assignments": [][]bool{}}, http.StatusBadRequest)
}

// postRaw posts body byte for byte, which call's json.Marshal would
// normalise, and decodes the response.
func postRaw(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

// TestEvalNonCanonicalBodies pins the eval route's answer to bodies the
// canonical-shape scanner leaves to encoding/json: each must keep
// encoding/json's status and values. The artifact has two roots, x0
// (the default) and the fixture f, and rows C and D tell them apart.
func TestEvalNonCanonicalBodies(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := ts.URL
	sid, f := publishFixture(t, base)
	x0 := mkVar(t, base, sid, 0, false)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/publish",
		map[string]any{"name": "eq", "handles": []uint64{x0, f}}, http.StatusCreated)

	const (
		C = `[false,false,true,false,false,false]` // x0 false, f true
		D = `[true,false,false,false,false,false]` // x0 true, f false
	)
	F := strconv.FormatUint(f, 10)
	wrapped := new(big.Int).Add(new(big.Int).SetUint64(f), new(big.Int).Lsh(big.NewInt(1), 64))
	cases := []struct {
		name, body string
		code       int
		want       []bool
	}{
		{"canonical", `{"root":` + F + `,"assignments":[` + C + `,` + D + `]}`, 200, []bool{true, false}},
		{"whitespace", " {\n\t\"assignments\" : [ " + C + " ] ,\r\n \"root\" : " + F + " }\n", 200, []bool{true}},
		{"folded key", `{"root":` + F + `,"Assignments":[` + C + `,` + D + `]}`, 200, []bool{true, false}},
		{"escaped key", `{"\u0072oot":` + F + `,"assignments":[` + C + `,` + D + `]}`, 200, []bool{true, false}},
		{"null root", `{"root":null,"assignments":[` + C + `,` + D + `]}`, 200, []bool{false, true}},
		{"duplicate assignments", `{"root":` + F + `,"assignments":[` + C + `],"assignments":[` + D + `,` + C + `,` + D + `]}`, 200, []bool{false, true, false}},
		{"duplicate root", `{"root":1,"root":` + F + `,"assignments":[` + C + `]}`, 200, []bool{true}},
		{"unknown field", `{"root":` + F + `,"extra":{"a":[1,null,"x"]},"assignments":[` + C + `]}`, 200, []bool{true}},
		{"null value", `{"root":` + F + `,"assignments":[[true,null,false,false,false,false]]}`, 200, []bool{false}},
		{"trailing bytes", `{"root":` + F + `,"assignments":[` + C + `]} {]trailing`, 200, []bool{true}},
		{"leading zero root", `{"root":0` + F + `,"assignments":[` + C + `]}`, 400, nil},
		{"exponent root", `{"root":` + F + `e0,"assignments":[` + C + `]}`, 400, nil},
		{"negative root", `{"root":-` + F + `,"assignments":[` + C + `]}`, 400, nil},
		{"overflowing root", `{"root":18446744073709551616,"assignments":[` + C + `]}`, 400, nil},
		{"wrapping root", `{"root":` + wrapped.String() + `,"assignments":[` + C + `]}`, 400, nil},
	}
	for _, tc := range cases {
		code, out := postRaw(t, base+"/v1/funcs/eq/eval", tc.body)
		if code != tc.code {
			t.Errorf("%s: status %d want %d (%v)", tc.name, code, tc.code, out)
			continue
		}
		if tc.code != http.StatusOK {
			continue
		}
		if got := evalValues(t, out); !slices.Equal(got, tc.want) {
			t.Errorf("%s: values %v want %v", tc.name, got, tc.want)
		}
	}
}

// TestFuncPool enforces the artifact byte pool with 413 and checks
// deletes return capacity.
func TestFuncPool(t *testing.T) {
	_, ts := testServer(t, Config{MaxFuncBytes: 4096})
	base := ts.URL
	sid, f := publishFixture(t, base)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/publish",
		map[string]any{"name": "one", "handles": []uint64{f}}, http.StatusCreated)
	// The fixture artifact is a few hundred bytes; publishing until the
	// 4KiB pool fills must eventually yield 413.
	full := false
	for i := 0; i < 64 && !full; i++ {
		code, _ := call(t, "POST", base+"/v1/sessions/"+sid+"/publish",
			map[string]any{"name": fmt.Sprintf("fill-%d", i), "handles": []uint64{f}})
		switch code {
		case http.StatusCreated:
		case http.StatusRequestEntityTooLarge:
			full = true
		default:
			t.Fatalf("publish fill-%d: %d", i, code)
		}
	}
	if !full {
		t.Fatal("pool never filled")
	}
	mustCall(t, "DELETE", base+"/v1/funcs/one", nil, http.StatusOK)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/publish",
		map[string]any{"name": "after-delete", "handles": []uint64{f}}, http.StatusCreated)
}

// TestFuncPersistenceReload publishes artifacts with a checkpoint dir,
// starts a second server over the same directory, and requires the
// artifacts back — same names, same answers. Deleted artifacts must not
// resurrect, and a corrupt file is set aside rather than fatal.
func TestFuncPersistenceReload(t *testing.T) {
	dir := t.TempDir()
	srv1 := New(Config{CheckpointDir: dir})
	ts1 := newTS(t, srv1)
	base := ts1.URL
	sid, f := publishFixture(t, base)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/publish",
		map[string]any{"name": "keeper", "handles": []uint64{f}}, http.StatusCreated)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/publish",
		map[string]any{"name": "goner", "handles": []uint64{f}}, http.StatusCreated)
	mustCall(t, "DELETE", base+"/v1/funcs/goner", nil, http.StatusOK)

	all := allAssignments6(t)
	want := evalValues(t, mustCall(t, "POST", base+"/v1/funcs/keeper/eval",
		map[string]any{"root": f, "assignments": all}, http.StatusOK))
	closeTS(t, srv1, ts1) // no graceful artifact work needed: persisted at publish

	// A stray corrupt file must be survivable.
	if err := os.WriteFile(filepath.Join(dir, "funcs", "junk.fn"), []byte("BFBDFUNCgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := New(Config{CheckpointDir: dir})
	ts2 := newTS(t, srv2)
	defer closeTS(t, srv2, ts2)
	base = ts2.URL

	got := evalValues(t, mustCall(t, "POST", base+"/v1/funcs/keeper/eval",
		map[string]any{"root": f, "assignments": all}, http.StatusOK))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reloaded artifact drifted at %d", i)
		}
	}
	mustCall(t, "GET", base+"/v1/funcs/goner", nil, http.StatusNotFound)
	mustCall(t, "GET", base+"/v1/funcs/junk", nil, http.StatusNotFound)
	if _, err := os.Stat(filepath.Join(dir, "funcs", "junk.fn.corrupt")); err != nil {
		t.Fatalf("corrupt file not set aside: %v", err)
	}
	if srv2.metrics.funcsRecovered.Load() != 1 {
		t.Fatalf("funcsRecovered = %d", srv2.metrics.funcsRecovered.Load())
	}
}

// TestEvalConcurrentWithDelete hammers the lock-free eval path from many
// goroutines racing a delete: every response is either a correct answer
// or a clean 404.
func TestEvalConcurrentWithDelete(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := ts.URL
	sid, f := publishFixture(t, base)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/publish",
		map[string]any{"name": "racy", "handles": []uint64{f}}, http.StatusCreated)
	all := allAssignments6(t)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				code, out := call(t, "POST", base+"/v1/funcs/racy/eval",
					map[string]any{"root": f, "assignments": all})
				switch code {
				case http.StatusOK:
					vs := evalValues(t, out)
					for mask, a := range all {
						if vs[mask] != fixtureTruth(a) {
							t.Errorf("eval drifted at mask %d", mask)
							return
						}
					}
				case http.StatusNotFound:
					return
				default:
					t.Errorf("eval: unexpected status %d", code)
					return
				}
			}
		}()
	}
	mustCall(t, "DELETE", base+"/v1/funcs/racy", nil, http.StatusOK)
	wg.Wait()
}
