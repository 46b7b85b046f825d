package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// testServer spins up the full handler stack on an httptest listener.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return srv, ts
}

// call performs one JSON round trip and decodes the response body.
func call(t *testing.T, method, url string, req any) (int, map[string]any) {
	t.Helper()
	var body io.Reader
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		body = bytes.NewReader(b)
	}
	hreq, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	out := map[string]any{}
	if len(raw) > 0 && strings.Contains(resp.Header.Get("Content-Type"), "json") {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("unmarshal %q: %v", raw, err)
		}
	} else {
		out["raw"] = string(raw)
	}
	return resp.StatusCode, out
}

// mustCall is call asserting an expected status.
func mustCall(t *testing.T, method, url string, req any, wantCode int) map[string]any {
	t.Helper()
	code, out := call(t, method, url, req)
	if code != wantCode {
		t.Fatalf("%s %s: got %d want %d (body %v)", method, url, code, wantCode, out)
	}
	return out
}

func createSession(t *testing.T, base string, opts SessionOptions) string {
	t.Helper()
	out := mustCall(t, "POST", base+"/v1/sessions", opts, http.StatusCreated)
	id, _ := out["session"].(string)
	if id == "" {
		t.Fatalf("no session id in %v", out)
	}
	return id
}

func handleOf(t *testing.T, out map[string]any) uint64 {
	t.Helper()
	h, ok := out["handle"].(float64)
	if !ok {
		t.Fatalf("no handle in %v", out)
	}
	return uint64(h)
}

// mkVar declares variable i and returns its wire handle.
func mkVar(t *testing.T, base, sid string, i int, neg bool) uint64 {
	t.Helper()
	out := mustCall(t, "POST", base+"/v1/sessions/"+sid+"/vars",
		map[string]any{"index": i, "negated": neg}, http.StatusOK)
	return handleOf(t, out)
}

// apply runs one coalesced binary op and returns the result handle.
func apply(t *testing.T, base, sid, op string, f, g uint64) uint64 {
	t.Helper()
	out := mustCall(t, "POST", base+"/v1/sessions/"+sid+"/apply",
		map[string]any{"op": op, "f": f, "g": g}, http.StatusOK)
	return handleOf(t, out)
}

// buildDNF constructs an OR of random conjunctions of literals over the
// session — enough real engine work to light up the worker counters.
func buildDNF(t *testing.T, base, sid string, rng *rand.Rand, vars, terms, width int) uint64 {
	t.Helper()
	acc := uint64(0)
	for i := 0; i < terms; i++ {
		cube := mkVar(t, base, sid, rng.Intn(vars), rng.Intn(2) == 0)
		for j := 1; j < width; j++ {
			lit := mkVar(t, base, sid, rng.Intn(vars), rng.Intn(2) == 0)
			cube = apply(t, base, sid, "and", cube, lit)
		}
		if acc == 0 {
			acc = cube
		} else {
			acc = apply(t, base, sid, "or", acc, cube)
		}
	}
	return acc
}

// metricValue extracts one sample value from Prometheus text exposition.
func metricValue(t *testing.T, body, name, labels string) float64 {
	t.Helper()
	pat := regexp.QuoteMeta(name)
	if labels != "" {
		pat += `\{[^}]*` + regexp.QuoteMeta(labels) + `[^}]*\}`
	}
	re := regexp.MustCompile(`(?m)^` + pat + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s{%s} not found", name, labels)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: bad value %q", name, m[1])
	}
	return v
}

// TestServerSessionLifecycle drives a full session end to end over HTTP:
// create on the parallel engine, build, query every read endpoint, check
// the metrics surface, close, and verify the session is really gone.
func TestServerSessionLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := ts.URL
	rng := rand.New(rand.NewSource(7))

	mustCall(t, "GET", base+"/healthz", nil, http.StatusOK)

	const vars = 18
	sid := createSession(t, base, SessionOptions{Vars: vars, Engine: "par", Workers: 2})

	f := buildDNF(t, base, sid, rng, vars, 20, 6)
	g := buildDNF(t, base, sid, rng, vars, 20, 6)
	fg := apply(t, base, sid, "xor", f, g)

	// ITE(f, g, f xor g) — exercises the ternary path.
	out := mustCall(t, "POST", base+"/v1/sessions/"+sid+"/ite",
		map[string]any{"f": f, "g": g, "h": fg}, http.StatusOK)
	ite := handleOf(t, out)

	out = mustCall(t, "POST", base+"/v1/sessions/"+sid+"/not",
		map[string]any{"f": fg}, http.StatusOK)
	nfg := handleOf(t, out)

	out = mustCall(t, "POST", base+"/v1/sessions/"+sid+"/quantify",
		map[string]any{"kind": "exists", "f": fg, "vars": []int{0, 1, 2}}, http.StatusOK)
	ex := handleOf(t, out)

	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/restrict",
		map[string]any{"f": fg, "var": 3, "value": true}, http.StatusOK)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/compose",
		map[string]any{"f": fg, "var": 2, "g": g}, http.StatusOK)

	// not(f xor g) must differ from f xor g, and exists must not equal zero
	// unless fg itself was constant.
	out = mustCall(t, "POST", base+"/v1/sessions/"+sid+"/query",
		map[string]any{"kind": "equal", "f": fg, "g": nfg}, http.StatusOK)
	if eq, _ := out["equal"].(bool); eq {
		t.Fatalf("fg and not(fg) reported equal")
	}
	_ = ite
	_ = ex

	out = mustCall(t, "POST", base+"/v1/sessions/"+sid+"/query",
		map[string]any{"kind": "size", "f": fg}, http.StatusOK)
	if n, _ := out["nodes"].(float64); n < 2 {
		t.Fatalf("fg size %v, want >= 2", out["nodes"])
	}
	out = mustCall(t, "POST", base+"/v1/sessions/"+sid+"/query",
		map[string]any{"kind": "satcount", "f": fg}, http.StatusOK)
	if sc, _ := out["satcount"].(string); sc == "" || sc == "0" {
		t.Fatalf("satcount %v, want nonzero", out["satcount"])
	}
	out = mustCall(t, "POST", base+"/v1/sessions/"+sid+"/query",
		map[string]any{"kind": "anysat", "f": fg}, http.StatusOK)
	if sat, _ := out["sat"].(bool); !sat {
		t.Fatalf("anysat found no assignment for a non-constant BDD")
	}
	// Evaluate the assignment anysat produced: must be true.
	assign := make([]bool, vars)
	for k, v := range out["assignment"].(map[string]any) {
		idx, err := strconv.Atoi(k)
		if err != nil {
			t.Fatalf("bad var key %q", k)
		}
		assign[idx] = v.(bool)
	}
	out = mustCall(t, "POST", base+"/v1/sessions/"+sid+"/query",
		map[string]any{"kind": "eval", "f": fg, "assignment": assign}, http.StatusOK)
	if val, _ := out["value"].(bool); !val {
		t.Fatalf("eval of anysat witness is false")
	}
	out = mustCall(t, "POST", base+"/v1/sessions/"+sid+"/query",
		map[string]any{"kind": "support", "f": fg}, http.StatusOK)
	if sup, _ := out["vars"].([]any); len(sup) == 0 {
		t.Fatalf("empty support for non-constant BDD")
	}

	// DOT export.
	resp, err := http.Get(base + "/v1/sessions/" + sid + "/bdds/" + fmt.Sprint(fg) + "/dot")
	if err != nil {
		t.Fatalf("dot: %v", err)
	}
	dot, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(dot), "digraph") {
		t.Fatalf("dot: code %d body %.80s", resp.StatusCode, dot)
	}

	// GC endpoint and stats.
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/gc", nil, http.StatusOK)
	stats := mustCall(t, "GET", base+"/v1/sessions/"+sid+"/stats", nil, http.StatusOK)
	if ops, _ := stats["ops"].(float64); ops <= 0 {
		t.Fatalf("session stats ops = %v, want > 0", stats["ops"])
	}

	// Session listing and info.
	out = mustCall(t, "GET", base+"/v1/sessions", nil, http.StatusOK)
	if n := len(out["sessions"].([]any)); n != 1 {
		t.Fatalf("listed %d sessions, want 1", n)
	}
	mustCall(t, "GET", base+"/v1/sessions/"+sid, nil, http.StatusOK)

	// Metrics: the parallel engine must have done real work on behalf of
	// this session, and the serving layer must have counted the traffic.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(mb)
	lbl := `session="` + sid + `"`
	if v := metricValue(t, body, "bfbdd_session_ops_total", lbl); v <= 0 {
		t.Fatalf("bfbdd_session_ops_total = %g, want > 0", v)
	}
	if v := metricValue(t, body, "bfbdd_session_live_nodes", lbl); v <= 0 {
		t.Fatalf("bfbdd_session_live_nodes = %g, want > 0", v)
	}
	if v := metricValue(t, body, "bfbdd_sessions_open", ""); v != 1 {
		t.Fatalf("bfbdd_sessions_open = %g, want 1", v)
	}
	if v := metricValue(t, body, "bfbdd_session_gc_runs_total", lbl); v <= 0 {
		t.Fatalf("bfbdd_session_gc_runs_total = %g, want > 0", v)
	}
	// Latency series for at least the apply route.
	if !strings.Contains(body, `bfbdd_http_request_duration_seconds_count{route="POST /v1/sessions/{sid}/apply"}`) {
		t.Fatalf("missing apply route latency series")
	}

	// Free a handle, then confirm it is gone.
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/free",
		map[string]any{"handles": []uint64{ite}}, http.StatusOK)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/query",
		map[string]any{"kind": "size", "f": ite}, http.StatusBadRequest)

	// Close: first succeeds, second 404s, subsequent use 404s.
	mustCall(t, "DELETE", base+"/v1/sessions/"+sid, nil, http.StatusOK)
	mustCall(t, "DELETE", base+"/v1/sessions/"+sid, nil, http.StatusNotFound)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/vars",
		map[string]any{"index": 0}, http.StatusNotFound)
}

// TestServerCoalescing fires a burst of concurrent applies and checks the
// coalescer actually merged them into fewer engine batches.
func TestServerCoalescing(t *testing.T) {
	srv, ts := testServer(t, Config{CoalesceWindow: 25 * time.Millisecond})
	base := ts.URL
	rng := rand.New(rand.NewSource(11))

	const vars = 16
	sid := createSession(t, base, SessionOptions{Vars: vars, Engine: "par", Workers: 2})
	f := buildDNF(t, base, sid, rng, vars, 8, 5)
	g := buildDNF(t, base, sid, rng, vars, 8, 5)

	const burst = 16
	ops := []string{"and", "or", "xor", "nand", "nor", "xnor", "diff", "implies"}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			code, out := call(t, "POST", base+"/v1/sessions/"+sid+"/apply",
				map[string]any{"op": ops[i%len(ops)], "f": f, "g": g})
			if code != http.StatusOK {
				errs <- fmt.Errorf("apply %d: code %d body %v", i, code, out)
			}
		}(i)
	}
	before := srv.metrics.coalescedBatches.Load()
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	batches := srv.metrics.coalescedBatches.Load() - before
	if batches == 0 {
		t.Fatalf("no coalesced batches recorded")
	}
	if batches >= burst {
		t.Fatalf("burst of %d applies ran as %d batches; expected coalescing", burst, batches)
	}
	t.Logf("%d applies coalesced into %d batches", burst, batches)
}

// TestServerErrors checks the error mapping, including the panic firewall
// that turns engine misuse panics into 400s without killing the server.
func TestServerErrors(t *testing.T) {
	_, ts := testServer(t, Config{MaxSessions: 1})
	base := ts.URL

	// Bad session options.
	mustCall(t, "POST", base+"/v1/sessions", SessionOptions{Vars: 0}, http.StatusBadRequest)
	mustCall(t, "POST", base+"/v1/sessions",
		SessionOptions{Vars: 4, Engine: "quantum"}, http.StatusBadRequest)

	sid := createSession(t, base, SessionOptions{Vars: 4})

	// Session cap.
	mustCall(t, "POST", base+"/v1/sessions", SessionOptions{Vars: 4}, http.StatusTooManyRequests)

	// Unknown session, unknown handle, malformed JSON, unknown op.
	mustCall(t, "POST", base+"/v1/sessions/s-nope/vars",
		map[string]any{"index": 0}, http.StatusNotFound)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/query",
		map[string]any{"kind": "size", "f": 999}, http.StatusBadRequest)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/apply",
		map[string]any{"op": "xorish", "f": 1, "g": 2}, http.StatusBadRequest)
	resp, err := http.Post(base+"/v1/sessions/"+sid+"/vars", "application/json",
		strings.NewReader("{nope"))
	if err != nil {
		t.Fatalf("malformed post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: code %d, want 400", resp.StatusCode)
	}

	// Out-of-range variable index is refused by the shared record path.
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/vars",
		map[string]any{"index": 99}, http.StatusBadRequest)

	// Wrong-length eval assignment is caught before reaching the engine.
	h := mkVar(t, base, sid, 0, false)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/query",
		map[string]any{"kind": "eval", "f": h, "assignment": []bool{true}}, http.StatusBadRequest)

	// Quantifying over an out-of-range variable is refused by the shared
	// record path's range check before the engine sees it: 400, and the
	// session keeps serving. (The engine-panic firewall behind it is
	// covered by TestFailStatusMapping.)
	out := mustCall(t, "POST", base+"/v1/sessions/"+sid+"/quantify",
		map[string]any{"kind": "exists", "f": h, "vars": []int{99}}, http.StatusBadRequest)
	if msg, _ := out["error"].(string); !strings.Contains(msg, "out of range") {
		t.Fatalf("range error %q does not name the problem", out["error"])
	}
	// Still alive and serving.
	mustCall(t, "GET", base+"/healthz", nil, http.StatusOK)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/query",
		map[string]any{"kind": "size", "f": h}, http.StatusOK)
}

// TestJSONBodyLimit checks the JSON routes' shared body limit: a body
// over 1 MiB is refused with 413, the same status the eval route gives
// one over its own limit, and a body just under it is served.
func TestJSONBodyLimit(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := ts.URL
	sid := createSession(t, base, SessionOptions{Vars: 4})
	f, g := mkVar(t, base, sid, 0, false), mkVar(t, base, sid, 1, false)
	body := func(pad int) map[string]any {
		return map[string]any{"op": "xor", "f": f, "g": g, "pad": strings.Repeat("x", pad)}
	}
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/apply", body(1<<20), http.StatusRequestEntityTooLarge)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/apply", body(1<<20-100), http.StatusOK)
}

// TestServerGracefulShutdown checks that Shutdown drains accepted session
// work and closes every manager.
func TestServerGracefulShutdown(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	base := ts.URL
	rng := rand.New(rand.NewSource(3))

	sid := createSession(t, base, SessionOptions{Vars: 14, Engine: "par", Workers: 2})
	f := buildDNF(t, base, sid, rng, 14, 6, 4)
	g := buildDNF(t, base, sid, rng, 14, 6, 4)
	apply(t, base, sid, "xor", f, g)

	sess, err := srv.reg.get(sid)
	if err != nil {
		t.Fatalf("get session: %v", err)
	}

	ts.Close() // drain HTTP first, as cmd/bfbdd-serve does
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n := srv.reg.count(); n != 0 {
		t.Fatalf("%d sessions survived shutdown", n)
	}
	if !sess.mgr.Closed() {
		t.Fatalf("session manager not closed by shutdown")
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestServerIdleExpiry checks the janitor path via a tiny TTL.
func TestServerIdleExpiry(t *testing.T) {
	srv, ts := testServer(t, Config{SessionIdleExpiry: 50 * time.Millisecond})
	base := ts.URL
	sid := createSession(t, base, SessionOptions{Vars: 4})

	deadline := time.Now().Add(5 * time.Second)
	for srv.reg.count() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session %s not expired", sid)
		}
		// The janitor ticks at 1s minimum; help it along directly.
		srv.reg.expireIdle(srv.cfg.SessionIdleExpiry)
		time.Sleep(10 * time.Millisecond)
	}
	mustCall(t, "GET", base+"/v1/sessions/"+sid, nil, http.StatusNotFound)
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if v := metricValue(t, string(mb), "bfbdd_sessions_expired_total", ""); v < 1 {
		t.Fatalf("bfbdd_sessions_expired_total = %g, want >= 1", v)
	}
}
