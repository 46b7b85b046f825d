package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bfbdd"
	"bfbdd/internal/faultinject"
	"bfbdd/internal/walreplay"
)

// freeHandles releases wire handles via the free endpoint.
func freeHandles(t *testing.T, base, sid string, hs ...uint64) {
	t.Helper()
	if len(hs) == 0 {
		return
	}
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/free",
		map[string]any{"handles": hs}, http.StatusOK)
}

// growDNFOverHTTP ORs random cubes into an accumulator over the wire,
// freeing intermediate handles as it goes (the well-behaved-client shape
// the session budget assumes), until an operation fails — returning its
// status code and body — or maxTerms is reached (returning 0, nil).
func growDNFOverHTTP(t *testing.T, base, sid string, rng *rand.Rand, vars, maxTerms, width int) (int, map[string]any) {
	t.Helper()
	varsURL := base + "/v1/sessions/" + sid + "/vars"
	applyURL := base + "/v1/sessions/" + sid + "/apply"
	var acc uint64
	var haveAcc bool
	for i := 0; i < maxTerms; i++ {
		var cube uint64
		var haveCube bool
		for j := 0; j < width; j++ {
			code, out := call(t, "POST", varsURL,
				map[string]any{"index": rng.Intn(vars), "negated": rng.Intn(2) == 0})
			if code != http.StatusOK {
				return code, out
			}
			lit := handleOf(t, out)
			if !haveCube {
				cube, haveCube = lit, true
				continue
			}
			code, out = call(t, "POST", applyURL,
				map[string]any{"op": "and", "f": cube, "g": lit})
			if code != http.StatusOK {
				freeHandles(t, base, sid, cube, lit)
				if haveAcc {
					freeHandles(t, base, sid, acc)
				}
				return code, out
			}
			next := handleOf(t, out)
			freeHandles(t, base, sid, cube, lit)
			cube = next
		}
		if !haveAcc {
			acc, haveAcc = cube, true
			continue
		}
		code, out := call(t, "POST", applyURL,
			map[string]any{"op": "or", "f": acc, "g": cube})
		if code != http.StatusOK {
			freeHandles(t, base, sid, acc, cube)
			return code, out
		}
		next := handleOf(t, out)
		freeHandles(t, base, sid, acc, cube)
		acc = next
	}
	if haveAcc {
		freeHandles(t, base, sid, acc)
	}
	return 0, nil
}

// TestNoteFailureClassification pins down exactly which failures poison a
// session: kernel invariant violations and unclassifiable executor panics
// do; engine misuse, budget aborts, injected faults, and ordinary service
// errors leave the session healthy (their unwind paths are designed to
// leave the manager consistent).
func TestNoteFailureClassification(t *testing.T) {
	srv, _ := testServer(t, Config{})
	cases := []struct {
		name       string
		err        error
		wantPoison bool
	}{
		{"nil", nil, false},
		{"ordinary service error", errors.New("no such handle"), false},
		{"engine misuse panic", &panicError{val: "bfbdd: handle used after Free"}, false},
		{"budget abort panic", &panicError{val: &bfbdd.BudgetError{Kind: "nodes"}}, false},
		{"injected fault panic", &panicError{val: fmt.Errorf("boom: %w", faultinject.ErrInjected)}, false},
		{"internal error", &bfbdd.InternalError{Op: "MkNode", Cause: "bad ref"}, true},
		{"internal error panic", &panicError{val: &bfbdd.InternalError{Op: "GC", Cause: "bad mark"}}, true},
		{"unclassifiable panic", &panicError{val: "runtime error: index out of range"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := srv.reg.create(SessionOptions{Vars: 4})
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			sess.noteFailure(tc.err)
			if got := sess.isPoisoned(); got != tc.wantPoison {
				t.Fatalf("poisoned = %v, want %v", got, tc.wantPoison)
			}
		})
	}
}

// TestFailStatusMapping pins fail's error-to-status table. Construction
// routes validate through walreplay before the engine sees an operand, so
// no known request reaches the executor-panic branches; the table keeps
// them covered: engine misuse ("bfbdd: " panics) is the client's fault,
// any other panic a server bug.
func TestFailStatusMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		code int
		body string
	}{
		{"missing handle", fmt.Errorf("%w: handle 9", walreplay.ErrNoHandle), http.StatusBadRequest, "no such handle"},
		{"invalid operand", fmt.Errorf("%w: variable 9 out of range [0,4)", walreplay.ErrInvalid), http.StatusBadRequest, "out of range"},
		{"engine misuse panic", &panicError{val: "bfbdd: variable 9 out of range [0,4)"}, http.StatusBadRequest, "bfbdd: variable 9"},
		{"other panic", &panicError{val: "runtime error: index out of range"}, http.StatusInternalServerError, "internal error"},
		{"budget abort panic", &panicError{val: &bfbdd.BudgetError{Kind: "nodes"}}, http.StatusRequestEntityTooLarge, "budget"},
		{"internal error", &bfbdd.InternalError{Op: "GC", Cause: "bad mark"}, http.StatusInternalServerError, "internal engine fault"},
		{"injected fault", fmt.Errorf("journal: %w", faultinject.ErrInjected), http.StatusInternalServerError, "journal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			fail(rec, tc.err)
			if rec.Code != tc.code || !strings.Contains(rec.Body.String(), tc.body) {
				t.Fatalf("fail(%v) = %d %s, want %d containing %q", tc.err, rec.Code, rec.Body.String(), tc.code, tc.body)
			}
		})
	}
}

// TestPoisonedSessionIsolation poisons one session and checks the full
// containment contract over HTTP: its operations answer 409, its info and
// stats stay inspectable, it is skipped by the checkpointer (the last
// good checkpoint on disk stays authoritative), it can be deleted — and a
// second session on the same server is completely unaffected.
func TestPoisonedSessionIsolation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cp")
	srv, ts := testServer(t, Config{CheckpointDir: dir, CheckpointInterval: -1})
	base := ts.URL

	a := createSession(t, base, SessionOptions{Vars: 8})
	b := createSession(t, base, SessionOptions{Vars: 8})
	ha := mkVar(t, base, a, 0, false)
	mkVar(t, base, b, 0, false)

	sess, err := srv.reg.get(a)
	if err != nil {
		t.Fatalf("get %s: %v", a, err)
	}
	sess.poison(errors.New("poisoned by test"))

	// Every operation on the poisoned session is refused with 409,
	// including reads that would touch the engine.
	for _, req := range []struct {
		url  string
		body any
	}{
		{base + "/v1/sessions/" + a + "/vars", map[string]any{"index": 1}},
		{base + "/v1/sessions/" + a + "/apply", map[string]any{"op": "and", "f": ha, "g": ha}},
		{base + "/v1/sessions/" + a + "/query", map[string]any{"kind": "size", "f": ha}},
		{base + "/v1/sessions/" + a + "/free", map[string]any{"handles": []uint64{ha}}},
	} {
		out := mustCall(t, "POST", req.url, req.body, http.StatusConflict)
		if msg, _ := out["error"].(string); !strings.Contains(msg, "poisoned") {
			t.Fatalf("409 body does not explain the poisoning: %v", out)
		}
	}

	// Info and stats bypass the gate so the wreck can be inspected.
	out := mustCall(t, "GET", base+"/v1/sessions/"+a, nil, http.StatusOK)
	info, _ := out["info"].(map[string]any)
	if p, _ := info["poisoned"].(bool); !p {
		t.Fatalf("session info does not report poisoned: %v", out)
	}
	mustCall(t, "GET", base+"/v1/sessions/"+a+"/stats", nil, http.StatusOK)

	// The other session is untouched.
	hb := mkVar(t, base, b, 1, false)
	apply(t, base, b, "or", hb, hb)

	// The metrics surface records the poisoning.
	body := mustCall(t, "GET", base+"/metrics", nil, http.StatusOK)["raw"].(string)
	if v := metricValue(t, body, "bfbdd_sessions_poisoned", ""); v != 1 {
		t.Fatalf("bfbdd_sessions_poisoned = %v, want 1", v)
	}
	if v := metricValue(t, body, "bfbdd_sessions_poisoned_total", ""); v != 1 {
		t.Fatalf("bfbdd_sessions_poisoned_total = %v, want 1", v)
	}

	// The checkpointer skips the poisoned session (its in-memory state is
	// suspect) but still persists the healthy one.
	srv.CheckpointNow()
	if p := latestSnapshot(dir, a); p != "" {
		t.Fatalf("poisoned session was checkpointed: %s", p)
	}
	if p := latestSnapshot(dir, b); p == "" {
		t.Fatalf("healthy session not checkpointed")
	}

	// Deletion reclaims the poisoned session.
	mustCall(t, "DELETE", base+"/v1/sessions/"+a, nil, http.StatusOK)
	mustCall(t, "GET", base+"/v1/sessions/"+a, nil, http.StatusNotFound)
	mkVar(t, base, b, 2, false)
}

// TestSessionBudgetOverHTTP drives a session into its own node budget and
// checks the wire contract: the offending build answers 413 with the
// budget report, the session is NOT poisoned (a budget abort leaves the
// manager consistent by design), and subsequent operations succeed.
func TestSessionBudgetOverHTTP(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := ts.URL
	sid := createSession(t, base, SessionOptions{
		Vars: 24, Engine: "pbf", EvalThreshold: 16, MaxNodes: 4000,
	})

	code, out := growDNFOverHTTP(t, base, sid, rand.New(rand.NewSource(11)), 24, 4096, 8)
	if code == 0 {
		t.Fatal("build finished without tripping a 4000-node session budget")
	}
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("budget trip answered %d (%v), want 413", code, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "budget") {
		t.Fatalf("413 body does not carry the budget report: %v", out)
	}

	// Not poisoned, and immediately usable again.
	info := mustCall(t, "GET", base+"/v1/sessions/"+sid, nil, http.StatusOK)["info"].(map[string]any)
	if p, _ := info["poisoned"].(bool); p {
		t.Fatal("budget abort poisoned the session")
	}
	h0 := mkVar(t, base, sid, 0, false)
	h1 := mkVar(t, base, sid, 1, false)
	apply(t, base, sid, "and", h0, h1)

	// The abort is visible in the session's budget counters.
	st := mustCall(t, "GET", base+"/v1/sessions/"+sid+"/stats", nil, http.StatusOK)
	budget, _ := st["budget"].(map[string]any)
	if aborts, _ := budget["aborts"].(float64); aborts == 0 {
		t.Fatalf("stats budget.aborts = %v, want > 0", st["budget"])
	}
}

// TestBatchBudgetPartialOverHTTP checks the batch endpoint's partial-
// completion contract: a batch aborted by the budget partway through
// answers 413 with a "completed" list whose handles are real, registered
// BDDs — the client keeps the work already paid for.
func TestBatchBudgetPartialOverHTTP(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := ts.URL
	sid := createSession(t, base, SessionOptions{
		Vars: 24, Engine: "pbf", EvalThreshold: 16, MaxNodes: 4000,
	})

	// Two random DNFs over the session's variables whose XOR blows well
	// past the budget, while the DNFs themselves (intermediates freed as
	// they grow) fit comfortably under it.
	rng := rand.New(rand.NewSource(5))
	dnf := func() uint64 {
		varsURL := base + "/v1/sessions/" + sid + "/vars"
		acc := uint64(0)
		for i := 0; i < 24; i++ {
			out := mustCall(t, "POST", varsURL,
				map[string]any{"index": rng.Intn(24), "negated": rng.Intn(2) == 0}, http.StatusOK)
			cube := handleOf(t, out)
			for j := 1; j < 8; j++ {
				out := mustCall(t, "POST", varsURL,
					map[string]any{"index": rng.Intn(24), "negated": rng.Intn(2) == 0}, http.StatusOK)
				lit := handleOf(t, out)
				next := apply(t, base, sid, "and", cube, lit)
				freeHandles(t, base, sid, cube, lit)
				cube = next
			}
			if acc == 0 {
				acc = cube
				continue
			}
			next := apply(t, base, sid, "or", acc, cube)
			freeHandles(t, base, sid, acc, cube)
			acc = next
		}
		return acc
	}
	even, odd := dnf(), dnf()
	v0, v1 := mkVar(t, base, sid, 0, false), mkVar(t, base, sid, 1, false)
	v2, v3 := mkVar(t, base, sid, 2, false), mkVar(t, base, sid, 3, false)

	code, out := call(t, "POST", base+"/v1/sessions/"+sid+"/batch", map[string]any{
		"ops": []map[string]any{
			{"op": "and", "f": v0, "g": v1},
			{"op": "or", "f": v2, "g": v3},
			{"op": "xor", "f": even, "g": odd},
		},
	})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch answered %d (%v), want 413", code, out)
	}
	completed, _ := out["completed"].([]any)
	if len(completed) != 2 {
		t.Fatalf("completed = %v, want the two cheap leading ops", out["completed"])
	}
	for i, c := range completed {
		op, _ := c.(map[string]any)
		if idx, _ := op["index"].(float64); int(idx) != i {
			t.Fatalf("completed[%d].index = %v, want %d", i, op["index"], i)
		}
		h, ok := op["handle"].(float64)
		if !ok {
			t.Fatalf("completed[%d] has no handle: %v", i, c)
		}
		// The partial handle must be a real, canonical BDD.
		want := [][2]uint64{{v0, v1}, {v2, v3}}[i]
		wantOp := []string{"and", "or"}[i]
		ref := apply(t, base, sid, wantOp, want[0], want[1])
		eq := mustCall(t, "POST", base+"/v1/sessions/"+sid+"/query",
			map[string]any{"kind": "equal", "f": uint64(h), "g": ref}, http.StatusOK)
		if e, _ := eq["equal"].(bool); !e {
			t.Fatalf("completed[%d] handle is not the expected result", i)
		}
	}
}

// TestBudgetRaceTwoSessions is the isolation acceptance test: one session
// repeatedly slams into a tiny node budget while a second session on the
// same server completes all of its work, concurrently. Run with -race —
// the budget's degradation ladder, the abort unwind, and the other
// session's builds all share server state.
func TestBudgetRaceTwoSessions(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := ts.URL
	small := createSession(t, base, SessionOptions{
		Vars: 24, Engine: "pbf", EvalThreshold: 16, MaxNodes: 4000,
	})
	big := createSession(t, base, SessionOptions{Vars: 24, Engine: "pbf"})

	// Goroutine-safe helpers: no t.Fatal off the test goroutine.
	post := func(url string, body any) (int, map[string]any) {
		return call(t, "POST", url, body)
	}
	mkvar := func(sid string, rng *rand.Rand) (uint64, int) {
		code, out := post(base+"/v1/sessions/"+sid+"/vars",
			map[string]any{"index": rng.Intn(24), "negated": rng.Intn(2) == 0})
		if code != http.StatusOK {
			return 0, code
		}
		return uint64(out["handle"].(float64)), 0
	}
	combine := func(sid, op string, f, g uint64) (uint64, int) {
		code, out := post(base+"/v1/sessions/"+sid+"/apply",
			map[string]any{"op": op, "f": f, "g": g})
		if code != http.StatusOK {
			return 0, code
		}
		h := uint64(out["handle"].(float64))
		post(base+"/v1/sessions/"+sid+"/free", map[string]any{"handles": []uint64{f, g}})
		return h, 0
	}

	var wg sync.WaitGroup
	var hits413 int
	var smallErr, bigErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		// Two full budget-trip rounds: trip, then prove the session still
		// works by tripping it again from a clean start.
		for round := 0; round < 2; round++ {
			acc := uint64(0)
		grow:
			for term := 0; term < 4096; term++ {
				cube, code := mkvar(small, rng)
				if code != 0 {
					smallErr = fmt.Errorf("round %d: var answered %d", round, code)
					return
				}
				for j := 1; j < 8; j++ {
					lit, code := mkvar(small, rng)
					if code != 0 {
						smallErr = fmt.Errorf("round %d: var answered %d", round, code)
						return
					}
					if cube, code = combine(small, "and", cube, lit); code != 0 {
						if code != http.StatusRequestEntityTooLarge {
							smallErr = fmt.Errorf("round %d: apply answered %d, want 413", round, code)
							return
						}
						hits413++
						break grow
					}
				}
				if acc == 0 {
					acc = cube
					continue
				}
				if acc, code = combine(small, "or", acc, cube); code != 0 {
					if code != http.StatusRequestEntityTooLarge {
						smallErr = fmt.Errorf("round %d: apply answered %d, want 413", round, code)
						return
					}
					hits413++
					break grow
				}
			}
			if acc != 0 {
				post(base+"/v1/sessions/"+small+"/free", map[string]any{"handles": []uint64{acc}})
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(23))
		acc := uint64(0)
		for term := 0; term < 24; term++ {
			cube, code := mkvar(big, rng)
			if code != 0 {
				bigErr = fmt.Errorf("var answered %d", code)
				return
			}
			for j := 1; j < 6; j++ {
				lit, code := mkvar(big, rng)
				if code != 0 {
					bigErr = fmt.Errorf("var answered %d", code)
					return
				}
				if cube, code = combine(big, "and", cube, lit); code != 0 {
					bigErr = fmt.Errorf("apply answered %d", code)
					return
				}
			}
			if acc == 0 {
				acc = cube
				continue
			}
			if acc, code = combine(big, "or", acc, cube); code != 0 {
				bigErr = fmt.Errorf("apply answered %d", code)
				return
			}
		}
	}()
	wg.Wait()
	if smallErr != nil {
		t.Fatalf("budget-capped session: %v", smallErr)
	}
	if bigErr != nil {
		t.Fatalf("uncapped session hit an error while its neighbor aborted: %v", bigErr)
	}
	if hits413 == 0 {
		t.Fatal("budget-capped session never answered 413")
	}
}

// TestGlobalShedOverBudget checks the server-wide overload valve: once the
// pool's live engine bytes exceed Config.MaxTotalBytes, allocating
// requests are shed with 429 + Retry-After, while reads, frees, and
// deletes — the pressure-relief valves — always pass.
func TestGlobalShedOverBudget(t *testing.T) {
	_, ts := testServer(t, Config{MaxTotalBytes: 1})
	base := ts.URL

	// The pool is empty, so creation and the first build are admitted;
	// after them the pool is decidedly over a one-byte budget.
	sid := createSession(t, base, SessionOptions{Vars: 8})
	h := mkVar(t, base, sid, 0, false)

	// Allocating routes shed. Check the raw response for Retry-After.
	resp, err := http.Post(base+"/v1/sessions/"+sid+"/vars", "application/json",
		strings.NewReader(`{"index":1}`))
	if err != nil {
		t.Fatalf("vars: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("allocating request answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After hint")
	}
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/apply",
		map[string]any{"op": "and", "f": h, "g": h}, http.StatusTooManyRequests)
	mustCall(t, "POST", base+"/v1/sessions", SessionOptions{Vars: 8}, http.StatusTooManyRequests)

	// The metrics surface shows both the pressure and the shedding while
	// the pool is still over budget.
	body := mustCall(t, "GET", base+"/metrics", nil, http.StatusOK)["raw"].(string)
	if v := metricValue(t, body, "bfbdd_http_rejected_over_budget_total", ""); v < 3 {
		t.Fatalf("bfbdd_http_rejected_over_budget_total = %v, want >= 3", v)
	}
	if v := metricValue(t, body, "bfbdd_pool_live_bytes", ""); v <= 1 {
		t.Fatalf("bfbdd_pool_live_bytes = %v, want the live footprint", v)
	}

	// Reads and relief valves pass.
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/query",
		map[string]any{"kind": "size", "f": h}, http.StatusOK)
	mustCall(t, "GET", base+"/v1/sessions/"+sid, nil, http.StatusOK)
	freeHandles(t, base, sid, h)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/gc", nil, http.StatusOK)

	// Deleting the hog relieves the pressure; new work is admitted again.
	mustCall(t, "DELETE", base+"/v1/sessions/"+sid, nil, http.StatusOK)
	createSession(t, base, SessionOptions{Vars: 8})
}

// TestCheckpointRetryExhaustionAndRecovery drives the checkpoint retry
// policy end to end without fault injection by yanking the checkpoint
// directory out from under the writer: every attempt fails (retried with
// backoff up to the attempt cap, counted), the failure is latched for
// one-line-per-streak logging, and restoring the directory heals the
// stream on the next round.
func TestCheckpointRetryExhaustionAndRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cp")
	srv, ts := testServer(t, Config{CheckpointDir: dir, CheckpointInterval: -1})
	base := ts.URL
	sid := createSession(t, base, SessionOptions{Vars: 8})
	mkVar(t, base, sid, 0, false)

	srv.CheckpointNow()
	if got := srv.metrics.checkpointsWritten.Load(); got != 1 {
		t.Fatalf("baseline checkpointsWritten = %d, want 1", got)
	}
	if latestSnapshot(dir, sid) == "" {
		t.Fatalf("baseline snapshot missing")
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	srv.CheckpointNow()
	elapsed := time.Since(start)
	if got := srv.metrics.checkpointFailures.Load(); got != 1 {
		t.Fatalf("checkpointFailures = %d, want 1", got)
	}
	if got := srv.metrics.checkpointRetries.Load(); got != checkpointAttempts-1 {
		t.Fatalf("checkpointRetries = %d, want %d", got, checkpointAttempts-1)
	}
	// The backoff must actually have waited between attempts (base/2 jitter
	// floor summed over the retries), and the failure must be latched so
	// the next round logs recovery.
	if elapsed < checkpointRetryBase {
		t.Fatalf("retries completed in %v; backoff never waited", elapsed)
	}
	srv.ckpt.failingMu.Lock()
	_, failing := srv.ckpt.failing[sid]
	srv.ckpt.failingMu.Unlock()
	if !failing {
		t.Fatal("exhausted checkpoint not recorded in the failing set")
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	srv.CheckpointNow()
	if got := srv.metrics.checkpointsWritten.Load(); got != 2 {
		t.Fatalf("checkpointsWritten after recovery = %d, want 2", got)
	}
	if latestSnapshot(dir, sid) == "" {
		t.Fatalf("recovered snapshot missing")
	}
	srv.ckpt.failingMu.Lock()
	_, failing = srv.ckpt.failing[sid]
	srv.ckpt.failingMu.Unlock()
	if failing {
		t.Fatal("recovered session still in the failing set")
	}
}
