package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"bfbdd/internal/node"
)

// blockBytes is the spill/residency granule: one arena block of nodes.
const blockBytes = node.BlockSize * node.NodeBytes

// disjunction builds x0 | x1 | ... | x(vars-1) on a session and returns
// the final handle. On the default pbf engine the result occupies one
// arena block per level, so its resident footprint is vars*blockBytes.
func disjunction(t *testing.T, base, sid string, vars int) uint64 {
	t.Helper()
	acc := mkVar(t, base, sid, 0, false)
	for i := 1; i < vars; i++ {
		acc = apply(t, base, sid, "or", acc, mkVar(t, base, sid, i, false))
	}
	return acc
}

// sessionSpill reads one session's tiering split from its stats route.
func sessionSpill(t *testing.T, base, sid string) (resident, spilled uint64) {
	t.Helper()
	out := mustCall(t, "GET", base+"/v1/sessions/"+sid+"/stats", nil, http.StatusOK)
	r, _ := out["resident_bytes"].(float64)
	s, _ := out["spilled_bytes"].(float64)
	return uint64(r), uint64(s)
}

// satcountOf runs a satcount query and returns the decimal string.
func satcountOf(t *testing.T, base, sid string, h uint64) string {
	t.Helper()
	out := mustCall(t, "POST", base+"/v1/sessions/"+sid+"/query",
		map[string]any{"kind": "satcount", "f": h}, http.StatusOK)
	s, _ := out["satcount"].(string)
	return s
}

// TestServerSessionMemReport checks that GET /v1/sessions/{sid} carries
// the per-level memory report when tiering is configured, and that the
// report's totals agree with the stats snapshot.
func TestServerSessionMemReport(t *testing.T) {
	_, ts := testServer(t, Config{SpillDir: t.TempDir()})
	const vars = 8
	sid := createSession(t, ts.URL, SessionOptions{Vars: vars})
	disjunction(t, ts.URL, sid, vars)

	out := mustCall(t, "GET", ts.URL+"/v1/sessions/"+sid, nil, http.StatusOK)
	mem, ok := out["mem"].(map[string]any)
	if !ok {
		t.Fatalf("no mem report in %v", out)
	}
	resident, _ := mem["resident_bytes"].(float64)
	if resident == 0 {
		t.Fatal("mem report shows nothing resident after a build")
	}
	levels, ok := mem["levels"].([]any)
	if !ok || len(levels) != vars {
		t.Fatalf("mem report has %d levels, want %d", len(levels), vars)
	}
	for _, l := range levels {
		lm := l.(map[string]any)
		if sp, _ := lm["spilled"].(bool); sp {
			t.Fatalf("level %v spilled without any spill trigger", lm)
		}
	}
}

// TestServerIdleSpill checks the janitor's idle tiering: a session left
// alone past SessionIdleSpill is spilled to disk in the background, and
// the next query transparently reads the spilled levels and still
// answers correctly.
func TestServerIdleSpill(t *testing.T) {
	_, ts := testServer(t, Config{
		SpillDir:         t.TempDir(),
		SessionIdleSpill: 50 * time.Millisecond,
	})
	const vars = 12
	sid := createSession(t, ts.URL, SessionOptions{Vars: vars})
	h := disjunction(t, ts.URL, sid, vars)
	want := satcountOf(t, ts.URL, sid, h) // touches the session; idle clock restarts here

	deadline := time.Now().Add(5 * time.Second)
	var spilled uint64
	for {
		// The stats route does not touch the idle clock, so polling it
		// cannot keep the session hot.
		_, spilled = sessionSpill(t, ts.URL, sid)
		if spilled > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if spilled == 0 {
		t.Fatal("janitor never spilled the idle session")
	}

	if got := satcountOf(t, ts.URL, sid, h); got != want {
		t.Fatalf("satcount over spilled session = %s, want %s", got, want)
	}

	out := mustCall(t, "GET", ts.URL+"/v1/sessions/"+sid+"/stats", nil, http.StatusOK)
	spill, ok := out["spill"].(map[string]any)
	if !ok {
		t.Fatalf("no spill section in stats %v", out)
	}
	if ops, _ := spill["ops"].(float64); ops == 0 {
		t.Fatal("stats spill.ops is zero after an idle spill")
	}
}

// TestServerResidentCapAcceptance is the larger-than-RAM acceptance
// test: N sessions whose combined node bytes exceed MaxResidentBytes by
// at least 2x are built back to back; the resident cap must hold (to
// one level granule) by spilling the coldest sessions, and every
// session — resident or spilled — must still answer applies and evals
// with oracle-verified results.
func TestServerResidentCapAcceptance(t *testing.T) {
	// The cap is stated in blocks so the workload (sessions × vars
	// blocks) stays about 2.26× the cap whatever a node's size.
	const (
		sessions = 8
		vars     = 24
		capBytes = 85 * blockBytes
	)
	_, ts := testServer(t, Config{
		SpillDir:         t.TempDir(),
		MaxResidentBytes: capBytes,
	})

	sids := make([]string, sessions)
	handles := make([]uint64, sessions)
	for i := range sids {
		sids[i] = createSession(t, ts.URL, SessionOptions{Vars: vars})
		handles[i] = disjunction(t, ts.URL, sids[i], vars)
	}
	// One more allocating request runs the admission-time cap enforcement
	// after the last build's growth.
	mkVar(t, ts.URL, sids[sessions-1], 0, true)

	var resident, spilled uint64
	for _, sid := range sids {
		r, s := sessionSpill(t, ts.URL, sid)
		resident += r
		spilled += s
	}
	total := resident + spilled
	if total < 2*capBytes {
		t.Fatalf("workload too small for the acceptance bar: %d total node bytes, need >= %d",
			total, 2*capBytes)
	}
	if resident > capBytes+blockBytes {
		t.Fatalf("resident pool %d bytes exceeds cap %d by more than one level granule (%d)",
			resident, capBytes, blockBytes)
	}
	if spilled == 0 {
		t.Fatal("nothing spilled despite the pool being over the resident cap")
	}

	// Oracle check on every session, hot or spilled: the disjunction of
	// all vars satisfies every assignment except all-false, so satcount
	// is 2^vars - 1, the all-false eval is false, and any single-true
	// eval is true. Reading a spilled session faults its levels back in
	// transparently.
	wantCount := fmt.Sprint((uint64(1) << vars) - 1)
	for i, sid := range sids {
		if got := satcountOf(t, ts.URL, sid, handles[i]); got != wantCount {
			t.Fatalf("session %d: satcount = %s, want %s", i, got, wantCount)
		}
		assignment := make([]bool, vars)
		out := mustCall(t, "POST", ts.URL+"/v1/sessions/"+sid+"/query",
			map[string]any{"kind": "eval", "f": handles[i], "assignment": assignment}, http.StatusOK)
		if v, _ := out["value"].(bool); v {
			t.Fatalf("session %d: all-false eval = true, want false", i)
		}
		assignment[i%vars] = true
		out = mustCall(t, "POST", ts.URL+"/v1/sessions/"+sid+"/query",
			map[string]any{"kind": "eval", "f": handles[i], "assignment": assignment}, http.StatusOK)
		if v, _ := out["value"].(bool); !v {
			t.Fatalf("session %d: single-true eval = false, want true", i)
		}
	}
}

// TestServerSpillConcurrency drives applies, queries, GCs, stats reads,
// and session-info reads against a tiny resident cap, an aggressive
// idle-spill janitor, and a fast checkpointer, so background spills
// race foreground work and checkpoint serialization on every session.
// Run under -race this is the interleaving suite for
// spill-vs-apply-vs-GC-vs-checkpoint; correctness of answers is checked
// by the oracle tests above, this one is about data races and liveness.
func TestServerSpillConcurrency(t *testing.T) {
	_, ts := testServer(t, Config{
		SpillDir:           t.TempDir(),
		SessionIdleSpill:   30 * time.Millisecond,
		MaxResidentBytes:   blockBytes, // every allocating request spills the coldest sessions
		CheckpointDir:      t.TempDir(),
		CheckpointInterval: 50 * time.Millisecond,
	})
	const (
		sessions = 3
		vars     = 10
		workers  = 4
		opsEach  = 40
	)
	sids := make([]string, sessions)
	for i := range sids {
		sids[i] = createSession(t, ts.URL, SessionOptions{Vars: vars})
		disjunction(t, ts.URL, sids[i], vars)
	}

	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(sid string, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsEach; i++ {
					switch rng.Intn(5) {
					case 0:
						f := mkVar(t, ts.URL, sid, rng.Intn(vars), rng.Intn(2) == 0)
						g := mkVar(t, ts.URL, sid, rng.Intn(vars), rng.Intn(2) == 0)
						apply(t, ts.URL, sid, "xor", f, g)
					case 1:
						h := mkVar(t, ts.URL, sid, rng.Intn(vars), false)
						satcountOf(t, ts.URL, sid, h)
					case 2:
						mustCall(t, "POST", ts.URL+"/v1/sessions/"+sid+"/gc", nil, http.StatusOK)
					case 3:
						sessionSpill(t, ts.URL, sid)
					case 4:
						mustCall(t, "GET", ts.URL+"/v1/sessions/"+sid, nil, http.StatusOK)
					}
					if rng.Intn(4) == 0 {
						time.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond)
					}
				}
			}(sids[s], int64(s*workers+w+1))
		}
	}
	wg.Wait()

	// Every session must end the storm alive and consistent.
	for i, sid := range sids {
		out := mustCall(t, "GET", ts.URL+"/v1/sessions/"+sid, nil, http.StatusOK)
		info := out["info"].(map[string]any)
		if poisoned, _ := info["poisoned"].(bool); poisoned {
			t.Fatalf("session %d poisoned by the spill storm", i)
		}
	}
}
