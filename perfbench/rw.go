package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"bfbdd"
)

// evalLimitMs is the latency limit serve-rw's eval p99 is held to.
const evalLimitMs = 10

// evalPool is how many distinct seeded eval batches serve-rw cycles
// through; each response is checked against its batch's reference.
const evalPool = 16

// serveRW is reads beside writes. Before set-up the multiplier is built
// in the library, snapshotted and compiled; set-up starts the server,
// restores the snapshot into a session, publishes it as a compiled
// function and creates the writer's session. Then one connection evaluates
// seeded assignment batches against the published function in an open
// loop at a fixed rate, each request timed from when it was due, while a
// second connection runs the serve-apply-1c writer on its own session.
// Every eval response is checked against the library artifact's
// EvalBatch. The read path takes no executor and no lock, but it shares
// the CPUs, the HTTP stack and the Go heap with the writes.
func serveRW(r *run) error {
	c, err := loadCircuit(r.cfg.rwCircuit)
	if err != nil {
		return err
	}
	ref, err := rwPrepare(c)
	if err != nil {
		return err
	}
	st, err := setUp(r, r.cfg.setups, func(dir string) (*rwState, error) { return rwSetup(r, ref, dir) })
	if err != nil {
		return err
	}
	defer st.close()
	c1, c2, writer := st.c1, st.c2, st.writer

	rng := rand.New(rand.NewSource(r.cfg.seed))
	bodies := make([][]byte, evalPool)
	want := make([][]bool, evalPool)
	for i := range bodies {
		rows := make([][]bool, r.cfg.evalBatch)
		for j := range rows {
			rows[j] = make([]bool, ref.fn.NumVars())
			for v := range rows[j] {
				rows[j][v] = rng.Intn(2) == 1
			}
		}
		want[i] = ref.fn.EvalBatch(ref.root, rows)
		if bodies[i], err = json.Marshal(map[string]any{"root": ref.rootID, "assignments": rows}); err != nil {
			return err
		}
	}

	before, err := c2.counters(writer.session())
	if err != nil {
		return err
	}
	runtime.GC()
	gw := watchGo()
	var (
		wg                       sync.WaitGroup
		evalMs, late, evalServer []float64
		plain, traced            []float64
		parts                    applyParts
	)
	done0 := r.completed()
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		interval := time.Duration(float64(time.Second) / r.cfg.evalRate)
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * interval)
			if due.Sub(start) >= r.cfg.window {
				return
			}
			time.Sleep(time.Until(due))
			sent := time.Now()
			path := "/v1/funcs/rw/eval"
			tr := r.tracedBlock(due.Sub(start))
			if tr {
				path += "?trace=1"
			}
			var res struct {
				Values []bool `json:"values"`
			}
			d, tid, err := c1.call("POST", path, bodies[k%evalPool], &res)
			late = append(late, ms(sent.Sub(due)))
			if err != nil {
				evalMs = append(evalMs, math.Inf(1))
				continue
			}
			evalMs = append(evalMs, ms(sent.Sub(due)+d))
			if !slices.Equal(res.Values, want[k%evalPool]) {
				r.wrong("eval batch %d disagrees with the library artifact's EvalBatch", k%evalPool)
			}
			if tid != "" {
				if ex, err := c1.fetchTrace(tid); err == nil && len(ex.Spans) > 0 {
					evalServer = append(evalServer, float64(ex.Spans[0].DurationNs)/1e6)
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		plain, traced, parts = writer.loop(start)
	}()
	wg.Wait()
	window := time.Since(start)
	done := r.completed() - done0
	gw.finish(r)

	after, err := c2.counters(writer.session())
	if err != nil {
		return err
	}
	restored, err := c1.stats(st.restored)
	if err != nil {
		return err
	}
	r.reportLatency("eval (from due time)", evalMs)
	p99 := percentile(evalMs, 99)
	r.detail("eval p99 %.4fms against the %dms limit: met=%v; writer applies n=%d p50=%.4fms; generator late p99=%.4fms",
		p99, evalLimitMs, p99 <= evalLimitMs, len(plain), median(plain), percentile(late, 99))
	r.set("throughput_per_s", float64(done)/window.Seconds())
	r.set("peak_mb", (after.st.PeakBytes+restored.PeakBytes+st.artifactBytes)/(1<<20))
	if r.cfg.trace {
		r.setWindow(before, after)
		r.set("server.eval_ms", median(evalServer))
		r.set("server.eval_late_ms", percentile(late, 99))
		parts.report(r, plain, traced)
	}
	return nil
}

// rwReference is serve-rw's input and oracle: the multiplier's snapshot
// and the library artifact the eval responses are checked against.
type rwReference struct {
	snap    []byte
	outputs int
	fn      *bfbdd.CompiledFunc
	root    int    // the evaluated output's index in fn
	rootID  uint64 // its handle, in the snapshot and the published function
}

func rwPrepare(c *circuit) (*rwReference, error) {
	m, outs, err := libraryBuild(c)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	roots := make([]bfbdd.SnapshotRoot, len(outs))
	for i, b := range outs {
		roots[i] = bfbdd.SnapshotRoot{ID: uint64(i + 1), B: b}
	}
	var snap bytes.Buffer
	if err := m.SnapshotRoots(&snap, roots); err != nil {
		return nil, err
	}
	fn, err := m.CompileRoots(roots)
	if err != nil {
		return nil, err
	}
	// The widest product column, as the compiled-eval benchmarks use.
	ref := &rwReference{snap: snap.Bytes(), outputs: len(outs), fn: fn, rootID: uint64(len(outs)/2 + 1)}
	ref.root, _ = fn.RootByID(ref.rootID)
	return ref, nil
}

// rwState is what serve-rw's set-up leaves: the server with the restored
// and published multiplier, the writer's session, and both connections.
type rwState struct {
	*stack
	writer        *applier
	restored      string // the restored session
	artifactBytes float64
}

func rwSetup(r *run, ref *rwReference, dir string) (*rwState, error) {
	s, err := r.startStack(dir)
	if err != nil {
		return nil, err
	}
	st := &rwState{stack: s}
	var restored struct {
		Info struct {
			Session string `json:"session"`
		} `json:"info"`
		Handles []uint64 `json:"handles"`
	}
	if _, _, err := st.c1.call("POST", "/v1/sessions/restore?engine=pbf", ref.snap, &restored); err != nil {
		return nil, errors.Join(err, st.close())
	}
	if len(restored.Handles) != ref.outputs {
		r.wrong("restored session has %d handles, snapshot %d", len(restored.Handles), ref.outputs)
	}
	st.restored = restored.Info.Session
	var published struct {
		Bytes float64 `json:"bytes"`
	}
	if _, _, err := st.c1.call("POST", "/v1/sessions/"+st.restored+"/publish",
		map[string]string{"name": "rw"}, &published); err != nil {
		return nil, errors.Join(err, st.close())
	}
	st.artifactBytes = published.Bytes
	if st.writer, err = newApplier(st.c2, r.cfg.sessionVars, r.cfg.seed); err != nil {
		return nil, errors.Join(err, st.close())
	}
	return st, nil
}
