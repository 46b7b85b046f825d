package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"bfbdd/internal/server"
	"bfbdd/internal/trace"
)

// service is a bfbdd server hosted in the benchmark process on a loopback
// port, configured as bfbdd-serve runs it with persistence on: every
// session journals to a write-ahead log under the "interval" sync policy.
type service struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan error
}

func startService(dir string) (*service, error) {
	srv := server.New(server.Config{CheckpointDir: dir, WALSync: "interval"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serving goroutine, and shuts
// the server down.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	return errors.Join(err, s.srv.Shutdown(ctx))
}

// stack is a started service with the workload's two client connections.
type stack struct {
	svc    *service
	c1, c2 *conn
}

func (r *run) startStack(dir string) (*stack, error) {
	svc, err := startService(dir)
	if err != nil {
		return nil, err
	}
	return &stack{svc: svc, c1: r.dial(svc.base), c2: r.dial(svc.base)}, nil
}

func (s *stack) close() error {
	s.c1.close()
	s.c2.close()
	return s.svc.close()
}

// setUp runs build n times, each in a fresh scratch directory, closes
// every result but the last, and records the median time as setup_s.
func setUp[T interface{ close() error }](r *run, n int, build func(dir string) (T, error)) (T, error) {
	var (
		last T
		secs []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := last.close(); err != nil {
				return last, err
			}
		}
		t0 := time.Now()
		v, err := build(filepath.Join(r.dir, fmt.Sprint("setup", i)))
		if err != nil {
			return v, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	r.set("setup_s", median(secs))
	return last, nil
}

// conn is one client connection: its transport never opens a second one,
// so a workload uses exactly as many connections as it dials.
type conn struct {
	base string
	hc   *http.Client
	r    *run
}

// requestTimeout fails a request the server never answers, so a hung
// server ends the run instead of stalling it; it is twice the server's
// own default request deadline.
const requestTimeout = time.Minute

func (r *run) dial(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, hc: &http.Client{Transport: tr, Timeout: requestTimeout}, r: r}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// call sends one request and decodes its JSON reply into out, when out is
// non-nil. body is sent as is when it is a []byte and as JSON otherwise.
// It returns the round-trip time, from sending the request to reading the
// whole reply, and the id of the trace the server recorded, if any. Every
// call counts as one attempted operation; a transport error or a status
// outside 2xx counts as a failed one.
func (c *conn) call(method, path string, body, out any) (time.Duration, string, error) {
	var data []byte
	switch b := body.(type) {
	case nil:
	case []byte:
		data = b
	default:
		var err error
		if data, err = json.Marshal(b); err != nil {
			return 0, "", err
		}
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(data))
	if err != nil {
		return 0, "", err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.r.attempt(err)
		return time.Since(start), "", err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(reply))
	}
	if err == nil && out != nil {
		err = json.Unmarshal(reply, out)
	}
	c.r.attempt(err)
	return d, resp.Header.Get("X-Bfbdd-Trace"), err
}

// fetchTrace reads one recorded trace from the server's span export.
func (c *conn) fetchTrace(tid string) (*trace.Exported, error) {
	var ex trace.Exported
	if _, _, err := c.call("GET", "/v1/debug/traces/"+tid, nil, &ex); err != nil {
		return nil, err
	}
	c.r.keepSpan(&ex)
	return &ex, nil
}

// sessionStats is the part of GET /v1/sessions/{sid}/stats the benchmark
// reads: the engine's cumulative counters for the session.
type sessionStats struct {
	Ops           float64 `json:"ops"`
	CacheHits     float64 `json:"cache_hits"`
	Expansion     float64 `json:"expansion_seconds"`
	Reduction     float64 `json:"reduction_seconds"`
	GCMark        float64 `json:"gc_mark_seconds"`
	GCFix         float64 `json:"gc_fix_seconds"`
	GCRehash      float64 `json:"gc_rehash_seconds"`
	Steals        float64 `json:"steals"`
	StolenOps     float64 `json:"stolen_ops"`
	ContextPushes float64 `json:"context_pushes"`
	LockWait      float64 `json:"lock_wait_seconds"`
	GCCount       float64 `json:"gc_count"`
	PeakBytes     float64 `json:"peak_bytes"`
}

func (c *conn) stats(sid string) (sessionStats, error) {
	var st sessionStats
	_, _, err := c.call("GET", "/v1/sessions/"+sid+"/stats", nil, &st)
	return st, err
}

// add accumulates o's counters into s, or subtracts them with sign -1.
// The peak is a high-water mark, so it takes the larger of the two.
func (s *sessionStats) add(o sessionStats, sign float64) {
	s.Ops += sign * o.Ops
	s.CacheHits += sign * o.CacheHits
	s.Expansion += sign * o.Expansion
	s.Reduction += sign * o.Reduction
	s.GCMark += sign * o.GCMark
	s.GCFix += sign * o.GCFix
	s.GCRehash += sign * o.GCRehash
	s.Steals += sign * o.Steals
	s.StolenOps += sign * o.StolenOps
	s.ContextPushes += sign * o.ContextPushes
	s.LockWait += sign * o.LockWait
	s.GCCount += sign * o.GCCount
	s.PeakBytes = max(s.PeakBytes, o.PeakBytes)
}

// setCore records the kernel counters a served workload's sessions
// accumulated, scaled by 1/per (per build for a served build, 1 for a
// measured window).
func (r *run) setCore(st sessionStats, per float64) {
	r.set("core.expansion_s", st.Expansion/per)
	r.set("core.reduction_s", st.Reduction/per)
	r.set("core.gc_mark_s", st.GCMark/per)
	r.set("core.gc_fix_s", st.GCFix/per)
	r.set("core.gc_rehash_s", st.GCRehash/per)
	r.set("core.ops_m", st.Ops/per/1e6)
	r.set("core.steals", st.Steals/per)
	r.set("core.stolen_ops", st.StolenOps/per)
	r.set("core.gc_count", st.GCCount/per)
	r.set("core.context_pushes", st.ContextPushes/per)
	r.set("core.peak_mb", st.PeakBytes/(1<<20))
	r.set("unique.lock_wait_s", st.LockWait/per)
	if st.Reduction > 0 {
		r.set("unique.lock_wait_ratio", st.LockWait/st.Reduction)
	}
	r.set("cache.hit_ratio", cacheHitRatio(uint64(st.CacheHits), uint64(st.Ops)))
}

// counters is what a serving workload reads at both ends of its measured
// window: its session's engine counters and the coalescer totals.
type counters struct {
	st           sessionStats
	batches, ops float64
}

func (c *conn) counters(sid string) (counters, error) {
	st, err := c.stats(sid)
	if err != nil {
		return counters{}, err
	}
	batches, ops, err := c.coalescerCounts()
	return counters{st, batches, ops}, err
}

// setWindow records the per-layer counters of the window between two
// reads.
func (r *run) setWindow(before, after counters) {
	st := after.st
	st.add(before.st, -1)
	r.setCore(st, 1)
	r.set("server.batch_ops", (after.ops-before.ops)/(after.batches-before.batches))
}

// coalescerCounts reads the coalescer's batch and operation totals from
// the server's /metrics page.
func (c *conn) coalescerCounts() (batches, ops float64, err error) {
	req, err := http.NewRequest("GET", c.base+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.hc.Do(req)
	c.r.attempt(err)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "bfbdd_coalesced_batches_total":
			batches, err = strconv.ParseFloat(value, 64)
		case "bfbdd_coalesced_ops_total":
			ops, err = strconv.ParseFloat(value, 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return batches, ops, sc.Err()
}

// applier drives the apply-then-free loop on a session of its own: each
// step xors two seeded, distinct variables and frees the result.
type applier struct {
	c    *conn
	path string
	vars []uint64
	rng  *rand.Rand
}

func newApplier(c *conn, nvars int, seed int64) (*applier, error) {
	var info struct {
		Session string `json:"session"`
	}
	if _, _, err := c.call("POST", "/v1/sessions", map[string]int{"vars": nvars}, &info); err != nil {
		return nil, err
	}
	a := &applier{c: c, path: "/v1/sessions/" + info.Session, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < nvars; i++ {
		var h struct {
			Handle uint64 `json:"handle"`
		}
		if _, _, err := c.call("POST", a.path+"/vars", map[string]int{"index": i}, &h); err != nil {
			return nil, err
		}
		a.vars = append(a.vars, h.Handle)
	}
	return a, nil
}

func (a *applier) session() string { return strings.TrimPrefix(a.path, "/v1/sessions/") }

// xorNodes is the size of the xor of two distinct variables: one node for
// the upper variable and one per polarity of the lower.
const xorNodes = 3

// step runs one apply and its free. It returns the apply's latency in ms,
// +Inf when it failed, and the id of its trace when traced.
func (a *applier) step(traced bool) (float64, string) {
	i := a.rng.Intn(len(a.vars))
	j := a.rng.Intn(len(a.vars) - 1)
	if j >= i {
		j++
	}
	query := ""
	if traced {
		query = "?trace=1"
	}
	var res struct {
		Handle uint64 `json:"handle"`
		Nodes  int    `json:"nodes"`
	}
	d, tid, err := a.c.call("POST", a.path+"/apply"+query,
		map[string]any{"op": "xor", "f": a.vars[i], "g": a.vars[j]}, &res)
	if err != nil {
		return math.Inf(1), ""
	}
	if res.Nodes != xorNodes {
		a.c.r.wrong("xor of two variables has %d nodes, want %d", res.Nodes, xorNodes)
	}
	var freed struct {
		Freed int `json:"freed"`
	}
	if _, _, err := a.c.call("POST", a.path+"/free", map[string][]uint64{"handles": {res.Handle}}, &freed); err == nil && freed.Freed != 1 {
		a.c.r.wrong("free of one handle freed %d", freed.Freed)
	}
	return ms(d), tid
}

// loop runs steps until the measured window, which began at start, ends.
// It returns the untraced and traced apply latencies and the self times
// split from the traces.
func (a *applier) loop(start time.Time) (plain, traced []float64, parts applyParts) {
	r := a.c.r
	for elapsed := time.Duration(0); elapsed < r.cfg.window; elapsed = time.Since(start) {
		tr := r.tracedBlock(elapsed)
		lat, tid := a.step(tr)
		if !tr {
			plain = append(plain, lat)
			continue
		}
		traced = append(traced, lat)
		if tid != "" {
			if ex, err := a.c.fetchTrace(tid); err == nil {
				parts.add(ex, lat)
			}
		}
	}
	return plain, traced, parts
}

// tracedBlock reports whether a request sent at elapsed time into a
// traced run's window is traced: untraced and traced quarter-second blocks
// alternate, so both halves see the same stretch of host conditions.
func (r *run) tracedBlock(elapsed time.Duration) bool {
	return r.cfg.trace && (elapsed/(250*time.Millisecond))%2 == 1
}

// applyParts splits traced apply requests into self times along their
// blocking path, in ms: the HTTP handler outside its children, the wait
// for the coalescer window and the session executor, the batch outside
// the kernel and the journal, the kernel build, the WAL commit with its
// replication gate, and the client side (round trip minus the server's
// root span). Each part's median is reported; the untraced median latency
// less their sum is the share tracing leaves unaccounted.
type applyParts struct {
	http, queue, batch, kernel, wal, client []float64
}

// add splits one trace. Only the request that owned its coalesced batch
// carries the batch's spans; a request that joined another's batch is
// skipped.
func (p *applyParts) add(ex *trace.Exported, clientMs float64) {
	if len(ex.Spans) == 0 {
		return
	}
	root := ex.Spans[0]
	var queue, batch, kernel, wal float64
	batchID := -1
	for _, sp := range ex.Spans[1:] {
		d := float64(sp.DurationNs) / 1e6
		switch {
		case sp.Parent == root.Span && sp.Name == "queue-wait":
			queue += d
		case sp.Parent == root.Span && sp.Name == "batch":
			batch, batchID = d, sp.Span
		case sp.Parent == root.Span && sp.Name == "batch-join":
			return
		case sp.Parent == batchID && sp.Name == "kernel-build":
			kernel += d
		case sp.Parent == batchID && (sp.Name == "wal-commit" || sp.Name == "repl-await"):
			wal += d
		}
	}
	if batchID < 0 {
		return
	}
	rootMs := float64(root.DurationNs) / 1e6
	p.http = append(p.http, rootMs-queue-batch)
	p.queue = append(p.queue, queue)
	p.batch = append(p.batch, batch-kernel-wal)
	p.kernel = append(p.kernel, kernel)
	p.wal = append(p.wal, wal)
	p.client = append(p.client, clientMs-rootMs)
}

// report records the parts against the untraced and traced latencies of
// the same requests.
func (p *applyParts) report(r *run, plain, traced []float64) {
	if len(p.http) == 0 || len(plain) == 0 {
		return
	}
	parts := []struct {
		name string
		xs   []float64
	}{
		{"server.http_self_ms", p.http},
		{"server.queue_wait_ms", p.queue},
		{"server.batch_self_ms", p.batch},
		{"server.kernel_build_ms", p.kernel},
		{"wal.commit_ms", p.wal},
		{"server.client_overhead_ms", p.client},
	}
	var total float64
	line := fmt.Sprintf("apply self times over %d traced requests:", len(p.http))
	for _, part := range parts {
		m := median(part.xs)
		total += m
		r.set(part.name, m)
		line += fmt.Sprintf(" %s=%.4f", strings.TrimSuffix(part.name, "_ms"), m)
	}
	p50 := median(plain)
	r.set("server.unaccounted_pct", 100*(p50-total)/p50)
	r.set("trace.overhead_pct", 100*(median(traced)-p50)/p50)
	r.detail("%s; sum %.4fms against untraced p50 %.4fms (traced p50 %.4fms)", line, total, p50, median(traced))
}

// completed counts the operations that have succeeded so far.
func (r *run) completed() int64 { return r.attempted.Load() - r.failed.Load() }
