package server

import (
	"bufio"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bfbdd/internal/wal"
)

// latencyBuckets are the per-route request-duration histogram bounds, in
// seconds.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// numLatencyBuckets must equal len(latencyBuckets); checked in init.
const numLatencyBuckets = 14

func init() {
	if len(latencyBuckets) != numLatencyBuckets {
		panic("server: numLatencyBuckets out of sync with latencyBuckets")
	}
}

// routeStats accumulates one route's request counters and latency
// histogram. All fields are updated atomically on the hot path.
type routeStats struct {
	codes   sync.Map // int (status code) -> *atomic.Uint64
	buckets [numLatencyBuckets + 1]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Int64
}

func (rs *routeStats) observe(code int, d time.Duration) {
	cp, _ := rs.codes.LoadOrStore(code, new(atomic.Uint64))
	cp.(*atomic.Uint64).Add(1)
	rs.count.Add(1)
	rs.sumNs.Add(int64(d))
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			rs.buckets[i].Add(1)
			return
		}
	}
	rs.buckets[numLatencyBuckets].Add(1)
}

// metrics is the server-wide observability registry.
type metrics struct {
	sessionsCreated    atomic.Uint64
	sessionsExpired    atomic.Uint64
	sessionsRecovered  atomic.Uint64
	sessionsPoisoned   atomic.Uint64
	checkpointsWritten atomic.Uint64
	checkpointErrors   atomic.Uint64
	checkpointFailures atomic.Uint64
	checkpointRetries  atomic.Uint64
	coalescedBatches   atomic.Uint64
	coalescedOps       atomic.Uint64
	sessionsSpilled    atomic.Uint64
	inflight           atomic.Int64
	rejectedInflight   atomic.Uint64
	rejectedOverBudget atomic.Uint64

	funcsPublished      atomic.Uint64
	funcsRecovered      atomic.Uint64
	funcReloadErrors    atomic.Uint64
	funcBytesPublished  atomic.Uint64
	funcEvalRequests    atomic.Uint64
	funcEvalAssignments atomic.Uint64
	funcBatchSizes      batchHistogram

	// Replication counters. The primary side counts what it ships and
	// how often acknowledgments stalled on follower delivery; the
	// follower side counts what it applied, received, bootstrapped,
	// reconnected, and refused for carrying a stale epoch.
	replBatchesShipped      atomic.Uint64
	replBytesShipped        atomic.Uint64
	replSnapshotsServed     atomic.Uint64
	replSnapshotBytesServed atomic.Uint64
	replSyncStalls          atomic.Uint64
	replRecordsApplied      atomic.Uint64
	replBytesReceived       atomic.Uint64
	replReconnects          atomic.Uint64
	replBootstraps          atomic.Uint64
	replStaleEpochRefusals  atomic.Uint64

	// wal aggregates the write-ahead-log counters across every session's
	// log (the wal package updates them directly; ChainRejects also from
	// the recovery path).
	wal wal.Counters
	// walRecoveryNs is the wall time of the last startup recovery pass.
	walRecoveryNs atomic.Int64

	mu     sync.Mutex
	routes map[string]*routeStats
}

// batchSizeBuckets are the eval batch-size histogram bounds
// (assignments per request).
var batchSizeBuckets = [...]int{1, 4, 16, 64, 256, 1024, 4096}

// batchHistogram is a fixed-bucket histogram of eval batch sizes; with
// the per-route latency series it gives the artifact eval throughput
// picture (assignments/request over time/request).
type batchHistogram struct {
	buckets [len(batchSizeBuckets) + 1]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

func (h *batchHistogram) observe(n int) {
	h.count.Add(1)
	h.sum.Add(uint64(n))
	for i, ub := range batchSizeBuckets {
		if n <= ub {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(batchSizeBuckets)].Add(1)
}

func newMetrics() *metrics {
	return &metrics{routes: make(map[string]*routeStats)}
}

// route returns (creating on first use) the stats bucket for a route
// pattern. Routes are registered statically, so cardinality is bounded.
func (m *metrics) route(pattern string) *routeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.routes[pattern]
	if !ok {
		rs = &routeStats{}
		m.routes[pattern] = rs
	}
	return rs
}

// statusRecorder captures the response code for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request counting and latency histogram
// collection for one route pattern.
func (m *metrics) instrument(pattern string, h http.Handler) http.Handler {
	rs := m.route(pattern)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sr, r)
		rs.observe(sr.code, time.Since(start))
	})
}

// metricsHandler serves GET /metrics in Prometheus text exposition format:
// server-level counters, per-route request/latency series, and every
// Manager.Stats() counter of every live session (from the sessions'
// lock-free snapshots, so a scrape never blocks behind a build).
func (s *Server) metricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		bw := bufio.NewWriter(w)
		defer bw.Flush()

		counter := func(name, help string, v uint64) {
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
		}
		gauge := func(name, help string, v int64) {
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
		}

		m := s.metrics
		var poisonedNow int64
		for _, sess := range s.reg.list() {
			if sess.isPoisoned() {
				poisonedNow++
			}
		}
		gauge("bfbdd_sessions_open", "Currently open sessions.", int64(s.reg.count()))
		gauge("bfbdd_sessions_poisoned", "Currently open sessions refusing work after an internal engine fault.", poisonedNow)
		gauge("bfbdd_pool_live_bytes", "Engine memory footprint summed over all live sessions.", int64(s.poolBytes()))
		resident, spilled := s.poolSpill()
		gauge("bfbdd_pool_resident_bytes", "Heap-resident node-store bytes summed over all live sessions.", int64(resident))
		gauge("bfbdd_pool_spilled_bytes", "Node-store bytes parked in level spill files, summed over all live sessions.", int64(spilled))
		counter("bfbdd_sessions_created_total", "Sessions created since start.", m.sessionsCreated.Load())
		counter("bfbdd_sessions_expired_total", "Sessions closed by idle expiry.", m.sessionsExpired.Load())
		counter("bfbdd_sessions_recovered_total", "Sessions rebuilt from checkpoints at startup.", m.sessionsRecovered.Load())
		counter("bfbdd_sessions_poisoned_total", "Sessions poisoned by internal engine faults since start.", m.sessionsPoisoned.Load())
		counter("bfbdd_checkpoints_written_total", "Session checkpoints committed to disk.", m.checkpointsWritten.Load())
		counter("bfbdd_checkpoint_errors_total", "Failed checkpoint writes or recoveries.", m.checkpointErrors.Load())
		counter("bfbdd_checkpoint_failures_total", "Checkpoint attempts that failed after exhausting retries.", m.checkpointFailures.Load())
		counter("bfbdd_checkpoint_retries_total", "Checkpoint attempts retried after a transient failure.", m.checkpointRetries.Load())
		counter("bfbdd_coalesced_batches_total", "Apply batches flushed by the request coalescer.", m.coalescedBatches.Load())
		counter("bfbdd_coalesced_ops_total", "Apply operations carried by coalesced batches.", m.coalescedOps.Load())
		gauge("bfbdd_http_inflight_requests", "Requests currently being served.", m.inflight.Load())
		counter("bfbdd_http_rejected_total", "Requests rejected by the in-flight admission limit.", m.rejectedInflight.Load())
		counter("bfbdd_http_rejected_over_budget_total", "Requests shed because the pool exceeded the global memory budget.", m.rejectedOverBudget.Load())
		counter("bfbdd_sessions_spilled_total", "Session-level spill passes triggered by idle tiering or the resident cap.", m.sessionsSpilled.Load())
		s.writeSpillTotals(bw)

		gauge("bfbdd_funcs_open", "Currently published compiled-function artifacts.", s.funcs.count.Load())
		gauge("bfbdd_funcs_bytes", "Resident bytes of published artifacts (their own pool, outside session budgets).", s.funcs.total.Load())
		counter("bfbdd_funcs_published_total", "Artifacts published since start.", m.funcsPublished.Load())
		counter("bfbdd_funcs_recovered_total", "Artifacts reloaded from disk at startup.", m.funcsRecovered.Load())
		counter("bfbdd_funcs_reload_errors_total", "Corrupt artifact files set aside at startup.", m.funcReloadErrors.Load())
		counter("bfbdd_funcs_published_bytes_total", "Bytes of artifacts published since start.", m.funcBytesPublished.Load())
		counter("bfbdd_func_eval_requests_total", "Artifact eval requests served.", m.funcEvalRequests.Load())
		counter("bfbdd_func_eval_assignments_total", "Assignments evaluated across artifact eval requests.", m.funcEvalAssignments.Load())
		s.writeFuncEvalHistogram(bw)

		counter("bfbdd_wal_appended_records_total", "Records journaled to write-ahead logs.", m.wal.Appended.Load())
		counter("bfbdd_wal_append_errors_total", "WAL append failures (the operation was refused).", m.wal.AppendErrors.Load())
		counter("bfbdd_wal_fsyncs_total", "Explicit WAL fsyncs.", m.wal.Fsyncs.Load())
		counter("bfbdd_wal_rotations_total", "WAL segment rotations at checkpoints.", m.wal.Rotations.Load())
		counter("bfbdd_wal_segments_truncated_total", "Checkpoint-covered WAL segments deleted.", m.wal.Truncated.Load())
		counter("bfbdd_wal_replayed_records_total", "Records replayed during startup recovery.", m.wal.Replayed.Load())
		counter("bfbdd_wal_torn_tail_discards_total", "Half-written WAL tails discarded during recovery.", m.wal.TornTails.Load())
		counter("bfbdd_wal_chain_rejects_total", "Recoveries refused because the checkpoint and WAL did not chain.", m.wal.ChainRejects.Load())
		fmt.Fprintf(bw, "# HELP bfbdd_wal_recovery_seconds Wall time of the last startup recovery pass.\n# TYPE bfbdd_wal_recovery_seconds gauge\nbfbdd_wal_recovery_seconds %g\n",
			float64(m.walRecoveryNs.Load())/1e9)

		if s.ckpt != nil {
			gauge("bfbdd_repl_epoch", "Current replication fencing epoch.", int64(s.epoch.Load()))
			writable := int64(1)
			if s.isFollower() {
				writable = 0
			}
			gauge("bfbdd_repl_writable", "1 when this server accepts mutations, 0 on a read-only follower.", writable)
			gauge("bfbdd_repl_followers", "Recently-connected followers.", int64(s.hub.Followers()))
			counter("bfbdd_repl_batches_shipped_total", "WAL batches shipped to followers.", m.replBatchesShipped.Load())
			counter("bfbdd_repl_bytes_shipped_total", "WAL bytes shipped to followers.", m.replBytesShipped.Load())
			counter("bfbdd_repl_snapshots_served_total", "Bootstrap snapshots served to followers.", m.replSnapshotsServed.Load())
			counter("bfbdd_repl_snapshot_bytes_served_total", "Bootstrap snapshot bytes served to followers.", m.replSnapshotBytesServed.Load())
			counter("bfbdd_repl_sync_stalls_total", "Followers dropped from the sync set after stalling an acknowledgment.", m.replSyncStalls.Load())
			counter("bfbdd_repl_records_applied_total", "Replicated WAL records applied locally.", m.replRecordsApplied.Load())
			counter("bfbdd_repl_bytes_received_total", "Bytes received from the primary (WAL, snapshots, artifacts).", m.replBytesReceived.Load())
			counter("bfbdd_repl_reconnects_total", "Reconnect attempts after a replication stream or status failure.", m.replReconnects.Load())
			counter("bfbdd_repl_bootstraps_total", "Snapshot bootstraps started.", m.replBootstraps.Load())
			counter("bfbdd_repl_stale_epoch_refusals_total", "Batches refused for carrying an epoch below the local one.", m.replStaleEpochRefusals.Load())
			if s.fol != nil {
				records, wall := s.fol.lag()
				gauge("bfbdd_repl_lag_records", "Records the follower trails the primary by, summed over sessions.", int64(records))
				fmt.Fprintf(bw, "# HELP bfbdd_repl_lag_seconds Wall time the most-behind session has been behind.\n# TYPE bfbdd_repl_lag_seconds gauge\nbfbdd_repl_lag_seconds %g\n",
					wall.Seconds())
			}
		}

		s.writeRouteMetrics(bw)
		s.writeSessionMetrics(bw)
	})
}

// writeSpillTotals exports the memory-tiering activity counters summed
// over session snapshots. They are derived series — each session's
// contribution vanishes when it closes — but in aggregate they track the
// spill subsystem's churn well enough to alert on thrash.
func (s *Server) writeSpillTotals(bw *bufio.Writer) {
	var ops, unspills, hits uint64
	var spillNs, unspillNs int64
	for _, sess := range s.reg.list() {
		st := sess.stats()
		if st == nil {
			continue
		}
		ops += st.SpillOps
		unspills += st.UnspillOps
		hits += st.SpillPrefetchHits
		spillNs += int64(st.SpillTime)
		unspillNs += int64(st.UnspillTime)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	seconds := func(name, help string, ns int64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, float64(ns)/1e9)
	}
	counter("bfbdd_spill_ops_total", "Level spill writes across live sessions.", ops)
	counter("bfbdd_unspill_ops_total", "Level unspill reads across live sessions.", unspills)
	counter("bfbdd_spill_prefetch_hits_total", "Sweep prefetches that found the level already mapped.", hits)
	seconds("bfbdd_spill_seconds_total", "Wall time writing level spill files across live sessions.", spillNs)
	seconds("bfbdd_unspill_seconds_total", "Wall time restoring spilled levels across live sessions.", unspillNs)
}

// writeFuncEvalHistogram exports the eval batch-size histogram.
func (s *Server) writeFuncEvalHistogram(bw *bufio.Writer) {
	h := &s.metrics.funcBatchSizes
	fmt.Fprintf(bw, "# HELP bfbdd_func_eval_batch_size Assignments per artifact eval request.\n")
	fmt.Fprintf(bw, "# TYPE bfbdd_func_eval_batch_size histogram\n")
	var cum uint64
	for i, ub := range batchSizeBuckets {
		cum += h.buckets[i].Load()
		fmt.Fprintf(bw, "bfbdd_func_eval_batch_size_bucket{le=\"%d\"} %d\n", ub, cum)
	}
	cum += h.buckets[len(batchSizeBuckets)].Load()
	fmt.Fprintf(bw, "bfbdd_func_eval_batch_size_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(bw, "bfbdd_func_eval_batch_size_sum %d\n", h.sum.Load())
	fmt.Fprintf(bw, "bfbdd_func_eval_batch_size_count %d\n", h.count.Load())
}

func (s *Server) writeRouteMetrics(bw *bufio.Writer) {
	m := s.metrics
	m.mu.Lock()
	patterns := make([]string, 0, len(m.routes))
	for p := range m.routes {
		patterns = append(patterns, p)
	}
	m.mu.Unlock()
	sort.Strings(patterns)

	fmt.Fprintf(bw, "# HELP bfbdd_http_requests_total Served requests by route and status code.\n")
	fmt.Fprintf(bw, "# TYPE bfbdd_http_requests_total counter\n")
	for _, p := range patterns {
		rs := m.route(p)
		type cc struct {
			code int
			n    uint64
		}
		var codes []cc
		rs.codes.Range(func(k, v any) bool {
			codes = append(codes, cc{k.(int), v.(*atomic.Uint64).Load()})
			return true
		})
		sort.Slice(codes, func(i, j int) bool { return codes[i].code < codes[j].code })
		for _, c := range codes {
			fmt.Fprintf(bw, "bfbdd_http_requests_total{route=%q,code=\"%d\"} %d\n", p, c.code, c.n)
		}
	}

	fmt.Fprintf(bw, "# HELP bfbdd_http_request_duration_seconds Request latency by route.\n")
	fmt.Fprintf(bw, "# TYPE bfbdd_http_request_duration_seconds histogram\n")
	for _, p := range patterns {
		rs := m.route(p)
		var cum uint64
		for i, ub := range latencyBuckets {
			cum += rs.buckets[i].Load()
			fmt.Fprintf(bw, "bfbdd_http_request_duration_seconds_bucket{route=%q,le=\"%g\"} %d\n", p, ub, cum)
		}
		cum += rs.buckets[len(latencyBuckets)].Load()
		fmt.Fprintf(bw, "bfbdd_http_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", p, cum)
		fmt.Fprintf(bw, "bfbdd_http_request_duration_seconds_sum{route=%q} %g\n", p, float64(rs.sumNs.Load())/1e9)
		fmt.Fprintf(bw, "bfbdd_http_request_duration_seconds_count{route=%q} %d\n", p, rs.count.Load())
	}
}

// writeSessionMetrics exports every Manager.Stats() counter per session.
func (s *Server) writeSessionMetrics(bw *bufio.Writer) {
	sessions := s.reg.list()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })

	type series struct {
		name, help, typ string
		value           func(*sessionStats) string
	}
	secs := func(d time.Duration) string { return fmt.Sprintf("%g", d.Seconds()) }
	all := []series{
		{"bfbdd_session_ops_total", "Shannon expansion steps across workers.", "counter",
			func(st *sessionStats) string { return fmt.Sprint(st.Ops) }},
		{"bfbdd_session_cache_hits_total", "Compute-cache hits.", "counter",
			func(st *sessionStats) string { return fmt.Sprint(st.CacheHits) }},
		{"bfbdd_session_terminals_total", "Operations resolved as terminal cases.", "counter",
			func(st *sessionStats) string { return fmt.Sprint(st.Terminals) }},
		{"bfbdd_session_steals_total", "Work-stealing group thefts.", "counter",
			func(st *sessionStats) string { return fmt.Sprint(st.Steals) }},
		{"bfbdd_session_stolen_ops_total", "Operations claimed from stolen groups.", "counter",
			func(st *sessionStats) string { return fmt.Sprint(st.StolenOps) }},
		{"bfbdd_session_stalls_total", "Reduction passes stalled on thief results.", "counter",
			func(st *sessionStats) string { return fmt.Sprint(st.Stalls) }},
		{"bfbdd_session_context_pushes_total", "Evaluation-context switches.", "counter",
			func(st *sessionStats) string { return fmt.Sprint(st.ContextPushes) }},
		{"bfbdd_session_lock_wait_seconds_total", "Unique-table lock acquisition wait.", "counter",
			func(st *sessionStats) string { return secs(st.LockWait) }},
		{"bfbdd_session_expansion_seconds_total", "Time in the expansion phase.", "counter",
			func(st *sessionStats) string { return secs(st.ExpansionTime) }},
		{"bfbdd_session_reduction_seconds_total", "Time in the reduction phase.", "counter",
			func(st *sessionStats) string { return secs(st.ReductionTime) }},
		{"bfbdd_session_gc_mark_seconds_total", "Time in the GC mark phase.", "counter",
			func(st *sessionStats) string { return secs(st.GCMarkTime) }},
		{"bfbdd_session_gc_fix_seconds_total", "Time in the GC fix phase.", "counter",
			func(st *sessionStats) string { return secs(st.GCFixTime) }},
		{"bfbdd_session_gc_rehash_seconds_total", "Time in the GC rehash phase.", "counter",
			func(st *sessionStats) string { return secs(st.GCRehashTime) }},
		{"bfbdd_session_gc_runs_total", "Garbage collections.", "counter",
			func(st *sessionStats) string { return fmt.Sprint(st.GCCount) }},
		{"bfbdd_session_peak_bytes", "High-water explicit memory footprint.", "gauge",
			func(st *sessionStats) string { return fmt.Sprint(st.PeakBytes) }},
		{"bfbdd_session_mem_bytes", "Current explicit memory footprint.", "gauge",
			func(st *sessionStats) string { return fmt.Sprint(st.MemBytes) }},
		{"bfbdd_session_eval_threshold", "Effective partial-BF evaluation threshold (drops under memory pressure; 0 = unbounded).", "gauge",
			func(st *sessionStats) string { return fmt.Sprint(st.EffEvalThreshold) }},
		{"bfbdd_session_budget_forced_gcs_total", "Collections forced by the budget's degradation ladder.", "counter",
			func(st *sessionStats) string { return fmt.Sprint(st.BudgetForcedGCs) }},
		{"bfbdd_session_budget_threshold_drops_total", "Eval-threshold reductions forced by the budget.", "counter",
			func(st *sessionStats) string { return fmt.Sprint(st.BudgetThresholdDrops) }},
		{"bfbdd_session_budget_cache_shrinks_total", "Compute-cache flushes forced by the budget.", "counter",
			func(st *sessionStats) string { return fmt.Sprint(st.BudgetCacheShrinks) }},
		{"bfbdd_session_budget_aborts_total", "Builds aborted with a budget error.", "counter",
			func(st *sessionStats) string { return fmt.Sprint(st.BudgetAborts) }},
		{"bfbdd_session_budget_spills_total", "Spill passes forced by the budget's degradation ladder.", "counter",
			func(st *sessionStats) string { return fmt.Sprint(st.BudgetSpills) }},
		{"bfbdd_session_resident_bytes", "Heap-resident node-store bytes.", "gauge",
			func(st *sessionStats) string { return fmt.Sprint(st.ResidentBytes) }},
		{"bfbdd_session_spilled_bytes", "Node-store bytes parked in level spill files.", "gauge",
			func(st *sessionStats) string { return fmt.Sprint(st.SpilledBytes) }},
		{"bfbdd_session_spilled_levels", "Variable levels currently tiered to disk.", "gauge",
			func(st *sessionStats) string { return fmt.Sprint(st.SpilledLevels) }},
		{"bfbdd_session_live_nodes", "Current live BDD node count.", "gauge",
			func(st *sessionStats) string { return fmt.Sprint(st.NumNodes) }},
		{"bfbdd_session_pins", "Registered external roots (pins).", "gauge",
			func(st *sessionStats) string { return fmt.Sprint(st.Pins) }},
		{"bfbdd_session_handles", "Wire-visible BDD handles.", "gauge",
			func(st *sessionStats) string { return fmt.Sprint(st.Handles) }},
	}
	for _, sr := range all {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", sr.name, sr.help, sr.name, sr.typ)
		for _, sess := range sessions {
			st := sess.stats()
			if st == nil {
				continue
			}
			fmt.Fprintf(bw, "%s{session=%q,engine=%q} %s\n", sr.name, sess.id, sess.engine, sr.value(st))
		}
	}
}
