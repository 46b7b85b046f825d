// Command bfbdd-serve runs the bfbdd HTTP/JSON service: a pool of
// session-scoped BDD managers behind a REST-ish API, with request
// coalescing onto the parallel engine's batch path, admission control,
// idle-session expiry, and a Prometheus /metrics endpoint.
//
// Typical use:
//
//	bfbdd-serve -addr :8707 -request-timeout 30s -pprof
//
// With -checkpoint-dir set, every live session is periodically
// serialized there, every mutating operation is journaled to a
// write-ahead log before it is acknowledged, and the next start recovers
// each session — same session ids, same handles — as newest checkpoint
// plus replayed WAL tail. Under -wal-sync=always an acknowledged
// operation survives any crash; under the default -wal-sync=interval a
// process crash (kill -9) still loses nothing and a power failure loses
// at most one sync interval.
//
// Resource governance: -session-max-nodes / -session-max-bytes cap every
// session's engine budget (builds degrade, then abort with 413 instead of
// OOMing the process), and -max-total-bytes sheds allocating requests
// with 429 + Retry-After while the whole pool is over budget.
//
// Memory tiering: with a spill directory (-spill-dir, defaulting to
// <checkpoint-dir>/spill when persistence is on) quiescent sessions can
// park their node levels in spill files and run larger-than-RAM pools.
// -session-idle-spill tiers idle sessions down automatically, and
// -max-resident-bytes spills the coldest sessions instead of shedding
// when the heap-resident pool exceeds the cap; spilled sessions fault
// their levels back in transparently on the next operation.
//
// Hot standby: -follow=<primary-url> (requires -checkpoint-dir) runs the
// process as a read-only replica — sessions bootstrap from the primary's
// snapshots, stay current by streaming its WAL, serve every read path,
// and answer mutations with 421 plus the primary's URL. /readyz reports
// ready once bootstrap is complete and replication lag is within
// -ready-max-lag. POST /v1/admin/promote (or restarting with
// -promote-on-start) seals replication, bumps the fencing epoch, and
// flips the replica writable; a fenced old primary refuses stale-epoch
// appends on restart.
//
// SIGINT/SIGTERM triggers a graceful drain: the listener stops accepting,
// in-flight requests and queued session work finish (bounded by
// -drain-timeout), a final checkpoint pass runs, then every session's
// manager is closed. A second SIGINT/SIGTERM abandons the drain and
// forces an immediate exit (checkpoints already committed stay intact —
// the next start recovers from them).
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bfbdd/internal/server"
)

func main() {
	var (
		addr            = flag.String("addr", ":8707", "listen address")
		maxSessions     = flag.Int("max-sessions", 64, "maximum concurrently open sessions")
		maxInflight     = flag.Int("max-inflight", 256, "maximum concurrently served requests (excess get 429)")
		requestTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-request deadline, plumbed into cancellable builds")
		idleExpiry      = flag.Duration("idle-expiry", 10*time.Minute, "close sessions idle for this long")
		coalesceWindow  = flag.Duration("coalesce-window", 2*time.Millisecond, "window for gathering concurrent applies into one engine batch")
		coalesceBatch   = flag.Int("coalesce-max-batch", 64, "flush a forming batch early at this many ops")
		queuePerSession = flag.Int("max-queued-per-session", 128, "per-session executor queue bound")
		checkpointDir   = flag.String("checkpoint-dir", "", "directory for session checkpoints; empty disables persistence")
		checkpointEvery = flag.Duration("checkpoint-interval", time.Minute, "periodic checkpoint cadence (0 disables the loop; shutdown still checkpoints)")
		walSync         = flag.String("wal-sync", "interval", "write-ahead-log durability: always (fsync per op), interval (fsync on a timer), none")
		walSyncEvery    = flag.Duration("wal-sync-interval", 100*time.Millisecond, "fsync cadence under -wal-sync=interval")
		maxTotalBytes   = flag.Int64("max-total-bytes", 0, "server-wide memory budget; allocating requests are shed with 429 while the pool is over it (0 = unlimited)")
		spillDir        = flag.String("spill-dir", "", "directory for per-session level spill files; empty defaults to <checkpoint-dir>/spill when -checkpoint-dir is set, or disables memory tiering")
		idleSpill       = flag.Duration("session-idle-spill", 0, "tier sessions idle for this long down to their spill files (0 disables; requires a spill dir)")
		maxResident     = flag.Int64("max-resident-bytes", 0, "heap-resident node-store cap; coldest sessions are spilled to disk instead of shedding requests (0 = unlimited; requires a spill dir)")
		sessionMaxNodes = flag.Uint64("session-max-nodes", 0, "per-session live-node budget cap; over-budget builds abort with 413 (0 = unlimited)")
		sessionMaxBytes = flag.Uint64("session-max-bytes", 0, "per-session memory budget cap in bytes (0 = unlimited)")
		maxFuncBytes    = flag.Int64("max-func-bytes", 0, "byte pool for published function artifacts; over-pool publishes get 413 (0 = unlimited)")
		maxEvalBody     = flag.Int64("max-eval-body-bytes", 4<<20, "request-body limit on /v1/funcs/{id}/eval; larger bodies get 413")
		maxEvalBatch    = flag.Int("max-eval-batch", 8192, "assignments accepted per eval request; larger batches get 413")
		pprofEnabled    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		drainTimeout    = flag.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain at exit")
		followURL       = flag.String("follow", "", "primary base URL to follow as a read-only hot standby (requires -checkpoint-dir)")
		promoteOnStart  = flag.Bool("promote-on-start", false, "bump the replication epoch and serve writable from the first request (failover restart)")
		readyMaxLag     = flag.Duration("ready-max-lag", 2*time.Second, "replication lag beyond which a follower's /readyz reports unready")
		replRetention   = flag.Uint64("repl-retention", 65536, "records behind the newest checkpoint that WAL truncation holds for lagging followers")
		replSyncTimeout = flag.Duration("repl-sync-timeout", 2*time.Second, "under -wal-sync=always, how long an ack waits for follower delivery before dropping laggards")
		traceSample     = flag.Float64("trace-sample", 0, "fraction of requests to trace end-to-end in [0,1]; 0 disables sampling (?trace=1 still traces a request)")
		traceRing       = flag.Int("trace-ring", 128, "completed traces retained for GET /v1/debug/traces")
		slowBuild       = flag.Duration("slow-build-threshold", 0, "log a per-phase breakdown of any engine build slower than this (0 disables)")
	)
	flag.Parse()

	if *followURL != "" && *checkpointDir == "" {
		log.Fatal("bfbdd-serve: -follow requires -checkpoint-dir (the replica's durable state lives there)")
	}
	// Memory tiering defaults on alongside persistence: spill files are
	// scratch state living next to the checkpoints unless pointed
	// elsewhere (e.g. faster local disk) with -spill-dir.
	if *spillDir == "" && *checkpointDir != "" {
		*spillDir = *checkpointDir + "/spill"
	}
	if *spillDir == "" && (*idleSpill > 0 || *maxResident > 0) {
		log.Fatal("bfbdd-serve: -session-idle-spill and -max-resident-bytes require a spill dir (-spill-dir or -checkpoint-dir)")
	}

	srv := server.New(server.Config{
		MaxSessions:         *maxSessions,
		MaxInflight:         *maxInflight,
		RequestTimeout:      *requestTimeout,
		SessionIdleExpiry:   *idleExpiry,
		CoalesceWindow:      *coalesceWindow,
		CoalesceMaxBatch:    *coalesceBatch,
		MaxQueuedPerSession: *queuePerSession,
		CheckpointDir:       *checkpointDir,
		CheckpointInterval:  *checkpointEvery,
		WALSync:             *walSync,
		WALSyncInterval:     *walSyncEvery,
		MaxTotalBytes:       *maxTotalBytes,
		SpillDir:            *spillDir,
		SessionIdleSpill:    *idleSpill,
		MaxResidentBytes:    *maxResident,
		SessionMaxNodes:     *sessionMaxNodes,
		SessionMaxBytes:     *sessionMaxBytes,
		MaxFuncBytes:        *maxFuncBytes,
		MaxEvalBodyBytes:    *maxEvalBody,
		MaxEvalBatch:        *maxEvalBatch,
		EnablePprof:         *pprofEnabled,
		FollowURL:           *followURL,
		PromoteOnStart:      *promoteOnStart,
		ReadyMaxLag:         *readyMaxLag,
		ReplRetention:       *replRetention,
		ReplSyncTimeout:     *replSyncTimeout,
		TraceSample:         *traceSample,
		TraceRingSize:       *traceRing,
		SlowBuildThreshold:  *slowBuild,
	})

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("bfbdd-serve: listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case sig := <-sigc:
		log.Printf("bfbdd-serve: %s received, draining (signal again to force exit)", sig)
		// Flip /readyz unready immediately so load balancers stop
		// routing here while the listener finishes in-flight work.
		srv.StartDrain()
	case err := <-errc:
		log.Fatalf("bfbdd-serve: listener failed: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()

	// Drain on a separate goroutine so a second signal can cut it short: a
	// wedged build or full executor queue must not hold the process hostage
	// to the full drain timeout when the operator is mashing Ctrl-C.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		// Stop accepting and drain in-flight HTTP first, then close
		// sessions (draining each session executor's accepted work).
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("bfbdd-serve: http drain: %v", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("bfbdd-serve: session drain: %v", err)
		}
	}()

	select {
	case <-drained:
		log.Printf("bfbdd-serve: shutdown complete")
	case sig := <-sigc:
		log.Printf("bfbdd-serve: second %s received, forcing immediate shutdown", sig)
		cancel()
		httpSrv.Close()
		os.Exit(1)
	}
}
