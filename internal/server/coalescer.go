package server

import (
	"context"
	"sync"
	"time"

	"bfbdd"
	"bfbdd/internal/trace"
	"bfbdd/internal/wal"
)

// applyResult carries one coalesced operation's outcome back to its
// waiting request.
type applyResult struct {
	handle uint64
	nodes  int
	err    error
}

// applyCall is one client apply waiting to be batched.
type applyCall struct {
	kind bfbdd.BatchOpKind
	f, g uint64 // wire handles, resolved on the executor goroutine
	resp chan applyResult

	// tr/parent carry the submitting request's trace (nil when the
	// request is unsampled); enq is when the call joined the forming
	// batch, the start of its queue-wait span.
	tr     *trace.Trace
	parent trace.SpanID
	enq    time.Time
}

// coalescer gathers independent binary applies that arrive within a short
// window and drives them through the engine's batch path as ONE top-level
// unit — the serving-layer realization of the paper's §4.1 usage mode
// ("users queue a set of top level operations"): with EnginePar the batch
// is seeded round-robin across the workers and work stealing balances the
// remainder, so concurrent client requests become intra-batch parallelism
// instead of a lock convoy. The window opens when the first apply arrives
// and closes CoalesceWindow later (or immediately at CoalesceMaxBatch);
// the flush runs as a single executor task.
type coalescer struct {
	sess    *session
	m       *metrics
	window  time.Duration
	maxOps  int
	timeout time.Duration

	mu      sync.Mutex
	pending []*applyCall
	timer   *time.Timer
	closed  bool
}

func newCoalescer(s *session, cfg Config, m *metrics) *coalescer {
	return &coalescer{
		sess:    s,
		m:       m,
		window:  cfg.CoalesceWindow,
		maxOps:  cfg.CoalesceMaxBatch,
		timeout: cfg.RequestTimeout,
	}
}

// submit queues one apply and waits for its batch to flush through the
// engine. ctx bounds only this caller's wait; the batch build itself runs
// under the flush task's deadline so one abandoned request cannot cancel
// its batch-mates' work.
func (c *coalescer) submit(ctx context.Context, kind bfbdd.BatchOpKind, f, g uint64) (applyResult, error) {
	call := &applyCall{kind: kind, f: f, g: g, resp: make(chan applyResult, 1)}
	if tr, parent := trace.FromContext(ctx); tr != nil {
		call.tr, call.parent, call.enq = tr, parent, time.Now()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return applyResult{}, errSessionClosed
	}
	c.pending = append(c.pending, call)
	n := len(c.pending)
	if n == 1 {
		c.timer = time.AfterFunc(c.window, c.flush)
	}
	full := n >= c.maxOps
	c.mu.Unlock()
	if full {
		c.flush()
	}
	select {
	case res := <-call.resp:
		return res, res.err
	case <-ctx.Done():
		return applyResult{}, ctx.Err()
	}
}

// flush takes the pending calls and submits them as one executor task.
func (c *coalescer) flush() {
	c.mu.Lock()
	calls := c.pending
	c.pending = nil
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	c.mu.Unlock()
	if len(calls) == 0 {
		return
	}

	// The batch runs under its own deadline, decoupled from any single
	// waiter (one abandoned request must not cancel its batch-mates'
	// work): the deadline starts when the batch reaches the engine and is
	// plumbed through ApplyBatchCtx into the kernel's cancellable build
	// checks. The flush task itself always answers every call; only an
	// outright rejection (queue full, session closed) is reported here.
	_, err := c.sess.exec.start(context.Background(), func(context.Context) error {
		bctx, cancel := context.WithTimeout(context.Background(), c.timeout)
		defer cancel()
		c.runBatch(bctx, calls)
		return nil
	})
	if err != nil {
		for _, call := range calls {
			call.resp <- applyResult{err: err}
		}
	}
}

// runBatch executes one coalesced batch on the executor goroutine and
// answers every call.
//
// Trace shape: every traced call gets a "queue-wait" span covering the
// interval from submit to the batch reaching the executor. The first
// traced call owns the batch — its trace carries the "batch" span
// under which the kernel build and the WAL commit record their child
// spans — and every other traced call gets a "batch-join" marker
// instead; all of them share a batch_id attribute, so an exported
// member trace can be correlated with the owner's full breakdown.
func (c *coalescer) runBatch(ctx context.Context, calls []*applyCall) {
	var (
		tr        *trace.Trace // the owner's trace; nil when no call is traced
		batchSpan trace.SpanID
		batchID   int64
	)
	started := time.Now()
	for _, call := range calls {
		if call.tr == nil {
			continue
		}
		call.tr.Add(call.parent, "queue-wait", call.enq, started)
		if tr == nil {
			tr = call.tr
			batchID = int64(trace.NextBatchID())
			batchSpan = call.tr.Start(call.parent, "batch")
		} else {
			call.tr.Add(call.parent, "batch-join", started, started,
				trace.I("batch_id", batchID))
		}
	}
	if tr != nil {
		ctx = trace.NewContext(ctx, tr, batchSpan)
	}
	res := c.build(ctx, calls)
	// Close the batch span before answering anyone: an answered owner
	// seals its trace, and a span still open then is exported unfinished.
	tr.End(batchSpan, trace.I("batch_id", batchID), trace.I("ops", int64(len(calls))))
	for i, call := range calls {
		call.resp <- res[i]
	}
}

// build resolves the calls' handles and runs them through the session's
// batch step; it returns each call's answer, index-aligned with calls.
func (c *coalescer) build(ctx context.Context, calls []*applyCall) []applyResult {
	res := make([]applyResult, len(calls))
	ops := make([]bfbdd.BatchOp, 0, len(calls))
	recs := make([]wal.ApplyRec, 0, len(calls))
	live := make([]int, 0, len(calls)) // indices into calls, aligned with ops
	for i, call := range calls {
		f, errF := c.sess.st.Get(call.f)
		if errF != nil {
			res[i].err = errF
			continue
		}
		g, errG := c.sess.st.Get(call.g)
		if errG != nil {
			res[i].err = errG
			continue
		}
		ops = append(ops, bfbdd.BatchOp{Kind: call.kind, F: f, G: g})
		recs = append(recs, wal.ApplyRec{Op: uint8(call.kind), F: call.f, G: call.g})
		live = append(live, i)
	}
	if len(live) == 0 {
		return res
	}
	// A partially completed batch (budget abort, injected fault) still
	// produced some results; their callers get real handles, the rest the
	// build's error. If the journal refused, every caller sees that.
	results, err := c.sess.buildBatch(ctx, "apply", ops, recs)
	c.sess.noteFailure(err)
	if err == nil {
		c.m.coalescedBatches.Add(1)
		c.m.coalescedOps.Add(uint64(len(live)))
	}
	for j, i := range live {
		if j < len(results) && results[j] != nil {
			res[i] = applyResult{handle: recs[j].Handle, nodes: results[j].Size()}
		} else {
			res[i].err = err
		}
	}
	return res
}

// close rejects future submits and fails any batch still forming. Queued
// flush tasks already in the executor drain normally.
func (c *coalescer) close() {
	c.mu.Lock()
	c.closed = true
	calls := c.pending
	c.pending = nil
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	c.mu.Unlock()
	for _, call := range calls {
		call.resp <- applyResult{err: errSessionClosed}
	}
}
