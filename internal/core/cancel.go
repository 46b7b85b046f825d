package core

import (
	"context"
	"runtime/debug"

	"bfbdd/internal/faultinject"
	"bfbdd/internal/node"
)

// Build cancellation.
//
// A long-running top-level operation can be interrupted cooperatively: the
// caller arms the kernel with an interrupt probe (typically ctx.Err), the
// workers poll it at safe points of the expansion and reduction loops, and
// the first worker that observes a non-nil probe result aborts the build
// by unwinding with the buildAborted sentinel. The top-level entry point
// recovers the sentinel, discards the build's transient state (operator
// arenas, pending queues, evaluation contexts, compute-cache op entries),
// and returns the probe's error. The persistent structures — node store,
// unique tables, pins — are append-only during a build, so an aborted
// build leaves them canonical; the partial nodes it created are garbage
// that the next collection reclaims.

// buildAborted is the panic sentinel used to unwind an interrupted build.
type buildAborted struct{}

// cancelPollInterval is the number of Shannon expansion steps between
// interrupt-probe polls on the expansion fast path.
const cancelPollInterval = 1024

// armInterrupt installs the probe and clears any stale abort state. Only
// one build runs on a kernel at a time, so arming is unsynchronized with
// respect to other arms (workers read the probe atomically).
func (k *Kernel) armInterrupt(probe func() error) {
	k.abortErr.Store(nil)
	k.interrupt.Store(&probe)
}

// disarmInterrupt removes the probe after the build finishes or aborts.
func (k *Kernel) disarmInterrupt() {
	k.interrupt.Store(nil)
	k.abortErr.Store(nil)
}

// checkCancelNow consults the abort flag and the interrupt probe, and
// unwinds the calling worker when the build has been canceled. Must only
// be called at points where the worker holds no unique-table lock.
func (w *worker) checkCancelNow() {
	k := w.k
	if k.abortErr.Load() != nil {
		panic(buildAborted{})
	}
	p := k.interrupt.Load()
	if p == nil {
		return
	}
	if err := (*p)(); err != nil {
		e := err
		k.abortErr.CompareAndSwap(nil, &e)
		panic(buildAborted{})
	}
}

// pollCancel is the amortized form of checkCancelNow for per-operation
// call sites: it probes once every cancelPollInterval invocations. The
// same cadence drives the mid-build budget check and the worker-stall
// fault point.
func (w *worker) pollCancel() {
	w.cancelCounter--
	if w.cancelCounter > 0 {
		return
	}
	w.cancelCounter = cancelPollInterval
	if faultinject.Enabled {
		faultinject.Stall(faultinject.WorkerStall)
	}
	w.checkCancelNow()
	w.k.checkBudget()
}

// aborted reports whether the current build has been canceled, without
// unwinding (for loops that prefer a clean return, like idleLoop).
func (k *Kernel) aborted() bool { return k.abortErr.Load() != nil }

// abortError returns the error recorded by the worker that observed the
// cancellation.
func (k *Kernel) abortError() error {
	if p := k.abortErr.Load(); p != nil {
		return *p
	}
	return nil
}

// catchAbort recovers the buildAborted sentinel in a worker goroutine and
// raises opDone so peers that are not themselves polling (e.g. between
// steals) drain promptly. Any other panic on a worker goroutine would
// kill the whole process (no caller frame recovers it), so it is the
// containment wall for residual worker panics too: the value is recorded
// as the build's abort error — wrapped as *InternalError unless already a
// typed abort payload — and the driver re-raises it on the caller
// goroutine once every worker has quiesced.
func (k *Kernel) catchAbort() {
	r := recover()
	if r == nil {
		return
	}
	if _, ok := r.(buildAborted); ok {
		k.opDone.Store(true)
		return
	}
	err, ok := abortPayload(r)
	if !ok {
		err = &InternalError{Op: "worker", Cause: r, Stack: debug.Stack()}
	}
	k.abortErr.CompareAndSwap(nil, &err)
	k.opDone.Store(true)
}

// abortTopLevel discards all transient build state after every worker has
// quiesced from an aborted build: pending operator queues, reduce queues,
// registered evaluation contexts, operator arenas, and the compute caches'
// operator-handle entries. The node store and unique tables are untouched
// (they only ever gain canonical nodes), so the kernel is immediately
// usable for the next operation.
func (k *Kernel) abortTopLevel() {
	for _, w := range k.workers {
		for i := range w.pending {
			w.pending[i] = w.pending[i][:0]
		}
		w.pendingTotal = 0
		for i := range w.curReduce {
			w.curReduce[i] = w.curReduce[i][:0]
		}
		w.ctxMu.Lock()
		w.ctxs = w.ctxs[:0]
		w.ctxMu.Unlock()
		w.nOps = 0
		w.cancelCounter = 0
		// Unwound scopes were not closed, and thieves unwound without
		// giving their stolen groups back.
		w.depth = 0
		for i := range w.stolen {
			w.stolen[i].Store(0)
		}
	}
	k.endTopLevel()
}

// interruptible reports whether ctx can ever be canceled; contexts without
// cancellation capability take the zero-overhead uninterruptible path.
func interruptible(ctx context.Context) bool {
	return ctx != nil && ctx.Done() != nil
}

// ApplyCtx is Apply with cooperative cancellation: when ctx is canceled
// (or its deadline passes) mid-build, the workers abandon the operation at
// the next poll point and ApplyCtx returns ctx's error. The kernel remains
// fully usable afterwards.
//
// Typed aborts — *BudgetError, *InternalError, injected faults — are
// returned as errors regardless of whether ctx is cancellable.
func (k *Kernel) ApplyCtx(ctx context.Context, op Op, f, g node.Ref) (node.Ref, error) {
	ops := [1]BinOp{{Op: op, F: f, G: g}}
	res := [1]node.Ref{node.Nil}
	if err := k.applyBatchCtx(ctx, ops[:], res[:]); err != nil {
		return node.Nil, err
	}
	return res[0], nil
}

// ApplyBatchCtx is ApplyBatch with cooperative cancellation (see
// ApplyCtx). On cancellation none of the batch's results are returned.
// On a typed abort (budget trip, injected fault) the returned slice
// reports the operations that did complete: refs[i] is the result of
// ops[i] if it finished before the abort and node.Nil otherwise. The
// completed refs are canonical but unpinned; a caller that wants them to
// survive the next collection must pin them before operating further.
func (k *Kernel) ApplyBatchCtx(ctx context.Context, ops []BinOp) ([]node.Ref, error) {
	results := make([]node.Ref, len(ops))
	for i := range results {
		results[i] = node.Nil
	}
	err := k.applyBatchCtx(ctx, ops, results)
	if _, typed := abortPayload(err); err != nil && !typed {
		return nil, err // canceled: no results are reported
	}
	return results, err
}

// applyBatchCtx runs applyBatchInto under ctx's interrupt probe and
// returns a cancellation or typed abort as an error. applyBatchInto's
// convertAbort has already discarded the transient build state before
// re-raising either the bare sentinel (cancellation) or a typed abort
// payload.
func (k *Kernel) applyBatchCtx(ctx context.Context, ops []BinOp, results []node.Ref) (err error) {
	if interruptible(ctx) {
		if err := ctx.Err(); err != nil {
			return err
		}
		k.armInterrupt(ctx.Err)
		defer k.disarmInterrupt()
	}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if _, ok := rec.(buildAborted); ok {
			if err = k.abortError(); err == nil {
				err = context.Canceled
			}
			return
		}
		var ok bool
		if err, ok = abortPayload(rec); !ok {
			panic(rec)
		}
	}()
	k.applyBatchInto(ops, results)
	return nil
}
