package core

import (
	"bfbdd/internal/node"
)

// BinOp is one top-level binary operation for ApplyBatch.
type BinOp struct {
	Op   Op
	F, G node.Ref
}

// ApplyBatch computes a set of independent top-level operations. This is
// the usage mode the paper's parallel measurements assume: users queue a
// set of top-level operations, the workers construct them cooperatively,
// and the garbage-collection condition is checked at the batch boundary
// (§4.1: "we check whether or not to garbage collect only after we
// complete a set of top level operations we queued" — the implicit
// barrier between batches is the parallel engine's GC safe point).
//
// With the parallel engine the operations are seeded round-robin across
// the workers, every worker drives its own share, and work stealing
// balances the remainder. Sequential engines evaluate the batch in order
// (still skipping per-operation GC checks, matching the batch-barrier
// semantics).
func (k *Kernel) ApplyBatch(ops []BinOp) []node.Ref {
	results := make([]node.Ref, len(ops))
	for i := range results {
		results[i] = node.Nil
	}
	k.applyBatchInto(ops, results)
	return results
}

// applyBatchInto is the one build path: Apply, ApplyCtx, ApplyBatch
// and ApplyBatchCtx all end here. It fills results[i] as ops[i]
// completes, so when a typed abort (budget trip, injected fault) unwinds
// the batch, the entries already produced report which operations
// finished — the partial-result contract of ApplyBatchCtx. results must
// have len(ops) entries, pre-filled with node.Nil.
func (k *Kernel) applyBatchInto(ops []BinOp, results []node.Ref) {
	if len(ops) == 0 {
		return
	}
	for _, op := range ops {
		if op.Op >= numBinaryOps {
			panic("core: Apply with non-binary op " + op.Op.String())
		}
		if !op.F.Valid() || !op.G.Valid() {
			panic("core: Apply with invalid operand")
		}
	}

	// Pin all operands across the batch-entry collection. The unpin is
	// deferred so an aborted (canceled) batch does not leak pins. No
	// collection runs inside the batch, so results need no pins.
	pins := make([]Pin, 2*len(ops))
	for i, op := range ops {
		pins[2*i].ref, pins[2*i+1].ref = op.F, op.G
	}
	k.pinAll(pins)
	defer k.unpinAll(pins)
	// A previous abort on an uninterruptible build (e.g. a mid-build
	// budget trip) leaves its error latched in abortErr; only armInterrupt
	// clears it otherwise. This build must start clean or the first poll
	// would re-abort it with the stale error.
	k.abortErr.Store(nil)
	defer k.convertAbort()
	k.ensureReadable()
	k.budgetGate()
	for i := range ops {
		ops[i].F, ops[i].G = pins[2*i].ref, pins[2*i+1].ref
	}

	if k.opts.Engine == EnginePar && len(k.workers) > 1 {
		k.parApplyBatch(ops, results)
	} else {
		w := k.workers[0]
		for i, op := range ops {
			switch k.opts.Engine {
			case EngineDF:
				results[i] = w.dfApply(op.Op, op.F, op.G)
			case EngineHybrid:
				results[i] = w.hybridApply(op.Op, op.F, op.G)
			case EngineBF, EnginePBF, EnginePar: // a one-worker par kernel runs pbf
				results[i] = w.pbfApply(op.Op, op.F, op.G)
			default:
				panic("core: unknown engine")
			}
		}
	}
	if plantedOracleBug {
		for i, op := range ops {
			if op.Op == OpDiff && op.F == op.G && !op.F.IsTerminal() {
				results[i] = node.One // deliberately wrong: f \ f is Zero (see oraclebug_on.go)
			}
		}
	}
	k.sampleMemory()
}

// parApplyBatch seeds the operations round-robin over the workers and
// runs all workers symmetrically, worker 0 on the caller goroutine: each
// drives its own seeds to completion and then turns thief until the
// whole batch is done.
func (k *Kernel) parApplyBatch(ops []BinOp, results []node.Ref) {
	P := len(k.workers)

	// Seeding runs on the caller goroutine before any worker goroutine
	// starts, so touching each worker's private queues is safe. Op i is
	// seeded on worker i mod P.
	roots := k.batchRoots[:0]
	for i, op := range ops {
		w := k.workers[i%P]
		w.nOps = 0
		roots = append(roots, w.preprocess(op.Op, op.F, op.G))
	}
	k.batchRoots = roots
	var seeded int32
	for _, w := range k.workers {
		if w.pendingTotal > 0 {
			seeded++
		}
	}
	if seeded == 0 {
		// Every operation resolved at its root (terminal case or cache
		// hit): no operator node exists, so no worker has work.
		for i, r := range roots {
			results[i] = r.Ref()
		}
		return
	}

	k.opDone.Store(false)
	k.batchActive.Store(seeded)
	k.batchWG.Add(P)
	for _, w := range k.workers[1:] {
		go w.runBatch()
	}
	k.workers[0].runBatch()
	k.batchWG.Wait()
	// Harvest the roots. After an abort only those that completed are
	// reported, so the partial-result contract of ApplyBatchCtx holds; the
	// refs point into the append-only node store, so they stay valid after
	// abortTopLevel recycles the operator arenas.
	aborted := k.aborted()
	for i, r := range roots {
		if !r.IsOpHandle() {
			results[i] = r.Ref()
			continue
		}
		o := k.workers[i%P].opAt(opRef(r))
		if o.state.Load() == opDone {
			results[i] = o.resultRef()
		} else if !aborted {
			panic(internalf("parApplyBatch", "batch root %d not reduced", i))
		}
	}
	if aborted {
		panic(buildAborted{})
	}
	k.endTopLevel()
}

// runBatch is one worker's share of a parallel batch: its seeds, then
// stealing until every worker's seeds are done. A canceled build unwinds
// the worker with the buildAborted sentinel; catchAbort swallows it and
// raises opDone so the still-idle workers drain too. The abort is
// re-raised on the caller goroutine once every worker has quiesced.
func (w *worker) runBatch() {
	k := w.k
	defer k.batchWG.Done()
	defer k.catchAbort()
	if w.pendingTotal > 0 {
		w.evalCycle()
		if k.batchActive.Add(-1) == 0 {
			k.opDone.Store(true)
			return
		}
	}
	w.idleLoop()
}
