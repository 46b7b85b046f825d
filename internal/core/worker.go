package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bfbdd/internal/cache"
	"bfbdd/internal/faultinject"
	"bfbdd/internal/node"
	"bfbdd/internal/stats"
	"bfbdd/internal/trace"
)

// evalContext is a pushed evaluation context: the paper's unit of both
// memory control (§3.1) and load distribution (§3.3). It holds the groups
// of not-yet-expanded operator nodes that remained when the evaluation
// threshold was reached. The owner drains groups from the back (newest);
// thieves steal from the front (oldest), maximizing the stolen subtree.
//
// Group membership alone does not confer ownership: every operator node is
// individually claimed with a CAS (opQueued → opClaimed), because an
// operator node sitting in a group can also be claimed by its creator
// through a compute-cache hit.
type evalContext struct {
	groups [][]opRef
	depth  int // the pushing worker's scope depth
}

// ownerCtx pairs a pushed evalContext with the reduce queues that were
// accumulated before the push; only the pushing worker touches the reduce
// queues (when the context is popped).
type ownerCtx struct {
	ec     *evalContext
	reduce [][]opRef
}

// worker is one construction process: it owns per-variable operator-node
// arenas (which double as operator and reduce queues), a private compute
// cache, a row of BDD-node arenas in the shared store, and a stack of
// stealable evaluation contexts.
type worker struct {
	id int
	k  *Kernel

	cache *cache.Cache
	ops   []opArena // per level

	// Operator-node memory (see opnode.go). pool holds the blocks
	// released scopes gave back, for any level's arena. opLog is the
	// undo log of the open scopes; opLogged[level] is the scope that
	// last logged the level, scope the innermost open one, and scopes
	// the last id issued. depth is the nesting of open scopes, and
	// stolen[d] counts groups thieves hold of this worker's contexts
	// pushed at depth d.
	pool     []*opBlock
	released []*opBlock // blocks quarantine set aside
	opLog    []opMark
	opLogged []uint64
	scope    uint64
	scopes   uint64
	depth    int
	stolen   [maxScopeDepth]atomic.Int32

	pending      [][]opRef // per level: claimed ops awaiting expansion
	pendingTotal int
	curReduce    [][]opRef // per level: expanded ops awaiting reduction

	nOps          int // Shannon steps since the last context push
	checkCounter  int // countdown to the next steal-request poll
	cancelCounter int // countdown to the next interrupt-probe poll

	ctxMu sync.Mutex
	ctxs  []*evalContext // registered stealable contexts, oldest first

	// opBytes counts the blocks the operator arenas and the pool hold;
	// atomic because checkBudget reads it. opPeak is its high-water
	// since the last sampleMemory.
	opBytes atomic.Uint64
	opPeak  uint64

	st  stats.Worker
	rng uint64
}

func newWorker(k *Kernel, id int) *worker {
	L := k.opts.Levels
	w := &worker{
		id:        id,
		k:         k,
		cache:     cache.New(L, k.opts.CacheBits),
		ops:       make([]opArena, L),
		opLogged:  make([]uint64, L),
		scope:     1,
		scopes:    1,
		pending:   make([][]opRef, L),
		curReduce: make([][]opRef, L),
		rng:       uint64(id)*0x9E3779B97F4A7C15 + 0x853C49E6748FEA9B,
	}
	return w
}

// opAt resolves an operator-node handle, which may belong to any worker.
func (w *worker) opAt(h opRef) *opNode {
	return w.k.workers[h.worker()].ops[h.level()].at(h.index())
}

// enqueue adds a claimed operator node to the pending (operator) queue of
// its level.
func (w *worker) enqueue(lvl int, h opRef) {
	w.pending[lvl] = append(w.pending[lvl], h)
	w.pendingTotal++
}

// preprocess implements the paper's preprocess_op (Fig 4): terminal test,
// compute-cache probe, and otherwise creation + queueing of an operator
// node. It returns a tagged word holding either the finished BDD or an
// operator-node handle whose result materializes during reduction.
func (w *worker) preprocess(op Op, f, g node.Ref) cache.Tagged {
	if r, ok := terminal(op, f, g); ok {
		w.st.Terminals++
		return cache.FromRef(r)
	}
	if op.Commutative() && g < f {
		f, g = g, f
	}
	lvl := node.TopLevel(f, g)
	if v, ok := w.cache.Lookup(lvl, uint8(op), f, g); ok {
		if !v.IsOpHandle() {
			w.st.CacheHits++
			return v
		}
		h := opRef(v)
		if o := w.cachedOp(h, op, f, g); o != nil {
			w.st.CacheHits++
			switch o.state.Load() {
			case opDone:
				res := o.resultRef()
				w.cache.Update(lvl, uint8(op), f, g, cache.FromRef(res))
				return cache.FromRef(res)
			case opQueued:
				// The operator node was released into a context group;
				// claim it into our own pending queue so the current
				// context can not deadlock waiting on an outer context's
				// group.
				if o.state.CompareAndSwap(opQueued, opClaimed) {
					w.enqueue(lvl, h)
				}
				return v
			default: // opClaimed: someone (possibly a thief) will produce it
				return v
			}
		}
	}
	if faultinject.Enabled {
		if err := faultinject.Check(faultinject.OpAlloc); err != nil {
			panic(err)
		}
	}
	h := w.allocOp(lvl, op, f, g)
	w.enqueue(lvl, h)
	w.cache.Insert(lvl, uint8(op), f, g, h.tagged())
	return h.tagged()
}

// shareRequested reports (with low polling overhead) whether idle workers
// are waiting for stealable work.
func (w *worker) shareRequested() bool {
	if !w.k.opts.Stealing || len(w.k.workers) == 1 {
		return false
	}
	w.checkCounter--
	if w.checkCounter > 0 {
		return false
	}
	w.checkCounter = 256
	return w.k.stealWanted.Load() > 0
}

// expand is the paper's expansion phase (Fig 5): process operator queues
// from the highest- to the lowest-precedence variable, Shannon-expanding
// every queued operation. When the evaluation threshold is exceeded — or
// when idle workers request sharable work — the remaining operators are
// partitioned into groups and the current context is pushed.
//
// Returns the pushed context, or nil if the queues drained completely.
// allowPush=false (hybrid engine) reports overflow instead of pushing.
func (w *worker) expand(allowPush bool) (pushed *ownerCtx, overflow bool) {
	k := w.k
	// The effective threshold can drop mid-build under memory pressure
	// (budget degradation); re-read it at the poll cadence so a running
	// expansion adopts the lower value promptly without an atomic load on
	// every Shannon step.
	threshold := int(k.effThreshold.Load())
	btr := k.btr // nil unless this build is traced
	for lvl := 0; lvl < k.opts.Levels; lvl++ {
		q := w.pending[lvl]
		var lvlStart time.Time
		if btr != nil && len(q) > 0 {
			lvlStart = time.Now()
		}
		for i := 0; i < len(q); i++ {
			h := q[i]
			o := w.opAt(h)
			fl, gl := k.store.Low(o.f, lvl), k.store.Low(o.g, lvl)
			o.b0 = w.preprocess(o.op, fl, gl)
			fh, gh := k.store.High(o.f, lvl), k.store.High(o.g, lvl)
			o.b1 = w.preprocess(o.op, fh, gh)
			w.curReduce[lvl] = append(w.curReduce[lvl], h)
			w.pendingTotal--
			w.st.Ops++
			w.nOps++
			w.pollCancel()
			if w.cancelCounter == cancelPollInterval {
				threshold = int(k.effThreshold.Load())
			}
			if w.nOps >= threshold || (w.shareRequested() && w.pendingTotal > k.opts.GroupSize) {
				w.nOps = 0
				if btr != nil {
					btr.Add(k.btrParent, "expand", lvlStart, time.Now(),
						trace.I("level", int64(lvl)), trace.I("ops", int64(i+1)), trace.I("worker", int64(w.id)))
				}
				if !allowPush {
					w.pending[lvl] = q[i+1:]
					return nil, true
				}
				return w.pushContext(lvl, q[i+1:]), false
			}
		}
		if btr != nil && len(q) > 0 {
			btr.Add(k.btrParent, "expand", lvlStart, time.Now(),
				trace.I("level", int64(lvl)), trace.I("ops", int64(len(q))), trace.I("worker", int64(w.id)))
		}
		w.pending[lvl] = q[:0]
	}
	return nil, false
}

// pushContext implements Fig 5 lines 9–14: the remaining operators (the
// unprocessed tail of the current level plus everything at lower
// precedence) are released (opClaimed → opQueued), partitioned into small
// groups, and published as a stealable context. The reduce queues built so
// far move into the context, to be reduced when it is popped.
//
// Only the worker's own operator nodes are released. Another worker's
// nodes, from a group this one stole, stay in the pending queues for the
// drain loop: the victim keeps them only while this worker's
// runIsolated holds the group, so they must not pass on to a third
// worker that could still hold them after it returns.
func (w *worker) pushContext(lvl int, tail []opRef) *ownerCtx {
	k := w.k
	groupSize := k.opts.GroupSize
	var groups [][]opRef
	cur := make([]opRef, 0, groupSize)
	kept := 0
	release := func(l int, q []opRef) {
		foreign := w.pending[l][:0] // q is a suffix of pending[l]
		for _, h := range q {
			if h.worker() != w.id {
				foreign = append(foreign, h)
				continue
			}
			w.opAt(h).state.Store(opQueued)
			cur = append(cur, h)
			if len(cur) == groupSize {
				groups = append(groups, cur)
				cur = make([]opRef, 0, groupSize)
			}
		}
		w.pending[l] = foreign
		kept += len(foreign)
	}
	release(lvl, tail)
	for l := lvl + 1; l < k.opts.Levels; l++ {
		release(l, w.pending[l])
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	w.pendingTotal = kept

	ec := &evalContext{groups: groups, depth: w.depth}
	oc := &ownerCtx{ec: ec, reduce: w.curReduce}
	w.curReduce = make([][]opRef, k.opts.Levels)
	w.registerCtx(ec)
	w.st.ContextPushes++
	return oc
}

func (w *worker) registerCtx(ec *evalContext) {
	w.ctxMu.Lock()
	w.ctxs = append(w.ctxs, ec)
	w.ctxMu.Unlock()
}

func (w *worker) unregisterCtx(ec *evalContext) {
	w.ctxMu.Lock()
	for i, c := range w.ctxs {
		if c == ec {
			w.ctxs = append(w.ctxs[:i], w.ctxs[i+1:]...)
			break
		}
	}
	w.ctxMu.Unlock()
}

// takeOwnGroup removes the newest group of ec, or nil when drained.
func (w *worker) takeOwnGroup(ec *evalContext) []opRef {
	w.ctxMu.Lock()
	defer w.ctxMu.Unlock()
	n := len(ec.groups)
	if n == 0 {
		return nil
	}
	g := ec.groups[n-1]
	ec.groups = ec.groups[:n-1]
	return g
}

// stealFrom removes the oldest group of any of victim's registered
// contexts, or nil. Taking another worker's group counts it as held in
// victim.stolen until the returned counter is decremented.
func (w *worker) stealFrom(victim *worker) ([]opRef, *atomic.Int32) {
	victim.ctxMu.Lock()
	defer victim.ctxMu.Unlock()
	for _, ec := range victim.ctxs {
		if len(ec.groups) > 0 {
			g := ec.groups[0]
			ec.groups = ec.groups[1:]
			if victim == w {
				return g, nil
			}
			held := &victim.stolen[min(ec.depth, maxScopeDepth-1)]
			held.Add(1)
			return g, held
		}
	}
	return nil, nil
}

// stealAny scans all workers (victim order randomized, self last) for a
// stealable group. With stealing disabled (ablation) only self-stealing
// remains: a worker may always drain its own contexts' groups.
func (w *worker) stealAny() ([]opRef, *atomic.Int32) {
	if w.k.opts.Stealing {
		ws := w.k.workers
		n := len(ws)
		w.rng = w.rng*6364136223846793005 + 1442695040888963407
		start := int(w.rng>>33) % n
		for i := 0; i < n; i++ {
			v := ws[(start+i)%n]
			if v == w {
				continue
			}
			if g, held := w.stealFrom(v); g != nil {
				return g, held
			}
		}
	}
	// Self-steal: processing our own outer contexts' groups is useful
	// work while stalled.
	return w.stealFrom(w)
}

// claimGroup claims each operator node of g into the pending queues.
// Nodes already claimed elsewhere (cache-hit claims or races) are skipped.
func (w *worker) claimGroup(g []opRef) {
	for _, h := range g {
		o := w.opAt(h)
		if o.state.CompareAndSwap(opQueued, opClaimed) {
			w.enqueue(h.level(), h)
		}
	}
}

// evalCycle runs the pbf_op loop (Fig 4) for whatever is in the pending
// queues: expand; if a context was pushed, drain its groups (each drained
// group recursing through evalCycle), then pop it and reduce its queues;
// otherwise reduce the current queues.
func (w *worker) evalCycle() {
	t0 := time.Now()
	oc, _ := w.expand(true)
	w.st.AddPhase(stats.PhaseExpansion, time.Since(t0))
	if oc == nil {
		w.reduceAll(w.curReduce)
		return
	}
	for {
		// The first drained group also takes the stolen nodes that
		// pushContext kept back; with no group left they run alone.
		if g := w.takeOwnGroup(oc.ec); g != nil {
			w.claimGroup(g)
		} else if w.pendingTotal == 0 {
			break
		}
		if w.pendingTotal > 0 {
			s := w.enterScope()
			w.evalCycle()
			w.leaveScope(s)
		}
	}
	w.unregisterCtx(oc.ec)
	w.st.ContextPops++
	// Pop: restore the context's reduce queues and reduce them. Stolen
	// groups may still be in flight; reduceAll stalls (and helps) until
	// their results arrive.
	saved := w.curReduce
	w.curReduce = oc.reduce
	w.reduceAll(w.curReduce)
	w.curReduce = saved
}

// reduceAll is the reduction phase (Fig 6): bottom-up over the variables,
// resolving each expanded operator node's branches and creating canonical
// BDD nodes in the per-variable unique tables. A pass over one variable
// acquires that variable's lock once and produces all of this worker's new
// nodes for the variable under it (§3.2).
func (w *worker) reduceAll(rq [][]opRef) {
	t0 := time.Now()
	k := w.k
	btr := k.btr // nil unless this build is traced
	for lvl := k.opts.Levels - 1; lvl >= 0; lvl-- {
		q := rq[lvl]
		if len(q) == 0 {
			continue
		}
		// This pass allocates at lvl: bring it home if spilled, and warm
		// the next levels of the sweep (two atomic loads when no tier or
		// nothing spilled).
		k.pinLevel(lvl)
		k.prefetchAhead(lvl)
		var lvlStart time.Time
		lvlOps := len(q)
		if btr != nil {
			lvlStart = time.Now()
		}
		emptyRounds := 0
		for {
			d := w.reducePass(lvl, q)
			if len(d) == 0 {
				break
			}
			if len(d) == len(q) && len(k.workers) == 1 {
				// With a single worker there is no thief to wait for:
				// an unresolvable branch is an engine bug, not a stall.
				panic(internalf("reduceAll", "sequential reduction made no progress at level %d", lvl))
			}
			if len(d) < len(q) {
				emptyRounds = 0
			}
			q = d
			// Results owed by thieves have not arrived: stall, becoming
			// a thief ourselves (§3.3). A stalled reducer must also poll
			// for cancellation: the thief it waits on may already have
			// unwound from an aborted build.
			w.checkCancelNow()
			w.st.Stalls++
			if w.stallHelp() {
				emptyRounds = 0
				continue
			}
			emptyRounds++
			if emptyRounds >= stallEscalateRounds {
				// Nothing is stealable and the blockers are not
				// finishing: group-granularity stealing can park an
				// expanded operator node inside another worker's pushed
				// (unpopped) context, and such waits can form cycles
				// across workers. Break the cycle by computing the
				// blocked branches directly, depth-first — duplicated
				// work, guaranteed progress.
				w.forceResolve(q)
				emptyRounds = 0
			}
		}
		rq[lvl] = rq[lvl][:0]
		if btr != nil {
			btr.Add(k.btrParent, "reduce", lvlStart, time.Now(),
				trace.I("level", int64(lvl)), trace.I("ops", int64(lvlOps)), trace.I("worker", int64(w.id)))
		}
		// Reduction is where nodes are actually allocated, and a build
		// whose expansion phase has finished never reaches the expansion
		// poll again — without a poll here the final reduction could
		// overrun the budget by its entire allocation. The level lock is
		// released between passes, so this is a safe unwind point.
		w.checkCancelNow()
		k.checkBudget()
	}
	w.st.AddPhase(stats.PhaseReduction, time.Since(t0))
}

// reducePass reduces every ready operator node in q, returning the ones
// whose branch results are still being produced elsewhere. The
// unique-table unlock is deferred so a panic out of FindOrAdd (injected
// allocation failure, invariant violation) unwinds without leaking the
// level's lock — peers quiescing from the same aborted build still need
// to acquire it.
func (w *worker) reducePass(lvl int, q []opRef) (deferred []opRef) {
	k := w.k
	t := &k.tables[lvl]
	locking := k.opts.Engine == EnginePar
	locked := false
	defer func() {
		if locked {
			t.Unlock()
		}
	}()
	for _, h := range q {
		o := w.opAt(h)
		r0, ok0 := w.resolve(o.b0)
		if !ok0 {
			deferred = append(deferred, h)
			continue
		}
		r1, ok1 := w.resolve(o.b1)
		if !ok1 {
			deferred = append(deferred, h)
			continue
		}
		var res node.Ref
		if r0 == r1 {
			res = r0
		} else {
			if locking && !locked {
				w.st.LockWaitNs += int64(t.Lock())
				locked = true
			}
			res = k.findOrAdd(t, w.id, lvl, r0, r1)
		}
		o.setResult(res)
		if h.worker() == w.id && w.depth > 0 {
			// A nested scope gives its nodes back before the operation
			// ends, so the result must outlive the node in the cache. At
			// the top level the handle serves until the operation ends,
			// and a rewrite there, a random write per node, cost mult-10
			// and mult-11 builds 7–18% at the default threshold.
			w.cache.Update(lvl, uint8(o.op), o.f, o.g, cache.FromRef(res))
		}
		w.st.ReducedOps++
	}
	return deferred
}

// resolve turns a tagged branch word into a BDD ref, reporting false when
// it references an operator node whose result is not yet available.
func (w *worker) resolve(v cache.Tagged) (node.Ref, bool) {
	if !v.IsOpHandle() {
		return v.Ref(), true
	}
	o := w.opAt(opRef(v))
	if o.state.Load() == opDone {
		return o.resultRef(), true
	}
	return node.Nil, false
}

// stallEscalateRounds is the number of consecutive steal-less stall
// rounds after which a blocked reducer computes its blockers itself.
const stallEscalateRounds = 64

// stallHelp is invoked when reduction is blocked on thief results: try to
// steal (and fully process) a group; otherwise yield. Reports whether any
// work was found.
func (w *worker) stallHelp() bool {
	t0 := time.Now()
	found := false
	if g, held := w.stealAny(); g != nil {
		w.st.Steals++
		w.runIsolated(g, held)
		found = true
	} else {
		runtime.Gosched()
	}
	w.st.StallNs += int64(time.Since(t0))
	return found
}

// forceResolve computes the unresolved branches of the deferred operator
// nodes depth-first, without waiting for their claimants. The depth-first
// evaluation reuses this worker's compute cache and the shared unique
// tables, so results are canonical; the claimant may later publish the
// identical result again, which the atomic result/state protocol allows.
func (w *worker) forceResolve(deferred []opRef) {
	for _, h := range deferred {
		o := w.opAt(h)
		for _, branch := range [2]cache.Tagged{o.b0, o.b1} {
			if !branch.IsOpHandle() {
				continue
			}
			bo := w.opAt(opRef(branch))
			if bo.state.Load() == opDone {
				continue
			}
			res := w.dfApply(bo.op, bo.f, bo.g)
			bo.setResult(res)
			w.st.ForcedOps++
		}
	}
}

// runIsolated processes a stolen group to completion in a fresh queue
// environment and scope, leaving the worker's in-progress state
// untouched. Stolen operator nodes get their results written and
// published via their state word, which is how they return to their
// owner (§3.3); then held, the victim's count of the group (nil for a
// group of the worker's own), is decremented.
func (w *worker) runIsolated(g []opRef, held *atomic.Int32) {
	savedPending, savedTotal := w.pending, w.pendingTotal
	savedReduce, savedNOps := w.curReduce, w.nOps
	L := w.k.opts.Levels
	w.pending = make([][]opRef, L)
	w.curReduce = make([][]opRef, L)
	w.pendingTotal, w.nOps = 0, 0

	w.claimGroup(g)
	w.st.StolenOps += uint64(w.pendingTotal)
	if w.pendingTotal > 0 {
		s := w.enterScope()
		w.evalCycle()
		w.leaveScope(s)
	}

	w.pending, w.pendingTotal = savedPending, savedTotal
	w.curReduce, w.nOps = savedReduce, savedNOps
	if held != nil {
		held.Add(-1)
	}
}

// pbfApply runs one top-level operation with the (sequential) partial
// breadth-first engine. With an unbounded threshold this is the pure
// breadth-first algorithm.
func (w *worker) pbfApply(op Op, f, g node.Ref) node.Ref {
	w.nOps = 0
	root := w.preprocess(op, f, g)
	if !root.IsOpHandle() {
		return root.Ref()
	}
	w.evalCycle()
	o := w.opAt(opRef(root))
	if o.state.Load() != opDone {
		panic(internalf("pbfApply", "root not reduced"))
	}
	res := o.resultRef()
	w.k.endTopLevel()
	return res
}

// idleLoop is the life of a non-seeding worker during a parallel
// top-level operation: steal groups and process them until the operation
// completes. When nothing is stealable it raises stealWanted, prompting
// busy workers to context-switch and create sharable work.
func (w *worker) idleLoop() {
	k := w.k
	wanting := false
	failures := 0
	for !k.opDone.Load() && !k.aborted() {
		if g, held := w.stealAny(); g != nil {
			if wanting {
				k.stealWanted.Add(-1)
				wanting = false
			}
			failures = 0
			w.st.Steals++
			w.runIsolated(g, held)
			continue
		}
		w.st.StealFailures++
		if !wanting {
			k.stealWanted.Add(1)
			wanting = true
		}
		// Back off after repeated failures: a brief sleep keeps spinning
		// thieves from starving the busy workers of scheduler time
		// (particularly on hosts with fewer cores than workers).
		failures++
		if failures > 64 {
			time.Sleep(20 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
	if wanting {
		k.stealWanted.Add(-1)
	}
}

// dfApply is the conventional depth-first algorithm (Fig 3). It shares
// the worker's compute cache; a cache hit on a not-yet-reduced operator
// node (possible in the hybrid engine's depth-first phase) computes the
// operation immediately and publishes the operator node's result.
func (w *worker) dfApply(op Op, f, g node.Ref) node.Ref {
	w.pollCancel()
	if r, ok := terminal(op, f, g); ok {
		w.st.Terminals++
		return r
	}
	if op.Commutative() && g < f {
		f, g = g, f
	}
	lvl := node.TopLevel(f, g)
	if v, ok := w.cache.Lookup(lvl, uint8(op), f, g); ok {
		if !v.IsOpHandle() {
			w.st.CacheHits++
			return v.Ref()
		}
		if o := w.cachedOp(opRef(v), op, f, g); o != nil {
			w.st.CacheHits++
			if o.state.Load() == opDone {
				return o.resultRef()
			}
			res := w.dfExpandOnce(op, f, g, lvl)
			o.setResult(res)
			w.cache.Update(lvl, uint8(op), f, g, cache.FromRef(res))
			return res
		}
	}
	res := w.dfExpandOnce(op, f, g, lvl)
	w.cache.Insert(lvl, uint8(op), f, g, cache.FromRef(res))
	return res
}

// dfExpandOnce performs one Shannon expansion step depth-first.
func (w *worker) dfExpandOnce(op Op, f, g node.Ref, lvl int) node.Ref {
	k := w.k
	r0 := w.dfApply(op, k.store.Low(f, lvl), k.store.Low(g, lvl))
	r1 := w.dfApply(op, k.store.High(f, lvl), k.store.High(g, lvl))
	w.st.Ops++
	return k.mkNode(w.id, lvl, r0, r1)
}

// hybridApply is the hybrid engine of [8]: breadth-first expansion until
// the evaluation threshold, then depth-first evaluation of the remaining
// queued operations, then the normal breadth-first reduction.
func (w *worker) hybridApply(op Op, f, g node.Ref) node.Ref {
	w.nOps = 0
	root := w.preprocess(op, f, g)
	if !root.IsOpHandle() {
		return root.Ref()
	}
	for {
		t0 := time.Now()
		_, overflow := w.expand(false)
		w.st.AddPhase(stats.PhaseExpansion, time.Since(t0))
		if !overflow {
			break
		}
		// Depth-first drain of everything still pending.
		for lvl := 0; lvl < w.k.opts.Levels; lvl++ {
			q := w.pending[lvl]
			for _, h := range q {
				o := w.opAt(h)
				if o.state.Load() == opDone {
					continue
				}
				res := w.dfApply(o.op, o.f, o.g)
				o.setResult(res)
			}
			w.pendingTotal -= len(q)
			w.pending[lvl] = q[:0]
		}
	}
	w.reduceAll(w.curReduce)
	o := w.opAt(opRef(root))
	if o.state.Load() != opDone {
		panic(internalf("hybridApply", "root not reduced"))
	}
	res := o.resultRef()
	w.k.endTopLevel()
	return res
}

// checkQuiescent panics if the worker has queued work (debug aid).
func (w *worker) checkQuiescent() {
	if w.pendingTotal != 0 {
		panic(internalf("checkQuiescent", "worker %d has %d pending ops at quiescence", w.id, w.pendingTotal))
	}
}
