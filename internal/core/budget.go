package core

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync/atomic"

	"bfbdd/internal/faultinject"
)

// Resource governance.
//
// A kernel can be created with a node and/or byte budget (Options.MaxNodes,
// Options.MaxBytes). Enforcement happens in two places:
//
//   - mid-build, the workers' amortized poll (pollCancel → checkBudget)
//     compares the live-node count and the memory account against the
//     budget. At the soft threshold (7/8 of the budget) it degrades by
//     lowering the effective partial-BF evaluation threshold toward
//     depth-first — the paper's own memory-control knob (§3.1): a smaller
//     threshold bounds the breadth-first queues and operator arenas at the
//     cost of locality. At the hard threshold it aborts the build through
//     the buildAborted cancellation machinery with a typed *BudgetError.
//
//   - at top-level-operation boundaries (budgetGate), where every worker
//     is quiescent, the remaining escalation steps run: force an early
//     collection (which rebuilds the compute caches at half size), then
//     free the caches outright (Cache.Shrink, the same rebuild with a
//     ceiling of zero entries) together with the operator blocks kept
//     between operations, and only if the pinned live state alone
//     still busts the budget, refuse the operation with *BudgetError
//     before any transient state is built.
//
// The escalation ladder is therefore: degrade threshold → forced GC →
// cache shrink → typed abort; the kernel stays consistent and reusable
// after every rung (see DESIGN.md §8).

// ErrBudgetExceeded is the sentinel wrapped by every *BudgetError;
// classify budget aborts with errors.Is(err, ErrBudgetExceeded).
var ErrBudgetExceeded = errors.New("resource budget exceeded")

// LevelUsage is the live node count of one variable level, reported in a
// BudgetError so callers can see which variables dominate the blow-up.
type LevelUsage struct {
	Level int
	Nodes uint64
}

// BudgetError reports a build aborted (or refused) because the kernel's
// node or byte budget was exceeded after all graceful-degradation steps.
// The kernel remains consistent and immediately usable.
type BudgetError struct {
	Kind     string // "nodes" or "bytes": which limit tripped
	Live     uint64 // approximate live nodes at abort
	MaxNodes uint64 // configured node budget (0 = unlimited)
	Bytes    uint64 // approximate total bytes at abort
	MaxBytes uint64 // configured byte budget (0 = unlimited)

	// Degradation-step counters at the time of the abort.
	ForcedGCs      uint64
	ThresholdDrops uint64
	CacheShrinks   uint64

	// PerLevel lists the heaviest variable levels by live node count,
	// descending. Filled once the aborted build has quiesced.
	PerLevel []LevelUsage
}

func (e *BudgetError) Error() string {
	switch e.Kind {
	case "bytes":
		return fmt.Sprintf("build aborted: %v (%d bytes live, budget %d)",
			ErrBudgetExceeded, e.Bytes, e.MaxBytes)
	default:
		return fmt.Sprintf("build aborted: %v (%d nodes live, budget %d)",
			ErrBudgetExceeded, e.Live, e.MaxNodes)
	}
}

func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// InternalError is a kernel invariant violation converted into a typed
// error instead of a raw panic string, so the serving layer can contain
// it to one session (poisoning it) rather than losing the process. The
// kernel it came from must be considered corrupt.
type InternalError struct {
	Op    string // the operation or site that detected the violation
	Cause any    // the underlying panic value or description
	Stack []byte // stack captured at the point of detection
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("internal error in %s: %v", e.Op, e.Cause)
}

// internalf builds an *InternalError with the current stack.
func internalf(op, format string, args ...any) *InternalError {
	return &InternalError{Op: op, Cause: fmt.Sprintf(format, args...), Stack: debug.Stack()}
}

// degradedEvalThreshold is the evaluation threshold installed under
// memory pressure: small enough to make expansion effectively
// depth-first (queues stay shallow, operator arenas stay small), large
// enough to keep the per-context bookkeeping amortized.
const degradedEvalThreshold = 64

// budgetState holds the per-kernel budget configuration and the
// degradation counters. Thresholds are immutable after NewKernel; the
// counters are touched by concurrent workers and therefore atomic.
type budgetState struct {
	enabled            bool
	maxNodes, maxBytes uint64 // hard limits (0 = unlimited)
	softNodes          uint64 // degrade above this (7/8 of max)
	softBytes          uint64
	restoreNodes       uint64 // un-degrade below this (1/2 of max)
	restoreBytes       uint64

	degraded       atomic.Bool
	forcedGCs      atomic.Uint64
	thresholdDrops atomic.Uint64
	cacheShrinks   atomic.Uint64
	spills         atomic.Uint64
	aborts         atomic.Uint64
}

func (b *budgetState) init(opts Options) {
	b.maxNodes, b.maxBytes = opts.MaxNodes, opts.MaxBytes
	b.enabled = b.maxNodes > 0 || b.maxBytes > 0
	b.softNodes = b.maxNodes - b.maxNodes/8
	b.softBytes = b.maxBytes - b.maxBytes/8
	b.restoreNodes = b.maxNodes / 2
	b.restoreBytes = b.maxBytes / 2
}

// overSoft reports whether usage is above the degradation threshold.
func (b *budgetState) overSoft(live, mem uint64) bool {
	return (b.maxNodes > 0 && live > b.softNodes) ||
		(b.maxBytes > 0 && mem > b.softBytes)
}

// overHard reports whether usage is above the budget itself, and which
// limit tripped.
func (b *budgetState) overHard(live, mem uint64) (string, bool) {
	if b.maxNodes > 0 && live > b.maxNodes {
		return "nodes", true
	}
	if b.maxBytes > 0 && mem > b.maxBytes {
		return "bytes", true
	}
	return "", false
}

// BudgetStats is a snapshot of the degradation counters.
type BudgetStats struct {
	ForcedGCs      uint64
	ThresholdDrops uint64
	CacheShrinks   uint64
	Spills         uint64
	Aborts         uint64
}

// BudgetStats returns the degradation counters.
func (k *Kernel) BudgetStats() BudgetStats {
	return BudgetStats{
		ForcedGCs:      k.budget.forcedGCs.Load(),
		ThresholdDrops: k.budget.thresholdDrops.Load(),
		CacheShrinks:   k.budget.cacheShrinks.Load(),
		Spills:         k.budget.spills.Load(),
		Aborts:         k.budget.aborts.Load(),
	}
}

// EffEvalThreshold returns the evaluation threshold currently in effect
// (lowered from Options.EvalThreshold while degraded), 0 while unbounded.
func (k *Kernel) EffEvalThreshold() int {
	if t := k.effThreshold.Load(); t < math.MaxInt64 {
		return int(t)
	}
	return 0
}

// MemBytes returns the kernel's memory footprint: heap-resident node
// blocks, operator-arena blocks, compute-cache segments and unique-table
// slots, read from the allocators' running account in O(workers). It is
// the figure the peak samples and the byte budget compares. Safe to call
// concurrently with a build.
func (k *Kernel) MemBytes() uint64 { return k.account().Total() }

// checkBudget is the mid-build budget poll, called from pollCancel on
// the expansion/reduction paths (no unique-table lock held). It uses
// only O(workers) atomic reads, so it is cheap enough for the amortized
// poll cadence.
func (k *Kernel) checkBudget() {
	b := &k.budget
	if !b.enabled {
		return
	}
	live := k.NumNodes()
	mem := k.MemBytes()
	if kind, over := b.overHard(live, mem); over {
		k.abortBudget(kind, live, mem)
	}
	if b.overSoft(live, mem) {
		k.degradeThreshold()
	}
}

// degradeThreshold lowers the effective evaluation threshold toward
// depth-first. Idempotent per degradation episode: the first worker to
// cross the soft threshold wins the CAS and installs the new threshold.
func (k *Kernel) degradeThreshold() {
	if k.budget.degraded.CompareAndSwap(false, true) {
		if int64(degradedEvalThreshold) < k.effThreshold.Load() {
			k.effThreshold.Store(degradedEvalThreshold)
		}
		k.budget.thresholdDrops.Add(1)
	}
}

// restoreThreshold undoes degradation once usage has fallen back below
// the restore watermark. Boundary-only.
func (k *Kernel) restoreThreshold(live, mem uint64) {
	b := &k.budget
	if !b.degraded.Load() {
		return
	}
	if b.maxNodes > 0 && live > b.restoreNodes {
		return
	}
	if b.maxBytes > 0 && mem > b.restoreBytes {
		return
	}
	b.degraded.Store(false)
	k.effThreshold.Store(int64(k.opts.EvalThreshold))
}

// abortBudget records a typed budget abort and unwinds the calling
// worker through the buildAborted cancellation machinery; the top-level
// entry point re-raises it as a *BudgetError after the build quiesces.
func (k *Kernel) abortBudget(kind string, live, mem uint64) {
	k.budget.aborts.Add(1)
	err := error(k.newBudgetError(kind, live, mem))
	k.abortErr.CompareAndSwap(nil, &err)
	panic(buildAborted{})
}

func (k *Kernel) newBudgetError(kind string, live, mem uint64) *BudgetError {
	b := &k.budget
	return &BudgetError{
		Kind:     kind,
		Live:     live,
		MaxNodes: b.maxNodes,
		Bytes:    mem,
		MaxBytes: b.maxBytes,

		ForcedGCs:      b.forcedGCs.Load(),
		ThresholdDrops: b.thresholdDrops.Load(),
		CacheShrinks:   b.cacheShrinks.Load(),
	}
}

// budgetTopLevels is how many of the heaviest variable levels a
// BudgetError reports.
const budgetTopLevels = 8

// fillBudgetUsage attaches per-variable usage to a BudgetError. Called
// only after the aborted build has quiesced (reading the arenas' exact
// live counts is then race-free).
func (k *Kernel) fillBudgetUsage(e *BudgetError) {
	if e.PerLevel != nil {
		return
	}
	usage := make([]LevelUsage, 0, k.opts.Levels)
	for l := 0; l < k.opts.Levels; l++ {
		if n := k.store.NodesAtLevel(l); n > 0 {
			usage = append(usage, LevelUsage{Level: l, Nodes: n})
		}
	}
	sort.Slice(usage, func(i, j int) bool {
		if usage[i].Nodes != usage[j].Nodes {
			return usage[i].Nodes > usage[j].Nodes
		}
		return usage[i].Level < usage[j].Level
	})
	if len(usage) > budgetTopLevels {
		usage = usage[:budgetTopLevels]
	}
	e.PerLevel = usage
}

// budgetGate runs at top-level-operation boundaries in place of the
// plain maybeGC check. With no budget configured it is exactly maybeGC.
// Otherwise it walks the escalation ladder while over the soft
// threshold, and refuses the operation with *BudgetError if the pinned
// live state alone is already over the hard limit — no transient build
// state exists yet, so refusing here is clean.
func (k *Kernel) budgetGate() {
	b := &k.budget
	if !b.enabled {
		k.maybeGC()
		return
	}
	live, mem := k.NumNodes(), k.MemBytes()
	if !b.overSoft(live, mem) {
		k.restoreThreshold(live, mem)
		k.maybeGC()
		return
	}
	if k.gcInhibit == 0 {
		k.GC()
		b.forcedGCs.Add(1)
		live, mem = k.NumNodes(), k.MemBytes()
		if !b.overSoft(live, mem) {
			k.restoreThreshold(live, mem)
			return
		}
	}
	var freed uint64
	for _, w := range k.workers {
		freed += w.cache.Shrink()
		w.trimPool(0) // pooled operator blocks: no collection frees them
	}
	if freed > 0 {
		b.cacheShrinks.Add(1)
	}
	mem = k.MemBytes()
	k.degradeThreshold()
	if kind, over := b.overHard(live, mem); over {
		// Last rung before the typed abort: a byte overage can still be
		// relieved by tiering the coldest (deepest) levels to disk — live
		// nodes keep their identity, only their bytes leave the heap. A
		// node overage cannot (spilling does not reduce the node count).
		if kind == "bytes" && k.spillColdest(live) {
			mem = k.MemBytes()
			if kind, over = b.overHard(live, mem); !over {
				return
			}
		}
		b.aborts.Add(1)
		e := k.newBudgetError(kind, live, mem)
		k.fillBudgetUsage(e)
		panic(e)
	}
}

// abortPayload classifies a recovered panic value (or a recorded abort
// error) as one of the typed abort payloads that the context-aware entry
// points return as errors: budget aborts, internal invariant violations,
// and injected faults.
func abortPayload(v any) (error, bool) {
	switch e := v.(type) {
	case nil:
		return nil, false
	case *BudgetError:
		return e, true
	case *InternalError:
		return e, true
	}
	if err, ok := v.(error); ok && errors.Is(err, faultinject.ErrInjected) {
		return err, true
	}
	return nil, false
}

// convertAbort is deferred by the top-level entry points (Apply,
// applyBatchInto). It turns the buildAborted unwind into a typed panic
// when the abort was caused by a budget trip, an injected fault, or a
// contained invariant violation — after discarding the aborted build's
// transient state — and re-raises plain cancellation unchanged for
// ApplyCtx/ApplyBatchCtx to translate. Panics that are not abort
// payloads propagate untouched.
func (k *Kernel) convertAbort() {
	rec := recover()
	if rec == nil {
		return
	}
	if _, ok := rec.(buildAborted); ok {
		k.abortTopLevel()
		if e, ok := abortPayload(k.abortError()); ok {
			if be, isBudget := e.(*BudgetError); isBudget {
				k.fillBudgetUsage(be)
			}
			panic(e)
		}
		panic(buildAborted{})
	}
	if e, ok := abortPayload(rec); ok {
		// Typed panic raised directly on the caller goroutine (sequential
		// engines, or the parallel driver after its workers quiesced).
		k.abortTopLevel()
		if be, isBudget := e.(*BudgetError); isBudget {
			k.fillBudgetUsage(be)
		}
		panic(e)
	}
	panic(rec)
}
