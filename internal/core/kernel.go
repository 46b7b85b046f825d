package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bfbdd/internal/faultinject"
	"bfbdd/internal/node"
	"bfbdd/internal/spill"
	"bfbdd/internal/stats"
	"bfbdd/internal/trace"
	"bfbdd/internal/unique"
)

// Engine selects the construction algorithm.
type Engine int

// The available construction engines.
const (
	// EngineDF is the conventional depth-first algorithm (paper §2.2).
	EngineDF Engine = iota
	// EngineBF is pure breadth-first expansion: partial breadth-first
	// with an unbounded evaluation threshold.
	EngineBF
	// EngineHybrid is breadth-first until the evaluation threshold, then
	// depth-first for the remaining queued operations ([8]).
	EngineHybrid
	// EnginePBF is the paper's sequential partial breadth-first algorithm
	// with evaluation contexts (§3.1).
	EnginePBF
	// EnginePar is the parallel partial breadth-first algorithm (§3).
	EnginePar
)

var engineNames = map[Engine]string{
	EngineDF: "df", EngineBF: "bf", EngineHybrid: "hybrid",
	EnginePBF: "pbf", EnginePar: "par",
}

// String returns the engine name.
func (e Engine) String() string {
	if s, ok := engineNames[e]; ok {
		return s
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// ParseEngine returns the engine whose String is name.
func ParseEngine(name string) (Engine, error) {
	for e, s := range engineNames {
		if s == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q", name)
}

// GCPolicy selects the garbage collection strategy (§3.4).
type GCPolicy int

// The available GC policies.
const (
	// GCCompact is the paper's mark-and-sweep collector with memory
	// compaction: mark, fix references, rehash.
	GCCompact GCPolicy = iota
	// GCFreeList is the non-compacting alternative: mark, then sweep dead
	// nodes onto per-arena free lists. Kept for the §3.4 ablation.
	GCFreeList
)

// String returns the policy name.
func (p GCPolicy) String() string {
	if p == GCFreeList {
		return "freelist"
	}
	return "compact"
}

// Options configures a Kernel.
type Options struct {
	// Levels is the number of Boolean variables (levels).
	Levels int
	// Engine selects the construction algorithm.
	Engine Engine
	// Workers is the parallel worker count (EnginePar only; others use 1).
	Workers int
	// EvalThreshold is the partial breadth-first evaluation threshold:
	// the number of Shannon expansions performed in one evaluation
	// context before the remainder is pushed as a new context (§3.1).
	EvalThreshold int
	// GroupSize is the number of operations per stealable group when a
	// context is pushed (§3.3).
	GroupSize int
	// CacheBits bounds each per-variable compute-cache segment at
	// 2^CacheBits entries.
	CacheBits uint
	// GC selects the collector.
	GC GCPolicy
	// GCGrowth is the heap growth factor that triggers collection: GC
	// runs when live nodes exceed GCGrowth × nodes-live-after-last-GC.
	// The paper's sequential configuration collects more aggressively
	// than the parallel one; callers model that with a smaller factor.
	GCGrowth float64
	// GCMinNodes suppresses collection below this live-node count.
	GCMinNodes uint64
	// Stealing enables work stealing (EnginePar; disable for ablation).
	Stealing bool
	// Locking forces unique-table locking even with one worker, matching
	// the paper's distinction between the "Seq" row (no locks) and the
	// 1-processor parallel run (locks present).
	Locking bool
	// MaxNodes, when non-zero, bounds the live node count. Approaching
	// the limit triggers graceful degradation (forced GC, cache shrink,
	// evaluation-threshold drop toward depth-first); exceeding it aborts
	// the build in flight with a typed *BudgetError. See budget.go.
	MaxNodes uint64
	// MaxBytes, when non-zero, bounds the kernel's approximate total
	// memory footprint the same way.
	MaxBytes uint64
	// SpillDir, when non-empty, enables memory tiering: quiescent
	// fully-reduced levels can be spilled to level-major files under this
	// directory and their heap blocks released (see spill.go and
	// DESIGN.md §14). The directory is scratch state owned by this
	// kernel; stale contents are wiped on creation and the whole
	// directory is removed on Close.
	SpillDir string
}

// withDefaults fills in zero-valued options.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Engine != EnginePar {
		o.Workers = 1
	}
	if o.EvalThreshold <= 0 {
		o.EvalThreshold = 1 << 16
	}
	if o.GroupSize <= 0 {
		o.GroupSize = 512
	}
	if o.CacheBits == 0 {
		o.CacheBits = 18
	}
	if o.GCGrowth <= 1 {
		o.GCGrowth = 2.0
	}
	if o.GCMinNodes == 0 {
		o.GCMinNodes = 1 << 18
	}
	if o.Engine == EnginePar {
		o.Locking = true
	}
	return o
}

// Kernel owns the shared state of one BDD manager: the node store, the
// per-variable unique tables, the external root registry, the worker set,
// and the garbage collector.
type Kernel struct {
	opts   Options
	store  *node.Store
	tables []unique.Table

	workers []*worker

	// pins is the external root registry. A compacting collection marks
	// from every pin and rewrites each pin's ref in place, so pins are
	// the only refs that stay valid across garbage collections.
	pinsMu sync.Mutex
	pins   map[*Pin]struct{}

	// gcInhibit suppresses collection while composite algorithms hold
	// unregistered intermediate refs.
	gcInhibit int
	// gcLiveAfter is the live-node count after the last collection.
	gcLiveAfter uint64

	// stealWanted counts idle workers looking for work; busy workers
	// respond by pushing evaluation contexts early (§3.3 "notifies busy
	// processes to create more sharable work by context switching").
	stealWanted atomic.Int32
	// opDone signals idle workers that the current top-level operation
	// has completed.
	opDone atomic.Bool

	// applySeq numbers top-level operations (diagnostics).
	applySeq uint64

	// interrupt is the cancellation probe for the build in flight (nil
	// when the build is not interruptible); abortErr records the error
	// observed by the first worker to notice a cancellation. See cancel.go.
	interrupt atomic.Pointer[func() error]
	abortErr  atomic.Pointer[error]

	// closed is set by Close; subsequent kernel use panics deterministically.
	closed atomic.Bool

	// btr/btrParent are the armed build trace (see trace.go): per-level
	// phase spans of the operation in flight are recorded under btrParent.
	// Written only while quiescent; workers read them unsynchronized.
	btr       *trace.Trace
	btrParent trace.SpanID

	// effThreshold is the evaluation threshold currently in effect: the
	// configured EvalThreshold normally, lowered under memory pressure
	// (the paper's partial-BF memory knob, §3.1). Read by every expand.
	effThreshold atomic.Int64
	// overheadBytes caches the cache+table byte estimate from the last
	// sampleMemory, so the mid-build budget poll avoids recomputing it.
	overheadBytes atomic.Uint64
	// budget is the resource-governance state (see budget.go).
	budget budgetState

	// tier is the spill backend (nil unless Options.SpillDir is set);
	// spillMu serializes every resident↔spilled transition. See spill.go.
	tier    atomic.Pointer[spill.Tier]
	spillMu sync.Mutex

	mem stats.Memory
}

// NewKernel creates a kernel with the given options.
func NewKernel(opts Options) *Kernel {
	opts = opts.withDefaults()
	if opts.Levels < 0 || opts.Levels >= node.MaxLevels {
		panic(fmt.Sprintf("core: invalid level count %d", opts.Levels))
	}
	k := &Kernel{
		opts:   opts,
		store:  node.NewStore(opts.Workers, opts.Levels),
		tables: make([]unique.Table, opts.Levels),
		pins:   make(map[*Pin]struct{}),
	}
	k.workers = make([]*worker, opts.Workers)
	for i := range k.workers {
		k.workers[i] = newWorker(k, i)
	}
	k.effThreshold.Store(int64(opts.EvalThreshold))
	k.budget.init(opts)
	if opts.SpillDir != "" {
		if err := k.EnableSpill(opts.SpillDir); err != nil {
			// An unusable spill directory costs capacity, not correctness:
			// the kernel runs fully resident.
			k.tier.Store(nil)
		}
	}
	return k
}

// Options returns the kernel's effective options.
func (k *Kernel) Options() Options { return k.opts }

// Store exposes the node store (read-only use by callers).
func (k *Kernel) Store() *node.Store { return k.store }

// Levels returns the variable count.
func (k *Kernel) Levels() int { return k.opts.Levels }

// Table returns the unique table for a level (instrumentation access).
func (k *Kernel) Table(level int) *unique.Table { return &k.tables[level] }

// WorkerStats returns worker w's counters.
func (k *Kernel) WorkerStats(w int) *stats.Worker { return &k.workers[w].st }

// TotalStats returns counters summed over all workers.
func (k *Kernel) TotalStats() stats.Worker {
	var total stats.Worker
	for _, w := range k.workers {
		total.Add(&w.st)
	}
	return total
}

// ResetStats zeroes all worker counters and lock-wait accumulators.
func (k *Kernel) ResetStats() {
	for _, w := range k.workers {
		w.st.Reset()
	}
	for i := range k.tables {
		k.tables[i].ResetLockWait()
	}
}

// Memory returns the memory accounting record.
func (k *Kernel) Memory() *stats.Memory { return &k.mem }

// mkNode returns the canonical node for (level, low, high), applying the
// reduction rule. worker selects the arena for a newly created node.
func (k *Kernel) mkNode(worker, level int, low, high node.Ref) node.Ref {
	if low == high {
		return low
	}
	k.pinLevel(level) // FindOrAdd allocates and rewrites Next chains
	t := &k.tables[level]
	if k.opts.Locking {
		t.Lock()
		defer t.Unlock()
	}
	return t.FindOrAdd(k.store, worker, level, low, high)
}

// MkNode is the exported canonical node constructor (used by the public
// API for Var and by the composite algorithms).
func (k *Kernel) MkNode(level int, low, high node.Ref) node.Ref {
	k.checkOpen()
	if level < 0 || level >= k.opts.Levels {
		panic(fmt.Sprintf("core: MkNode level %d out of range", level))
	}
	if !low.Valid() || !high.Valid() {
		panic("core: MkNode with invalid child ref")
	}
	if faultinject.Enabled {
		// Models an invariant violation detected inside the kernel: the
		// typed *InternalError is what real "can't happen" checks raise,
		// so tests can drive the containment path deterministically.
		if err := faultinject.Check(faultinject.KernelInvariant); err != nil {
			panic(internalf("MkNode", "injected invariant violation: %v", err))
		}
	}
	return k.mkNode(0, level, low, high)
}

// VarRef returns the BDD for the single variable at level.
func (k *Kernel) VarRef(level int) node.Ref {
	return k.MkNode(level, node.Zero, node.One)
}

// Pin is a stable external reference to a BDD. Raw node.Ref values become
// stale when a compacting collection relocates nodes; a Pin's ref is
// rewritten by the collector, so Ref() is always current. Pins double as
// GC roots.
type Pin struct{ ref node.Ref }

// Ref returns the pin's current (post-any-GC) ref.
func (p *Pin) Ref() node.Ref { return p.ref }

// Close releases the kernel: every registered pin is dropped and the node
// store, unique tables, operator arenas, and compute caches are released
// for reclamation. Closing twice, or using the kernel after Close, panics
// deterministically. Close must not race with an in-flight operation.
func (k *Kernel) Close() {
	if k.closed.Swap(true) {
		panic("core: kernel closed twice")
	}
	k.pinsMu.Lock()
	k.pins = make(map[*Pin]struct{})
	k.pinsMu.Unlock()
	for _, w := range k.workers {
		w.resetOps()
		w.ops = nil
		w.cache = nil
		w.pending = nil
		w.curReduce = nil
		w.ctxs = nil
	}
	k.closeSpill()
	k.store = nil
	k.tables = nil
}

// Closed reports whether Close has been called.
func (k *Kernel) Closed() bool { return k.closed.Load() }

// checkOpen panics when the kernel has been closed.
func (k *Kernel) checkOpen() {
	if k.closed.Load() {
		panic("core: use of closed kernel")
	}
}

// Pin registers r as an external root and returns its stable handle.
func (k *Kernel) Pin(r node.Ref) *Pin {
	k.checkOpen()
	p := &Pin{ref: r}
	k.pinsMu.Lock()
	k.pins[p] = struct{}{}
	k.pinsMu.Unlock()
	return p
}

// Unpin removes the pin from the root registry. The pin's ref must not be
// used afterwards unless otherwise kept alive.
func (k *Kernel) Unpin(p *Pin) {
	k.pinsMu.Lock()
	delete(k.pins, p)
	k.pinsMu.Unlock()
}

// NumPins returns the number of registered external roots.
func (k *Kernel) NumPins() int {
	k.pinsMu.Lock()
	defer k.pinsMu.Unlock()
	return len(k.pins)
}

// InhibitGC suppresses automatic collection until ReleaseGC; composite
// algorithms use it to keep unregistered intermediates alive.
func (k *Kernel) InhibitGC() { k.gcInhibit++ }

// ReleaseGC re-enables automatic collection.
func (k *Kernel) ReleaseGC() {
	if k.gcInhibit == 0 {
		panic("core: ReleaseGC without InhibitGC")
	}
	k.gcInhibit--
}

// NumNodes returns the current live node count.
func (k *Kernel) NumNodes() uint64 { return k.store.NumNodes() }

// sampleMemory refreshes the memory accounting and peak.
func (k *Kernel) sampleMemory() {
	var opB, cacheB uint64
	for _, w := range k.workers {
		opB += w.opBytes()
		cacheB += w.cache.Bytes()
	}
	// Bucket arrays: 8 bytes per bucket; approximate via counts (load
	// factor ≤ 2 ⇒ buckets ≥ count/2). Exact bucket length is private to
	// the table; the estimate is within 2× and consistent across runs.
	var tableB uint64
	for i := range k.tables {
		tableB += (k.tables[i].Count() / 2) * 8
	}
	k.overheadBytes.Store(cacheB + tableB)
	// Node bytes are the resident (heap) footprint: spilled levels live
	// in files and the page cache, not on this kernel's heap.
	k.mem.Sample(k.store.ResidentBytes(), opB, cacheB, tableB)
	// sampleMemory runs only at quiescent boundaries, which is exactly
	// when mappings retired by mid-build unspills become unreferenced.
	if t := k.tier.Load(); t != nil {
		t.ReleaseRetired()
	}
}

// maybeGC runs a collection if thresholds are exceeded and collection is
// not inhibited. Must be called only at top-level-operation boundaries
// (all workers quiescent).
func (k *Kernel) maybeGC() {
	if k.gcInhibit > 0 {
		return
	}
	live := k.store.NumNodes()
	if live < k.opts.GCMinNodes {
		return
	}
	if float64(live) < k.opts.GCGrowth*float64(k.gcLiveAfter) {
		return
	}
	k.GC()
}

// Apply computes f op g with the configured engine, running garbage
// collection at operation boundaries when thresholds are exceeded.
//
// With a budget configured (Options.MaxNodes/MaxBytes), a build that
// exceeds it after graceful degradation panics a typed *BudgetError;
// ApplyCtx returns it as an error instead. The kernel stays consistent
// and reusable either way.
func (k *Kernel) Apply(op Op, f, g node.Ref) node.Ref {
	if op >= numBinaryOps {
		panic("core: Apply with non-binary op " + op.String())
	}
	if !f.Valid() || !g.Valid() {
		panic("core: Apply with invalid operand")
	}
	if plantedOracleBug && op == OpDiff && f == g && !f.IsTerminal() {
		return node.One // deliberately wrong: f \ f is Zero (see oraclebug_on.go)
	}
	k.applySeq++
	// Operands must survive (and track) a pre-operation collection. The
	// unpin is deferred so an aborted (canceled) build does not leak pins.
	pf, pg := k.Pin(f), k.Pin(g)
	defer func() {
		k.Unpin(pf)
		k.Unpin(pg)
	}()
	// A previous abort on an uninterruptible build (e.g. a mid-build
	// budget trip) leaves its error latched in abortErr; only armInterrupt
	// clears it otherwise. This build must start clean or the first poll
	// would re-abort it with the stale error.
	k.abortErr.Store(nil)
	defer k.convertAbort()
	k.ensureReadable()
	k.budgetGate()
	f, g = pf.ref, pg.ref
	var r node.Ref
	switch k.opts.Engine {
	case EngineDF:
		r = k.workers[0].dfApply(op, f, g)
	case EngineHybrid:
		r = k.workers[0].hybridApply(op, f, g)
	case EngineBF, EnginePBF:
		r = k.workers[0].pbfApply(op, f, g)
	case EnginePar:
		r = k.parApply(op, f, g)
	default:
		panic("core: unknown engine")
	}
	k.sampleMemory()
	return r
}

// Not returns the complement of f (XNOR with the zero terminal, resolved
// by the terminal rules).
func (k *Kernel) Not(f node.Ref) node.Ref { return k.Apply(OpXnor, f, node.Zero) }

// endTopLevel recycles operator arenas and invalidates the uncomputed
// entries of every compute cache; called when a top-level operation's
// result has been produced.
func (k *Kernel) endTopLevel() {
	for _, w := range k.workers {
		w.checkQuiescent()
		w.resetOps()
		w.cache.InvalidateOps()
	}
}
