package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"bfbdd/internal/cache"
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

// ParseGCPolicy returns the policy whose String is name.
func ParseGCPolicy(name string) (GCPolicy, error) {
	for _, p := range []GCPolicy{GCCompact, GCFreeList} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown gc policy %q", name)
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
	// EngineBF ignores it: its threshold is unbounded.
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
	// MaxNodes, when non-zero, bounds the live node count. Approaching
	// the limit triggers graceful degradation (forced GC, cache shrink,
	// evaluation-threshold drop toward depth-first); exceeding it aborts
	// the build in flight with a typed *BudgetError. See budget.go.
	MaxNodes uint64
	// MaxBytes, when non-zero, bounds the kernel's memory footprint,
	// the figure MemBytes reports and the peak samples, the same way.
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
	if o.Engine == EngineBF {
		o.EvalThreshold = math.MaxInt
	} else if o.EvalThreshold <= 0 {
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
	// batchActive counts the workers still driving their own seeds of
	// the parallel batch in flight, batchWG waits for all of them, and
	// batchRoots is the batch's root scratch, reused across batches (see
	// parApplyBatch).
	batchActive atomic.Int32
	batchWG     sync.WaitGroup
	batchRoots  []cache.Tagged

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
	// tableBytes is the unique tables' slot bytes. Between collections a
	// table grows only in FindOrAdd, whose growth findOrAdd adds.
	tableBytes atomic.Uint64
	// budget is the resource-governance state (see budget.go).
	budget budgetState

	// tier is the spill backend (nil unless Options.SpillDir is set);
	// spillMu serializes every resident↔spilled transition. See spill.go.
	tier    atomic.Pointer[spill.Tier]
	spillMu sync.Mutex

	mem stats.Memory
	// verifyScopes makes released scopes check and quarantine the
	// operator nodes they give back (see worker.quarantine); tests only.
	verifyScopes bool
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
	k.pinLevel(level) // FindOrAdd may allocate into this level's arena
	t := &k.tables[level]
	// Par locks even with one worker: Fig 8's "Seq" row has no locks.
	if k.opts.Engine == EnginePar {
		k.workers[worker].st.LockWaitNs += int64(t.Lock())
		defer t.Unlock()
	}
	return k.findOrAdd(t, worker, level, low, high)
}

// findOrAdd calls t.FindOrAdd and adds its slot growth to the account;
// the count is kept here because a wider Table built slower (see
// TestHotStructSizes). The caller holds the lock if the engine locks.
func (k *Kernel) findOrAdd(t *unique.Table, worker, level int, low, high node.Ref) node.Ref {
	slots := t.Bytes()
	r := t.FindOrAdd(k.store, worker, level, low, high)
	if grown := t.Bytes() - slots; grown > 0 {
		k.tableBytes.Add(grown)
	}
	return r
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
		w.trimPool(0)
		w.ops = nil
		w.opLogged = nil
		w.cache = nil
		w.pending = nil
		w.reduce = nil
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

// pinAll registers every element of pins as an external root.
func (k *Kernel) pinAll(pins []Pin) {
	k.checkOpen()
	k.pinsMu.Lock()
	for i := range pins {
		k.pins[&pins[i]] = struct{}{}
	}
	k.pinsMu.Unlock()
}

// unpinAll removes every element of pins from the root registry.
func (k *Kernel) unpinAll(pins []Pin) {
	k.pinsMu.Lock()
	for i := range pins {
		delete(k.pins, &pins[i])
	}
	k.pinsMu.Unlock()
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

// NumNodes returns the current live node count, in O(workers): outside
// a collection the store's allocation counters are exact (see ApproxLive).
func (k *Kernel) NumNodes() uint64 { return k.store.ApproxLive() }

// account reads the memory account, the bytes the allocators hold as
// they count them (heap-resident node blocks, operator blocks, cache
// segments, table slots), in O(workers). Safe during a build: every
// count is atomic, and a figure read mid-build is a moment's value.
func (k *Kernel) account() stats.Parts {
	a := stats.Parts{NodeBytes: k.store.ResidentBytes(), TableBytes: k.tableBytes.Load()}
	for _, w := range k.workers {
		a.OpBytes += w.opBytes.Load()
		a.CacheBytes += w.cache.Bytes()
	}
	return a
}

// sampleMemory records the account and raises the peak. Its operator
// component is the workers' high-water since the last sample: a
// sequential batch samples once, after its last operation has given
// blocks back, and an aborted build samples not at all.
func (k *Kernel) sampleMemory() {
	a := k.account()
	var op uint64
	for _, w := range k.workers {
		op += w.opPeak
		w.opPeak = w.opBytes.Load()
	}
	k.mem.Sample(a.NodeBytes, op, a.CacheBytes, a.TableBytes)
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
	live := k.NumNodes()
	if live < k.opts.GCMinNodes {
		return
	}
	if float64(live) < k.opts.GCGrowth*float64(k.gcLiveAfter) {
		return
	}
	k.GC()
}

// Apply computes f op g with the configured engine: a batch of one
// through applyBatchInto, so garbage collection runs before the operation
// when thresholds are exceeded.
//
// With a budget configured (Options.MaxNodes/MaxBytes), a build that
// exceeds it after graceful degradation panics a typed *BudgetError;
// ApplyCtx returns it as an error instead. The kernel stays consistent
// and reusable either way.
func (k *Kernel) Apply(op Op, f, g node.Ref) node.Ref {
	ops := [1]BinOp{{Op: op, F: f, G: g}}
	res := [1]node.Ref{node.Nil}
	k.applyBatchInto(ops[:], res[:])
	return res[0]
}

// Not returns the complement of f (XNOR with the zero terminal, resolved
// by the terminal rules).
func (k *Kernel) Not(f node.Ref) node.Ref { return k.Apply(OpXnor, f, node.Zero) }

// endTopLevel empties the operator arenas and invalidates the
// uncomputed entries of every compute cache; called when a top-level
// operation's result has been produced, and by abortTopLevel when it
// has been abandoned.
func (k *Kernel) endTopLevel() {
	for _, w := range k.workers {
		w.checkQuiescent()
		w.endOps()
		w.cache.InvalidateOps()
	}
}
