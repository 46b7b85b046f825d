package bfbdd

import (
	"fmt"
	"math/big"
	"sort"
	"sync/atomic"
	"time"

	"bfbdd/internal/core"
	"bfbdd/internal/node"
	"bfbdd/internal/stats"
)

// Engine selects the BDD construction algorithm. See the package
// documentation for the trade-offs.
type Engine = core.Engine

// The available engines.
const (
	EngineDF     = core.EngineDF
	EngineBF     = core.EngineBF
	EngineHybrid = core.EngineHybrid
	EnginePBF    = core.EnginePBF
	EnginePar    = core.EnginePar
)

// GCPolicy selects the garbage collection strategy.
type GCPolicy = core.GCPolicy

// The available GC policies.
const (
	// GCCompact is the paper's mark-and-sweep collector with memory
	// compaction (mark / fix / rehash). Default.
	GCCompact = core.GCCompact
	// GCFreeList sweeps dead nodes onto free lists without moving
	// anything (lower pause cost, scattered allocation).
	GCFreeList = core.GCFreeList
)

// Option configures a Manager.
type Option func(*core.Options)

// WithEngine selects the construction engine (default EnginePBF).
func WithEngine(e Engine) Option {
	return func(o *core.Options) { o.Engine = e }
}

// WithWorkers sets the parallel worker count for EnginePar.
func WithWorkers(n int) Option {
	return func(o *core.Options) { o.Workers = n }
}

// WithEvalThreshold sets the partial breadth-first evaluation threshold:
// Shannon expansions per evaluation context. EngineBF has no threshold.
func WithEvalThreshold(n int) Option {
	return func(o *core.Options) { o.EvalThreshold = n }
}

// WithGroupSize sets the number of operations per stealable group.
func WithGroupSize(n int) Option {
	return func(o *core.Options) { o.GroupSize = n }
}

// WithCacheBits bounds each per-variable compute-cache segment at 2^bits
// entries.
func WithCacheBits(bits uint) Option {
	return func(o *core.Options) { o.CacheBits = bits }
}

// WithGCPolicy selects the collector (default GCCompact).
func WithGCPolicy(p GCPolicy) Option {
	return func(o *core.Options) { o.GC = p }
}

// WithGCGrowth sets the heap growth factor that triggers collection.
func WithGCGrowth(f float64) Option {
	return func(o *core.Options) { o.GCGrowth = f }
}

// WithGCMinNodes suppresses collection below this live-node count.
func WithGCMinNodes(n uint64) Option {
	return func(o *core.Options) { o.GCMinNodes = n }
}

// WithStealing enables or disables work stealing (EnginePar only;
// enabled by default).
func WithStealing(enabled bool) Option {
	return func(o *core.Options) { o.Stealing = enabled }
}

// WithMaxNodes bounds the manager's live node count (0 = unlimited).
// Approaching the budget triggers graceful degradation — a forced early
// collection, compute-cache shrinking, and a lowered partial-BF
// evaluation threshold (the paper's memory-control knob) — and a build
// that still exceeds it aborts with a *BudgetError wrapping
// ErrBudgetExceeded. The manager stays consistent and reusable after an
// abort.
func WithMaxNodes(n uint64) Option {
	return func(o *core.Options) { o.MaxNodes = n }
}

// WithMaxBytes bounds the manager's memory footprint, Stats.MemBytes
// (node blocks + operator blocks + caches + unique-table slots), the same
// way WithMaxNodes bounds the node count. A budget trips at the figure
// Stats.PeakBytes samples.
func WithMaxBytes(n uint64) Option {
	return func(o *core.Options) { o.MaxBytes = n }
}

// WithSpillDir enables memory tiering: quiescent fully-reduced levels
// can be spilled to level-major files under dir (and are remapped
// read-only via mmap where the platform supports it, so reads keep
// working without the heap copy). The byte-budget degradation ladder
// gains a "spill coldest levels" rung before a *BudgetError, and
// SpillAll/Unspill/MemReport become meaningful. dir is scratch state
// owned by this manager: stale contents are wiped on creation and the
// directory is removed on Close. An empty dir disables tiering
// (default).
func WithSpillDir(dir string) Option {
	return func(o *core.Options) { o.SpillDir = dir }
}

// ErrBudgetExceeded is the sentinel wrapped by every *BudgetError.
// Classify budget aborts with errors.Is(err, ErrBudgetExceeded).
var ErrBudgetExceeded = core.ErrBudgetExceeded

// BudgetError reports a build aborted because the manager's node or byte
// budget was exceeded after all graceful-degradation steps. Context-free
// methods (And, ITE, ...) panic it; ApplyCtx/ApplyBatchCtx return it.
type BudgetError = core.BudgetError

// LevelUsage is the per-variable usage record carried by a BudgetError.
type LevelUsage = core.LevelUsage

// InternalError is a kernel invariant violation contained into a typed
// value instead of a raw panic. A manager that produced one must be
// considered corrupt and discarded.
type InternalError = core.InternalError

// Manager owns a BDD node space over a fixed number of variables.
//
// Variables have stable public indices 0..NumVars-1; their position in
// the variable order (their level) starts out equal to the index and can
// be changed with SetOrder. All public methods speak in variable indices.
type Manager struct {
	k         *core.Kernel
	var2level []int
	level2var []int
	closed    atomic.Bool
	last      BuildReport // see LastBuild
}

// New creates a manager with numVars Boolean variables. Initially
// variable i sits at order position (level) i; variable 0 has the highest
// precedence.
func New(numVars int, opts ...Option) *Manager {
	o := core.Options{
		Levels:   numVars,
		Engine:   core.EnginePBF,
		Stealing: true,
	}
	for _, opt := range opts {
		opt(&o)
	}
	m := &Manager{
		k:         core.NewKernel(o),
		var2level: make([]int, numVars),
		level2var: make([]int, numVars),
	}
	for i := range m.var2level {
		m.var2level[i] = i
		m.level2var[i] = i
	}
	return m
}

// checkOpen panics when the manager has been closed.
func (m *Manager) checkOpen() {
	if m.closed.Load() {
		panic("bfbdd: use of closed Manager")
	}
}

// Close releases the manager: every live BDD handle is unpinned and the
// node store, unique tables, and caches are released for reclamation.
// Outstanding handles become invalid; using them (or the manager) after
// Close panics deterministically, and closing twice panics. Freeing an
// already-obtained handle after Close is a safe no-op, so shutdown code
// need not order Free calls before Close. Close must not race with
// in-flight operations — serialize it behind the same discipline as any
// other manager call.
func (m *Manager) Close() {
	if m.closed.Swap(true) {
		panic("bfbdd: Manager closed twice")
	}
	m.k.Close()
}

// Closed reports whether Close has been called.
func (m *Manager) Closed() bool { return m.closed.Load() }

// level maps a public variable index to its current order level.
func (m *Manager) level(v int) int {
	m.checkOpen()
	if v < 0 || v >= len(m.var2level) {
		panic(fmt.Sprintf("bfbdd: variable %d out of range [0,%d)", v, len(m.var2level)))
	}
	return m.var2level[v]
}

// Order returns the current variable order: position p holds Order()[p].
func (m *Manager) Order() []int {
	return append([]int(nil), m.level2var...)
}

// LevelOf returns variable v's current position in the order.
func (m *Manager) LevelOf(v int) int { return m.level(v) }

// SetOrder changes the variable order: newLevel[v] is the desired order
// position of variable v, and must be a permutation of [0, NumVars).
// Every live BDD handle is rebuilt under the new order (see the paper's
// discussion of ordering sensitivity, §2; Rudell [22]); handles stay
// valid, sizes change with the order.
func (m *Manager) SetOrder(newLevel []int) {
	if len(newLevel) != len(m.var2level) {
		panic(fmt.Sprintf("bfbdd: SetOrder with %d entries for %d variables",
			len(newLevel), len(m.var2level)))
	}
	levelMap := make([]int, len(newLevel))
	for v, nl := range newLevel {
		if nl < 0 || nl >= len(newLevel) {
			panic("bfbdd: SetOrder is not a permutation")
		}
		levelMap[m.var2level[v]] = nl
	}
	m.k.ReorderLevels(levelMap)
	copy(m.var2level, newLevel)
	for v, l := range m.var2level {
		m.level2var[l] = v
	}
}

// NumVars returns the variable count.
func (m *Manager) NumVars() int { return m.k.Levels() }

// NumNodes returns the current live BDD node count across all variables.
func (m *Manager) NumNodes() uint64 {
	m.checkOpen()
	return m.k.NumNodes()
}

// wrap pins a ref into a BDD handle.
func (m *Manager) wrap(r node.Ref) *BDD {
	m.checkOpen()
	return &BDD{m: m, pin: m.k.Pin(r)}
}

// Zero returns the constant-false BDD.
func (m *Manager) Zero() *BDD { return m.wrap(node.Zero) }

// One returns the constant-true BDD.
func (m *Manager) One() *BDD { return m.wrap(node.One) }

// Var returns the BDD for variable i.
func (m *Manager) Var(i int) *BDD { return m.wrap(m.k.VarRef(m.level(i))) }

// NVar returns the BDD for the negation of variable i.
func (m *Manager) NVar(i int) *BDD {
	return m.wrap(m.k.MkNode(m.level(i), node.One, node.Zero))
}

// GC forces an immediate garbage collection.
func (m *Manager) GC() {
	m.checkOpen()
	m.k.GC()
}

// BDD is a handle to a canonical binary decision diagram. Handles remain
// valid across the manager's garbage collections until Free is called.
type BDD struct {
	m   *Manager
	pin *core.Pin
}

// Manager returns the owning manager.
func (b *BDD) Manager() *Manager { return b.m }

// ref returns the current underlying ref.
func (b *BDD) ref() node.Ref {
	b.m.checkOpen()
	if b.pin == nil {
		panic("bfbdd: use of freed BDD")
	}
	return b.pin.Ref()
}

// Free releases the handle, allowing the garbage collector to reclaim the
// diagram if nothing else references it. The BDD must not be used after.
// Free after the manager's Close is a safe no-op.
func (b *BDD) Free() {
	if b.pin != nil {
		if !b.m.closed.Load() {
			b.m.k.Unpin(b.pin)
		}
		b.pin = nil
	}
}

// Equal reports whether b and c represent the same Boolean function.
// Thanks to canonicity this is a pointer-style comparison.
func (b *BDD) Equal(c *BDD) bool {
	b.mustShareManager(c)
	return b.ref() == c.ref()
}

// IsZero reports whether b is the constant false function.
func (b *BDD) IsZero() bool { return b.ref().IsZero() }

// IsOne reports whether b is the constant true function.
func (b *BDD) IsOne() bool { return b.ref().IsOne() }

func (b *BDD) mustShareManager(c *BDD) {
	if b.m != c.m {
		panic("bfbdd: operands belong to different managers")
	}
}

func (b *BDD) apply(op core.Op, c *BDD) *BDD {
	b.mustShareManager(c)
	return b.m.wrap(b.m.k.Apply(op, b.ref(), c.ref()))
}

// And returns b ∧ c.
func (b *BDD) And(c *BDD) *BDD { return b.apply(core.OpAnd, c) }

// Or returns b ∨ c.
func (b *BDD) Or(c *BDD) *BDD { return b.apply(core.OpOr, c) }

// Xor returns b ⊕ c.
func (b *BDD) Xor(c *BDD) *BDD { return b.apply(core.OpXor, c) }

// Nand returns ¬(b ∧ c).
func (b *BDD) Nand(c *BDD) *BDD { return b.apply(core.OpNand, c) }

// Nor returns ¬(b ∨ c).
func (b *BDD) Nor(c *BDD) *BDD { return b.apply(core.OpNor, c) }

// Xnor returns ¬(b ⊕ c) (equivalence).
func (b *BDD) Xnor(c *BDD) *BDD { return b.apply(core.OpXnor, c) }

// Diff returns b ∧ ¬c.
func (b *BDD) Diff(c *BDD) *BDD { return b.apply(core.OpDiff, c) }

// Implies returns ¬b ∨ c.
func (b *BDD) Implies(c *BDD) *BDD { return b.apply(core.OpImp, c) }

// Not returns ¬b.
func (b *BDD) Not() *BDD { return b.m.wrap(b.m.k.Not(b.ref())) }

// ITE returns b ? t : e (if-then-else).
func (b *BDD) ITE(t, e *BDD) *BDD {
	b.mustShareManager(t)
	b.mustShareManager(e)
	return b.m.wrap(b.m.k.ITE(b.ref(), t.ref(), e.ref()))
}

// cubeLevels maps public variable indices to levels for quantification.
func (m *Manager) cubeLevels(vars []int) []int {
	levels := make([]int, len(vars))
	for i, v := range vars {
		levels[i] = m.level(v)
	}
	return levels
}

// Exists existentially quantifies the given variables out of b.
func (b *BDD) Exists(vars ...int) *BDD {
	cube := b.m.k.CubeRef(b.m.cubeLevels(vars))
	return b.m.wrap(b.m.k.Exists(b.ref(), cube))
}

// Forall universally quantifies the given variables out of b.
func (b *BDD) Forall(vars ...int) *BDD {
	cube := b.m.k.CubeRef(b.m.cubeLevels(vars))
	return b.m.wrap(b.m.k.Forall(b.ref(), cube))
}

// Restrict fixes variable v to the given value.
func (b *BDD) Restrict(v int, value bool) *BDD {
	return b.m.wrap(b.m.k.Restrict(b.ref(), b.m.level(v), value))
}

// Compose substitutes the function g for variable v in b.
func (b *BDD) Compose(v int, g *BDD) *BDD {
	b.mustShareManager(g)
	return b.m.wrap(b.m.k.Compose(b.ref(), b.m.level(v), g.ref()))
}

// Size returns the number of internal nodes in b.
func (b *BDD) Size() int { return b.m.k.Size(b.ref()) }

// SatCount returns the exact number of satisfying assignments over all of
// the manager's variables.
func (b *BDD) SatCount() *big.Int { return b.m.k.SatCount(b.ref()) }

// AnySat returns one satisfying assignment as a map from variable index to
// value; variables absent from the map are don't-cares. ok is false when b
// is unsatisfiable.
func (b *BDD) AnySat() (assignment map[int]bool, ok bool) {
	a, ok := b.m.k.AnySat(b.ref())
	if !ok {
		return nil, false
	}
	out := make(map[int]bool)
	for lvl, val := range a {
		if lvl >= len(b.m.level2var) {
			panic(fmt.Sprintf("bfbdd: AnySat level %d out of range [0,%d)",
				lvl, len(b.m.level2var)))
		}
		if val >= 0 {
			out[b.m.level2var[lvl]] = val == 1
		}
	}
	return out, true
}

// Eval evaluates b under a complete assignment indexed by variable. The
// assignment must have exactly NumVars entries.
func (b *BDD) Eval(assignment []bool) bool {
	if len(assignment) != len(b.m.var2level) {
		panic(fmt.Sprintf("bfbdd: Eval assignment has %d entries for %d variables",
			len(assignment), len(b.m.var2level)))
	}
	byLevel := make([]bool, len(assignment))
	for v, val := range assignment {
		byLevel[b.m.var2level[v]] = val
	}
	return b.m.k.Eval(b.ref(), byLevel)
}

// Support returns the variables on which b depends, in ascending variable
// index order.
func (b *BDD) Support() []int {
	levels := b.m.k.Support(b.ref())
	vars := make([]int, len(levels))
	for i, l := range levels {
		vars[i] = b.m.level2var[l]
	}
	sort.Ints(vars)
	return vars
}

// Stats is a snapshot of the manager's instrumentation, mirroring the
// measurements reported in the paper's evaluation.
type Stats struct {
	// Ops is the total number of Shannon expansion steps across workers.
	Ops uint64
	// CacheHits counts compute-cache hits; Terminals counts operations
	// resolved as terminal cases.
	CacheHits uint64
	Terminals uint64
	// ExpansionTime / ReductionTime are summed across workers.
	ExpansionTime time.Duration
	ReductionTime time.Duration
	// GCMarkTime / GCFixTime / GCRehashTime are the collector phases.
	GCMarkTime   time.Duration
	GCFixTime    time.Duration
	GCRehashTime time.Duration
	// Steals / StolenOps / Stalls describe load-balancing activity.
	Steals    uint64
	StolenOps uint64
	Stalls    uint64
	// ContextPushes counts evaluation-context switches.
	ContextPushes uint64
	// LockWait is the total unique-table lock acquisition wait.
	LockWait time.Duration
	// GCCount is the number of collections; PeakBytes the high-water
	// explicit memory footprint (nodes + operator nodes + caches +
	// unique-table slots).
	GCCount   uint64
	PeakBytes uint64
	// NumNodes is the current live node count.
	NumNodes uint64
	// MemBytes is the current memory footprint as the allocators count
	// it: heap-resident node blocks, operator blocks, compute caches and
	// unique-table slots. PeakBytes is its high-water mark at operation
	// boundaries, and WithMaxBytes bounds it.
	MemBytes uint64
	// EffEvalThreshold is the evaluation threshold currently in effect;
	// lower than the configured value while degraded under memory
	// pressure, and 0 while unbounded (EngineBF, not degraded).
	EffEvalThreshold int
	// Budget degradation counters: forced early collections, evaluation
	// threshold drops, compute-cache shrinks, coldest-level spills, and
	// typed budget aborts.
	BudgetForcedGCs      uint64
	BudgetThresholdDrops uint64
	BudgetCacheShrinks   uint64
	BudgetSpills         uint64
	BudgetAborts         uint64
	// Memory-tiering counters, zero without WithSpillDir except
	// ResidentBytes, MemBytes' node-block part. SpilledBytes live in
	// spill files and the OS page cache, not on the heap.
	ResidentBytes     uint64
	SpilledBytes      uint64
	SpilledLevels     int
	SpillOps          uint64
	UnspillOps        uint64
	SpillTime         time.Duration
	UnspillTime       time.Duration
	SpillPrefetchHits uint64
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	m.checkOpen()
	t := m.k.TotalStats()
	mem := m.k.Memory()
	b := m.k.BudgetStats()
	sp := m.k.SpillStats()
	return Stats{
		Ops:           t.Ops,
		CacheHits:     t.CacheHits,
		Terminals:     t.Terminals,
		ExpansionTime: t.PhaseTime(stats.PhaseExpansion),
		ReductionTime: t.PhaseTime(stats.PhaseReduction),
		GCMarkTime:    t.PhaseTime(stats.PhaseGCMark),
		GCFixTime:     t.PhaseTime(stats.PhaseGCFix),
		GCRehashTime:  t.PhaseTime(stats.PhaseGCRehash),
		Steals:        t.Steals,
		StolenOps:     t.StolenOps,
		Stalls:        t.Stalls,
		ContextPushes: t.ContextPushes,
		LockWait:      time.Duration(t.LockWaitNs),
		GCCount:       mem.GCCount,
		PeakBytes:     mem.PeakBytes,
		NumNodes:      m.k.NumNodes(),

		MemBytes:             m.k.MemBytes(),
		EffEvalThreshold:     m.k.EffEvalThreshold(),
		BudgetForcedGCs:      b.ForcedGCs,
		BudgetThresholdDrops: b.ThresholdDrops,
		BudgetCacheShrinks:   b.CacheShrinks,
		BudgetSpills:         b.Spills,
		BudgetAborts:         b.Aborts,

		ResidentBytes:     m.k.Store().ResidentBytes(),
		SpilledBytes:      sp.SpilledBytes,
		SpilledLevels:     sp.SpilledLevels,
		SpillOps:          sp.SpillOps,
		UnspillOps:        sp.UnspillOps,
		SpillTime:         time.Duration(sp.SpillNS),
		UnspillTime:       time.Duration(sp.UnspillNS),
		SpillPrefetchHits: sp.PrefetchHits,
	}
}

// ResetStats zeroes the counters (memory peak and GC count are kept).
func (m *Manager) ResetStats() { m.k.ResetStats() }

// MemReport is the manager's memory-tiering breakdown: heap-resident
// bytes, spilled bytes, and where each variable's nodes live. LevelMem
// entries are keyed by order position (level); Var gives the public
// variable index currently at that position.
type MemReport struct {
	ResidentBytes uint64     `json:"resident_bytes"`
	SpilledBytes  uint64     `json:"spilled_bytes"`
	Levels        []LevelMem `json:"levels"`
}

// LevelMem describes one level's node storage.
type LevelMem struct {
	Level   int    `json:"level"`
	Var     int    `json:"var"`
	Nodes   uint64 `json:"nodes"`
	Bytes   uint64 `json:"bytes"`
	Spilled bool   `json:"spilled"`
}

// MemReport returns the tiering breakdown. Without WithSpillDir every
// level is resident and SpilledBytes is zero. Like all manager calls it
// must be serialized against in-flight operations.
func (m *Manager) MemReport() MemReport {
	m.checkOpen()
	kr := m.k.MemReport()
	r := MemReport{ResidentBytes: kr.ResidentBytes, SpilledBytes: kr.SpilledBytes}
	for _, lm := range kr.Levels {
		r.Levels = append(r.Levels, LevelMem{
			Level:   lm.Level,
			Var:     m.level2var[lm.Level],
			Nodes:   lm.Nodes,
			Bytes:   lm.Bytes,
			Spilled: lm.Spilled,
		})
	}
	return r
}

// SpillAll tiers the whole node store down to the spill directory,
// releasing the heap blocks of every level that holds nodes. A no-op
// without WithSpillDir. The manager must be quiescent (no operation in
// flight); subsequent operations transparently unspill what they touch.
func (m *Manager) SpillAll() error {
	m.checkOpen()
	return m.k.SpillAll()
}

// Unspill brings every spilled level back onto the heap and deletes its
// spill file. A no-op without WithSpillDir or with nothing spilled.
func (m *Manager) Unspill() error {
	m.checkOpen()
	return m.k.Unspill()
}

// Kernel exposes the internal kernel for the benchmark harness and
// examples living in this module. External users should ignore it.
func (m *Manager) Kernel() *core.Kernel { return m.k }

// Ref exposes the handle's current canonical node reference for the
// in-module differential oracle and harness (paired with Kernel(), e.g.
// for Kernel().CanonicalSignature). The value goes stale across garbage
// collections — re-read it rather than caching it. External users should
// ignore it.
func (b *BDD) Ref() node.Ref { return b.ref() }
