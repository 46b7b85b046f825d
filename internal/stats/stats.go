// Package stats collects the measurements the paper reports: per-phase
// elapsed times (expansion, reduction, and the three GC sub-phases),
// Shannon-expansion operation counts, work-stealing activity, and memory
// high-water marks. Each worker owns a Worker value and updates it without
// synchronization; aggregation happens after the workers quiesce.
package stats

import "time"

// Phase identifies one of the instrumented execution phases.
type Phase int

// The instrumented phases. Expansion and Reduction correspond to the
// paper's Figure 13; the GC sub-phases to Figure 18.
const (
	PhaseExpansion Phase = iota
	PhaseReduction
	PhaseGCMark
	PhaseGCFix
	PhaseGCRehash
	NumPhases
)

var phaseNames = [NumPhases]string{"expansion", "reduction", "gc-mark", "gc-fix", "gc-rehash"}

// String returns the phase name.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Worker accumulates one worker's counters. Not safe for concurrent use;
// each worker goroutine owns exactly one Worker.
type Worker struct {
	PhaseNs [NumPhases]int64

	// Ops counts Shannon expansion steps (the paper's Figure 11 metric).
	Ops uint64
	// ReducedOps counts operator nodes this worker reduced (resolved and,
	// when not eliminated by the reduction rule, inserted into a unique
	// table). The analytic multiprocessor model uses the per-worker
	// distribution of this counter.
	ReducedOps uint64
	// Terminals counts operations resolved as terminal cases.
	Terminals uint64
	// CacheHits counts compute-cache hits during preprocessing.
	CacheHits uint64

	// Steals counts operation groups successfully stolen; StealFailures
	// counts scan rounds that found nothing stealable.
	Steals        uint64
	StealFailures uint64
	// StolenOps counts individual operations claimed from stolen groups.
	StolenOps uint64
	// Stalls counts reduction passes that had to defer at least one
	// operation because a thief had not yet returned its result.
	Stalls uint64
	// ForcedOps counts operator nodes whose results a stalled reducer
	// computed itself (depth-first) after repeated steal-less rounds,
	// breaking potential cross-worker wait cycles.
	ForcedOps uint64
	// StallNs accumulates the idle wait of reducers stalled on thief
	// results: the steal attempts that found nothing and the yields after
	// them. It is part of the reduction phase; a stolen group a stalled
	// reducer runs is not, as its own cycle counts it.
	StallNs int64
	// LockWaitNs accumulates time spent waiting for unique-table locks
	// (each table also keeps its own total, the per-variable Fig 16).
	LockWaitNs int64

	// ContextPushes / ContextPops count evaluation-context stack traffic.
	ContextPushes uint64
	ContextPops   uint64
}

// AddPhase accrues elapsed time to a phase.
func (w *Worker) AddPhase(p Phase, d time.Duration) { w.PhaseNs[p] += int64(d) }

// PhaseTime returns the accumulated time in a phase.
func (w *Worker) PhaseTime(p Phase) time.Duration { return time.Duration(w.PhaseNs[p]) }

// Reset zeroes all counters.
func (w *Worker) Reset() { *w = Worker{} }

// Add accumulates other into w (for cross-worker totals).
func (w *Worker) Add(other *Worker) {
	for i := range w.PhaseNs {
		w.PhaseNs[i] += other.PhaseNs[i]
	}
	w.Ops += other.Ops
	w.ReducedOps += other.ReducedOps
	w.Terminals += other.Terminals
	w.CacheHits += other.CacheHits
	w.Steals += other.Steals
	w.StealFailures += other.StealFailures
	w.StolenOps += other.StolenOps
	w.Stalls += other.Stalls
	w.ForcedOps += other.ForcedOps
	w.StallNs += other.StallNs
	w.LockWaitNs += other.LockWaitNs
	w.ContextPushes += other.ContextPushes
	w.ContextPops += other.ContextPops
}

// Parts is one memory sample split by component.
type Parts struct {
	NodeBytes  uint64
	OpBytes    uint64
	CacheBytes uint64
	TableBytes uint64
}

// Total returns the sample's total footprint.
func (p Parts) Total() uint64 {
	return p.NodeBytes + p.OpBytes + p.CacheBytes + p.TableBytes
}

// Memory tracks byte-level memory accounting with a high-water mark,
// reproducing the paper's Figure 9/10 memory-usage measurements.
type Memory struct {
	// Parts holds the current components, updated at sampling points.
	Parts
	// PeakBytes is the largest total sampled; AtPeak is the sample that
	// set it, so the peak can be split by component.
	PeakBytes uint64
	AtPeak    Parts
	GCCount   uint64
}

// Sample records the current component sizes and updates the peak.
func (m *Memory) Sample(nodeB, opB, cacheB, tableB uint64) {
	m.Parts = Parts{nodeB, opB, cacheB, tableB}
	if t := m.Total(); t > m.PeakBytes {
		m.PeakBytes, m.AtPeak = t, m.Parts
	}
}
