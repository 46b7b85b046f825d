package harness

import "bfbdd/internal/stats"

// Model is the analytic multiprocessor model behind the figure rows the
// host cannot measure. The paper's experiments ran on a 12-processor SGI
// Power Challenge (DESIGN.md §2, substitution 4); a run here can measure
// P-processor parallelism only up to the GOMAXPROCS it recorded, so each
// of Figures 8, 13, 14, 17 and 19 prints its rows with more workers than
// that from this model, marked "(model)". Those runs still execute for
// real (goroutines, per-variable locks, work stealing), so every
// structural quantity the model reads is measured: how many Shannon
// expansions the workers performed, how many operator nodes they
// reduced, and how many unique-table insertions landed on each variable.
// The model converts those counts into the elapsed times an ideal
// P-processor machine would see:
//
//   - Expansion is lock-free (per-worker caches and operator arenas), so
//     its modeled time is the total expansion work divided by P — the
//     paper's near-linear phase.
//   - Reduction serializes unique-table insertions per variable, so its
//     modeled time is bounded below by both the balanced per-worker
//     reduction work and the busiest variable's unique-table traffic — the
//     clustering of nodes on few variables (Figure 15) is exactly what
//     makes the second bound dominate at higher processor counts,
//     reproducing the paper's reduction bottleneck (Figures 16/17).
//   - GC mark and fix distribute with the creators of the nodes (modeled
//     by the per-worker reduction shares); rehash serializes per variable
//     like reduction.
//
// Unit costs (seconds per operation) are calibrated from the measured
// sequential run, so modeled sequential time ≈ measured sequential time.
type Model struct {
	// Calibrated unit costs from the sequential run.
	expCostPerOp float64
	redCostPerOp float64
	gcMarkCost   float64 // per reduced op (proxy for nodes owned)
	gcFixCost    float64
	gcRehashCost float64
}

// NewModel calibrates unit costs from the sequential result.
func NewModel(seq *Result) *Model {
	m := &Model{}
	w := seq.AllWorkers
	if w.Ops > 0 {
		m.expCostPerOp = w.PhaseTime(stats.PhaseExpansion).Seconds() / float64(w.Ops)
	}
	if w.ReducedOps > 0 {
		r := float64(w.ReducedOps)
		m.redCostPerOp = w.PhaseTime(stats.PhaseReduction).Seconds() / r
		m.gcMarkCost = w.PhaseTime(stats.PhaseGCMark).Seconds() / r
		m.gcFixCost = w.PhaseTime(stats.PhaseGCFix).Seconds() / r
		m.gcRehashCost = w.PhaseTime(stats.PhaseGCRehash).Seconds() / r
	}
	return m
}

// PhaseTimes is the modeled per-phase elapsed time on an ideal
// P-processor machine.
type PhaseTimes struct {
	Expansion float64
	Reduction float64
	GCMark    float64
	GCFix     float64
	GCRehash  float64
}

// Total returns the summed modeled elapsed time.
func (p PhaseTimes) Total() float64 {
	return p.Expansion + p.Reduction + p.GCMark + p.GCFix + p.GCRehash
}

// GC returns the summed modeled collector time.
func (p PhaseTimes) GC() float64 { return p.GCMark + p.GCFix + p.GCRehash }

// Predict computes modeled phase times for a run. Two quantities are
// taken from the run's real measurements: the total operation counts
// (which grow with P because compute caches are private — the paper's
// Figure 11 effect) and the per-variable insertion counts (whose
// clustering is the paper's reduction bottleneck). Work distribution
// across workers is assumed balanced, which is what dynamic stealing is
// for and what the paper observed for the expansion phase; with more
// workers than Go processors the raw per-worker split cannot be used,
// because the Go scheduler starves the thieves.
func (m *Model) Predict(r *Result) PhaseTimes {
	procs := r.Workers
	if procs == 0 {
		procs = 1
	}
	P := float64(procs)
	totalOps := float64(r.AllWorkers.Ops)
	totalRed := float64(r.AllWorkers.ReducedOps)
	var maxVarSer, maxVarIns, totalIns float64
	for l, n := range r.SerializedPerVar {
		maxVarSer = max(maxVarSer, float64(n))
		maxVarIns = max(maxVarIns, float64(r.InsertsPerVar[l]))
		totalIns += float64(r.InsertsPerVar[l])
	}
	// Reduction's critical path: the balanced per-worker share or the
	// busiest variable's lock-serialized unique-table traffic, whichever
	// is longer.
	redCritical := max(totalRed/P, maxVarSer)
	// Rehash reinserts live nodes; its per-variable serialization follows
	// the insertion distribution. Scale to the reduction-op unit via the
	// insert share of reduced ops.
	rehashCritical := max(totalIns/P, maxVarIns)
	return PhaseTimes{
		Expansion: m.expCostPerOp * totalOps / P,
		Reduction: m.redCostPerOp * redCritical,
		GCMark:    m.gcMarkCost * totalRed / P,
		GCFix:     m.gcFixCost * totalRed / P,
		GCRehash:  m.gcRehashCost * totalRed * (rehashCritical / max(totalIns, 1)),
	}
}

// LockRatio returns the modeled fraction of the reduction phase spent
// waiting on per-variable unique-table locks: the serialization excess
// over the balanced share (the paper's Figure 17 metric).
func (m *Model) LockRatio(r *Result) float64 {
	procs := r.Workers
	if procs == 0 {
		procs = 1
	}
	P := float64(procs)
	totalRed := float64(r.AllWorkers.ReducedOps)
	var maxVar float64
	for _, n := range r.SerializedPerVar {
		maxVar = max(maxVar, float64(n))
	}
	crit := max(totalRed/P, maxVar)
	if crit == 0 {
		return 0
	}
	return (crit - totalRed/P) / crit
}

// ModeledSpeedups returns, for every processor count in byProc, the
// modeled overall speedup over the sequential run.
func ModeledSpeedups(byProc map[int]*Result) map[int]float64 {
	seq := byProc[0]
	if seq == nil {
		return nil
	}
	m := NewModel(seq)
	base := m.Predict(seq).Total()
	out := make(map[int]float64, len(byProc))
	for p, r := range byProc {
		t := m.Predict(r).Total()
		if t > 0 {
			out[p] = base / t
		}
	}
	return out
}
