package harness

import (
	"testing"

	"bfbdd/internal/stats"
)

// syntheticResult fabricates a Result with a controlled work profile.
func syntheticResult(workers int, ops, red uint64, serPerVar []uint64) *Result {
	r := &Result{Workers: workers}
	r.AllWorkers.Ops = ops
	r.AllWorkers.ReducedOps = red
	r.SerializedPerVar = serPerVar
	r.InsertsPerVar = make([]uint64, len(serPerVar))
	for i, n := range serPerVar {
		r.InsertsPerVar[i] = n / 2
	}
	return r
}

func calibrated() *Model {
	seq := syntheticResult(0, 1_000_000, 800_000, []uint64{100_000, 200_000, 100_000})
	seq.AllWorkers.PhaseNs[stats.PhaseExpansion] = int64(1e9) // 1s expansion
	seq.AllWorkers.PhaseNs[stats.PhaseReduction] = int64(8e8) // 0.8s reduction
	seq.AllWorkers.PhaseNs[stats.PhaseGCMark] = int64(8e7)
	seq.AllWorkers.PhaseNs[stats.PhaseGCFix] = int64(4e7)
	seq.AllWorkers.PhaseNs[stats.PhaseGCRehash] = int64(8e7)
	return NewModel(seq)
}

func TestModelSequentialIdentity(t *testing.T) {
	seq := syntheticResult(0, 1_000_000, 800_000, []uint64{100_000, 200_000, 100_000})
	seq.AllWorkers.PhaseNs[stats.PhaseExpansion] = int64(1e9)
	seq.AllWorkers.PhaseNs[stats.PhaseReduction] = int64(8e8)
	m := NewModel(seq)
	p := m.Predict(seq)
	if p.Expansion < 0.99 || p.Expansion > 1.01 {
		t.Fatalf("sequential expansion modeled as %.3fs want ~1s", p.Expansion)
	}
	if p.Reduction < 0.79 || p.Reduction > 0.81 {
		t.Fatalf("sequential reduction modeled as %.3fs want ~0.8s", p.Reduction)
	}
}

func TestModelExpansionScalesLinearly(t *testing.T) {
	m := calibrated()
	// No per-variable bottleneck: reduction work spread thinly.
	flat := []uint64{50_000, 50_000, 50_000, 50_000}
	t1 := m.Predict(syntheticResult(1, 1_000_000, 800_000, flat))
	t8 := m.Predict(syntheticResult(8, 1_000_000, 800_000, flat))
	if ratio := t1.Expansion / t8.Expansion; ratio < 7.9 || ratio > 8.1 {
		t.Fatalf("expansion speedup = %.2f want ~8", ratio)
	}
}

func TestModelReductionSaturates(t *testing.T) {
	m := calibrated()
	// One variable holds 40% of the serialized traffic: reduction speedup
	// must cap near 1/0.4 = 2.5 regardless of processor count.
	clustered := []uint64{320_000, 100_000, 50_000}
	t1 := m.Predict(syntheticResult(1, 1_000_000, 800_000, clustered))
	t8 := m.Predict(syntheticResult(8, 1_000_000, 800_000, clustered))
	t16 := m.Predict(syntheticResult(16, 1_000_000, 800_000, clustered))
	s8 := t1.Reduction / t8.Reduction
	if s8 < 2.4 || s8 > 2.6 {
		t.Fatalf("clustered reduction speedup at 8 procs = %.2f want ~2.5", s8)
	}
	s16 := t1.Reduction / t16.Reduction
	if s16 > s8*1.01 {
		t.Fatalf("reduction speedup should saturate: s8=%.2f s16=%.2f", s8, s16)
	}
	// Expansion keeps scaling even when reduction saturates.
	if e := t1.Expansion / t16.Expansion; e < 15 {
		t.Fatalf("expansion speedup at 16 = %.2f want ~16", e)
	}
}

func TestModelOpInflationSlowsExpansion(t *testing.T) {
	m := calibrated()
	flat := []uint64{50_000, 50_000}
	base := m.Predict(syntheticResult(4, 1_000_000, 800_000, flat))
	// 20% more operations (unshared caches) at the same processor count.
	inflated := m.Predict(syntheticResult(4, 1_200_000, 800_000, flat))
	if inflated.Expansion <= base.Expansion {
		t.Fatal("op inflation must increase modeled expansion time")
	}
}

func TestLockRatio(t *testing.T) {
	m := calibrated()
	flat := []uint64{50_000, 50_000}
	if r := m.LockRatio(syntheticResult(1, 1e6, 800_000, flat)); r != 0 {
		t.Fatalf("1-proc lock ratio = %f want 0", r)
	}
	// maxVar = 320k; at 8 procs balanced share = 100k → ratio = 220/320.
	clustered := []uint64{320_000, 100_000}
	got := m.LockRatio(syntheticResult(8, 1e6, 800_000, clustered))
	want := (320_000.0 - 100_000.0) / 320_000.0
	if got < want-0.01 || got > want+0.01 {
		t.Fatalf("lock ratio = %.3f want %.3f", got, want)
	}
}

func TestModeledSpeedupsEndToEnd(t *testing.T) {
	// Real runs: sequential and 4-worker on a mid-size multiplier.
	byProc, err := Sweep("mult-6", []int{0, 1, 4}, Config{EvalThreshold: 256, GroupSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	sp := ModeledSpeedups(byProc)
	if sp[0] < 0.99 || sp[0] > 1.01 {
		t.Fatalf("seq modeled speedup = %.3f want 1", sp[0])
	}
	if sp[4] < 1.5 {
		t.Fatalf("4-proc modeled speedup = %.2f want > 1.5", sp[4])
	}
	if sp[4] > 4.2 {
		t.Fatalf("4-proc modeled speedup = %.2f exceeds processor count", sp[4])
	}
}
