package stats

import (
	"testing"
	"time"
)

func TestPhaseNames(t *testing.T) {
	want := map[Phase]string{
		PhaseExpansion: "expansion",
		PhaseReduction: "reduction",
		PhaseGCMark:    "gc-mark",
		PhaseGCFix:     "gc-fix",
		PhaseGCRehash:  "gc-rehash",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q want %q", p, p.String(), name)
		}
	}
	if Phase(99).String() != "unknown" {
		t.Error("out-of-range phase should be unknown")
	}
}

func TestWorkerPhaseAccumulation(t *testing.T) {
	var w Worker
	w.AddPhase(PhaseExpansion, time.Second)
	w.AddPhase(PhaseExpansion, 2*time.Second)
	w.AddPhase(PhaseReduction, time.Millisecond)
	if w.PhaseTime(PhaseExpansion) != 3*time.Second {
		t.Fatalf("expansion = %v", w.PhaseTime(PhaseExpansion))
	}
	if w.PhaseTime(PhaseReduction) != time.Millisecond {
		t.Fatalf("reduction = %v", w.PhaseTime(PhaseReduction))
	}
	if w.PhaseTime(PhaseGCMark) != 0 {
		t.Fatal("untouched phase nonzero")
	}
}

func TestWorkerAddAndReset(t *testing.T) {
	a := Worker{Ops: 10, ReducedOps: 5, CacheHits: 3, Steals: 1, StolenOps: 7,
		Stalls: 2, ForcedOps: 3, ContextPushes: 4, ContextPops: 4, Terminals: 9,
		StealFailures: 6, StallNs: 100}
	a.AddPhase(PhaseGCFix, time.Second)
	b := Worker{Ops: 1, ReducedOps: 1, CacheHits: 1, Steals: 1, StolenOps: 1,
		Stalls: 1, ForcedOps: 1, ContextPushes: 1, ContextPops: 1, Terminals: 1,
		StealFailures: 1, StallNs: 1}
	b.Add(&a)
	if b.Ops != 11 || b.ReducedOps != 6 || b.CacheHits != 4 || b.Steals != 2 ||
		b.StolenOps != 8 || b.Stalls != 3 || b.ForcedOps != 4 ||
		b.ContextPushes != 5 || b.ContextPops != 5 || b.Terminals != 10 ||
		b.StealFailures != 7 || b.StallNs != 101 {
		t.Fatalf("Add result wrong: %+v", b)
	}
	if b.PhaseTime(PhaseGCFix) != time.Second {
		t.Fatal("phase not added")
	}
	b.Reset()
	if b != (Worker{}) {
		t.Fatalf("Reset incomplete: %+v", b)
	}
}

func TestMemorySample(t *testing.T) {
	var m Memory
	m.Sample(100, 50, 25, 25)
	if m.Total() != 200 {
		t.Fatalf("Total = %d", m.Total())
	}
	if m.PeakBytes != 200 {
		t.Fatalf("Peak = %d", m.PeakBytes)
	}
	m.Sample(10, 10, 10, 10)
	if m.Total() != 40 {
		t.Fatalf("Total after shrink = %d", m.Total())
	}
	if m.PeakBytes != 200 {
		t.Fatal("peak must be monotone")
	}
	if want := (Parts{100, 50, 25, 25}); m.AtPeak != want {
		t.Fatalf("AtPeak = %+v after a lower sample, want %+v", m.AtPeak, want)
	}
	m.Sample(300, 0, 0, 0)
	if m.PeakBytes != 300 {
		t.Fatalf("peak not raised: %d", m.PeakBytes)
	}
	if want := (Parts{300, 0, 0, 0}); m.AtPeak != want || m.AtPeak.Total() != m.PeakBytes {
		t.Fatalf("AtPeak = %+v, want %+v", m.AtPeak, want)
	}
}
