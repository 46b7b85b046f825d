package bfbdd

import (
	"context"
	"time"

	"bfbdd/internal/stats"
	"bfbdd/internal/trace"
)

// BuildReport is the paper's per-build counters for one ApplyCtx or
// ApplyBatchCtx call: Shannon expansion steps, cache hits, terminal
// cases, load balancing, unique-table lock wait, nodes created, and the
// expansion, reduction and collector phase times, each the change across
// that build.
type BuildReport struct {
	ShannonSteps  uint64
	CacheHits     uint64
	Terminals     uint64
	Steals        uint64
	StolenOps     uint64
	Stalls        uint64
	ContextPushes uint64
	LockWait      time.Duration
	// NodesCreated is the change in the live node count; a collection
	// inside the build can make it negative.
	NodesCreated int64
	Expansion    time.Duration
	Reduction    time.Duration
	GCMark       time.Duration
	GCFix        time.Duration
	GCRehash     time.Duration
}

// Attrs returns the report as key=value pairs, the attributes of the
// kernel-build trace span and of the server's slow-build log line.
func (r BuildReport) Attrs() []trace.Attr {
	return []trace.Attr{
		trace.I("shannon_steps", int64(r.ShannonSteps)),
		trace.I("cache_hits", int64(r.CacheHits)),
		trace.I("terminals", int64(r.Terminals)),
		trace.I("steals", int64(r.Steals)),
		trace.I("stolen_ops", int64(r.StolenOps)),
		trace.I("stalls", int64(r.Stalls)),
		trace.I("context_pushes", int64(r.ContextPushes)),
		trace.I("lock_wait_ns", int64(r.LockWait)),
		trace.I("nodes_created", r.NodesCreated),
		trace.I("expansion_ns", int64(r.Expansion)),
		trace.I("reduction_ns", int64(r.Reduction)),
		trace.I("gc_mark_ns", int64(r.GCMark)),
		trace.I("gc_fix_ns", int64(r.GCFix)),
		trace.I("gc_rehash_ns", int64(r.GCRehash)),
	}
}

// LastBuild returns the report of the most recent ApplyCtx or
// ApplyBatchCtx call, canceled and aborted builds included. Like every
// manager call it must be serialized against in-flight operations.
func (m *Manager) LastBuild() BuildReport { return m.last }

// build is one top-level build in flight: the counters its BuildReport
// is the change of, and the trace it records into (nil if untraced).
type build struct {
	t     stats.Worker
	nodes uint64
	tr    *trace.Trace
	span  trace.SpanID
}

// startBuild takes the counters before a build and, when ctx carries a
// trace, arms the kernel with it. While armed, the workers record
// per-level expansion/reduction spans and the collector records gc
// spans as children of the "kernel-build" span.
func (m *Manager) startBuild(ctx context.Context) build {
	b := build{t: m.k.TotalStats(), nodes: m.k.NumNodes()}
	if b.tr, b.span = trace.FromContext(ctx); b.tr != nil {
		b.span = b.tr.Start(b.span, "kernel-build")
		m.k.ArmTrace(b.tr, b.span)
	}
	return b
}

// endBuild forms the build's report, the one place build counters are
// subtracted, keeps it for LastBuild, and ends the kernel-build span (if
// any) with the report as its attributes.
func (m *Manager) endBuild(b build) {
	if b.tr != nil {
		m.k.DisarmTrace()
	}
	t := m.k.TotalStats()
	phase := func(p stats.Phase) time.Duration { return t.PhaseTime(p) - b.t.PhaseTime(p) }
	m.last = BuildReport{
		ShannonSteps:  t.Ops - b.t.Ops,
		CacheHits:     t.CacheHits - b.t.CacheHits,
		Terminals:     t.Terminals - b.t.Terminals,
		Steals:        t.Steals - b.t.Steals,
		StolenOps:     t.StolenOps - b.t.StolenOps,
		Stalls:        t.Stalls - b.t.Stalls,
		ContextPushes: t.ContextPushes - b.t.ContextPushes,
		LockWait:      time.Duration(t.LockWaitNs - b.t.LockWaitNs),
		NodesCreated:  int64(m.k.NumNodes()) - int64(b.nodes),
		Expansion:     phase(stats.PhaseExpansion),
		Reduction:     phase(stats.PhaseReduction),
		GCMark:        phase(stats.PhaseGCMark),
		GCFix:         phase(stats.PhaseGCFix),
		GCRehash:      phase(stats.PhaseGCRehash),
	}
	if b.tr != nil {
		b.tr.End(b.span, m.last.Attrs()...)
	}
}
