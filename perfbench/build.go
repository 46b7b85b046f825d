package main

import (
	"cmp"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"bfbdd/internal/harness"
	"bfbdd/internal/stats"
)

// buildMult11 is the paper's experiment through the library alone:
// harness.Run builds every output of the multiplier under the DFS order.
// Untraced, it times 2-worker builds after one discarded warm-up build.
// Traced, it alternates Seq and 2-worker builds in seeded order, so the
// measured speedup compares builds made side by side, and reports the
// kernel's phase, lock and work counters (Fig 7-19).
//
// The circuit is fixed, so the seed only sets the traced pair order.
func buildMult11(r *run) error {
	if r.cfg.trace {
		return buildPairs(r)
	}
	if _, _, err := timedBuild(r, 2); err != nil {
		return err
	}
	var buildMs, setup, peak []float64
	start := time.Now()
	for time.Since(start) < r.cfg.window {
		res, outside, err := timedBuild(r, 2)
		if err != nil {
			return err
		}
		buildMs = append(buildMs, ms(res.Elapsed))
		setup = append(setup, outside.Seconds())
		peak = append(peak, mb(res.PeakBytes))
	}
	r.set("setup_s", median(setup))
	r.reportLatency(r.cfg.buildCircuit+" 2-worker build", buildMs)
	r.set("throughput_per_s", float64(len(buildMs))/(sum(buildMs)/1000))
	r.set("peak_mb", median(peak))
	return nil
}

// timedBuild runs one harness build from a freshly collected Go heap and
// checks its output size. It returns the result and the time harness.Run
// spent outside the timed netlist.Build: generating and ordering the
// circuit, creating the kernel, and collecting the result.
func timedBuild(r *run, workers int) (*harness.Result, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	res, err := harness.Run(harness.Config{Circuit: r.cfg.buildCircuit, Workers: workers})
	wall := time.Since(t0)
	r.attempt(err)
	if err != nil {
		return nil, 0, err
	}
	if res.OutputNodes != r.cfg.buildNodes {
		r.wrong("%s with %d workers has %d output nodes, want %d",
			r.cfg.buildCircuit, workers, res.OutputNodes, r.cfg.buildNodes)
	}
	return res, wall - res.Elapsed, nil
}

// buildPairs is the traced build-mult11 run.
func buildPairs(r *run) error {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	var seqs, pars []*harness.Result
	gw := watchGo()
	start := time.Now()
	for pair := 0; pair < 2 || time.Since(start) < r.cfg.window; pair++ {
		order := []int{0, 2}
		if rng.Intn(2) == 1 {
			order = []int{2, 0}
		}
		for _, w := range order {
			res, _, err := timedBuild(r, w)
			if err != nil {
				return err
			}
			if pair == 0 {
				continue // warm-up pair
			}
			if w == 0 {
				seqs = append(seqs, res)
			} else {
				pars = append(pars, res)
			}
		}
	}
	gw.finish(r)

	each := func(rs []*harness.Result, f func(*harness.Result) float64) float64 {
		xs := make([]float64, len(rs))
		for i, res := range rs {
			xs[i] = f(res)
		}
		return median(xs)
	}
	phase := func(p stats.Phase) func(*harness.Result) float64 {
		return func(res *harness.Result) float64 { return res.AllWorkers.PhaseTime(p).Seconds() }
	}
	w0 := func(ps ...stats.Phase) func(*harness.Result) float64 {
		return func(res *harness.Result) float64 {
			var t time.Duration
			for _, p := range ps {
				t += res.Worker0.PhaseTime(p)
			}
			return t.Seconds()
		}
	}
	r.set("core.expansion_s", each(pars, phase(stats.PhaseExpansion)))
	r.set("core.reduction_s", each(pars, phase(stats.PhaseReduction)))
	r.set("core.gc_mark_s", each(pars, phase(stats.PhaseGCMark)))
	r.set("core.gc_fix_s", each(pars, phase(stats.PhaseGCFix)))
	r.set("core.gc_rehash_s", each(pars, phase(stats.PhaseGCRehash)))
	r.set("core.w0_expansion_s", each(pars, w0(stats.PhaseExpansion)))
	r.set("core.w0_reduction_s", each(pars, w0(stats.PhaseReduction)))
	r.set("core.w0_gc_s", each(pars, w0(stats.PhaseGCMark, stats.PhaseGCFix, stats.PhaseGCRehash)))
	opsPar := each(pars, func(res *harness.Result) float64 { return float64(res.TotalOps) / 1e6 })
	opsSeq := each(seqs, func(res *harness.Result) float64 { return float64(res.TotalOps) / 1e6 })
	r.set("core.ops_m", opsPar)
	r.set("core.ops_seq_m", opsSeq)
	r.set("core.ops_inflation", opsPar/opsSeq-1)
	r.set("core.steals", each(pars, func(res *harness.Result) float64 { return float64(res.AllWorkers.Steals) }))
	r.set("core.stolen_ops", each(pars, func(res *harness.Result) float64 { return float64(res.AllWorkers.StolenOps) }))
	r.set("core.stall_s", each(pars, func(res *harness.Result) float64 { return time.Duration(res.AllWorkers.StallNs).Seconds() }))
	r.set("core.gc_count", each(pars, func(res *harness.Result) float64 { return float64(res.GCCount) }))
	r.set("core.context_pushes", each(pars, func(res *harness.Result) float64 { return float64(res.AllWorkers.ContextPushes) }))
	// The Seq build runs on one goroutine, so its phases should cover its
	// wall time; what they miss is time in netlist.Build outside the kernel.
	r.set("core.unaccounted_pct", each(seqs, func(res *harness.Result) float64 {
		var phases int64
		for _, ns := range res.AllWorkers.PhaseNs {
			phases += ns
		}
		return 100 * (1 - float64(phases)/float64(res.Elapsed))
	}))
	r.set("core.peak_mb", each(pars, func(res *harness.Result) float64 { return mb(res.PeakBytes) }))
	r.set("unique.lock_wait_s", each(pars, func(res *harness.Result) float64 { return res.LockWaitTotal().Seconds() }))
	r.set("unique.lock_wait_ratio", each(pars, func(res *harness.Result) float64 {
		return res.LockWaitTotal().Seconds() / res.AllWorkers.PhaseTime(stats.PhaseReduction).Seconds()
	}))
	r.set("unique.top_var_share", each(pars, topVarShare))
	r.set("unique.hit_ratio", each(pars, func(res *harness.Result) float64 {
		var finds, inserts uint64
		for l := range res.SerializedPerVar {
			finds += res.SerializedPerVar[l]
			inserts += res.InsertsPerVar[l]
		}
		return 1 - float64(inserts)/float64(finds)
	}))
	r.set("cache.hit_ratio", each(pars, func(res *harness.Result) float64 {
		return cacheHitRatio(res.AllWorkers.CacheHits, res.AllWorkers.Ops)
	}))
	seqS := each(seqs, func(res *harness.Result) float64 { return res.Elapsed.Seconds() })
	parS := each(pars, func(res *harness.Result) float64 { return res.Elapsed.Seconds() })
	r.set("harness.build_seq_s", seqS)
	r.set("harness.speedup_2w", seqS/parS)
	var modeled []float64
	for i := range pars {
		modeled = append(modeled, harness.ModeledSpeedups(map[int]*harness.Result{0: seqs[i], 2: pars[i]})[2])
	}
	r.set("harness.speedup_2w_modeled", median(modeled))
	r.detail("%s: %d pairs; Seq %.3fs, 2 workers %.3fs; speedup measured %.3f, modeled %.3f",
		r.cfg.buildCircuit, len(pars), seqS, parS, seqS/parS, median(modeled))
	r.figures["build"] = buildFigures(seqs, pars)
	return nil
}

// topVarShare is Fig 15's clustering measure: the busiest variable's
// share of the per-variable node high-water marks.
func topVarShare(res *harness.Result) float64 {
	var top, total uint64
	for _, n := range res.MaxNodesPerVar {
		total += n
		top = max(top, n)
	}
	return float64(top) / float64(total)
}

// cacheHitRatio is compute-cache hits over lookups, where every miss
// leads to one Shannon expansion.
func cacheHitRatio(hits, ops uint64) float64 {
	if hits+ops == 0 {
		return 0
	}
	return float64(hits) / float64(hits+ops)
}

// buildFigures is the paper's Fig 7-19 data for the circuit: the
// per-build series and, from the median 2-worker build, the per-variable
// node high-water marks (Fig 15) and lock waits (Fig 16).
func buildFigures(seqs, pars []*harness.Result) map[string]any {
	series := func(rs []*harness.Result) map[string]any {
		var elapsed, peak, ops, w0exp, w0red, w0mark, w0fix, w0rehash []float64
		for _, res := range rs {
			elapsed = append(elapsed, res.Elapsed.Seconds())
			peak = append(peak, mb(res.PeakBytes))
			ops = append(ops, float64(res.TotalOps))
			w := res.Worker0
			w0exp = append(w0exp, w.PhaseTime(stats.PhaseExpansion).Seconds())
			w0red = append(w0red, w.PhaseTime(stats.PhaseReduction).Seconds())
			w0mark = append(w0mark, w.PhaseTime(stats.PhaseGCMark).Seconds())
			w0fix = append(w0fix, w.PhaseTime(stats.PhaseGCFix).Seconds())
			w0rehash = append(w0rehash, w.PhaseTime(stats.PhaseGCRehash).Seconds())
		}
		return map[string]any{
			"fig7_elapsed_s": elapsed, "fig9_peak_mb": peak, "fig11_ops": ops,
			"fig13_w0_expansion_s": w0exp, "fig13_w0_reduction_s": w0red,
			"fig18_w0_gc_mark_s": w0mark, "fig18_w0_gc_fix_s": w0fix, "fig18_w0_gc_rehash_s": w0rehash,
		}
	}
	byTime := slices.Clone(pars)
	slices.SortFunc(byTime, func(a, b *harness.Result) int { return cmp.Compare(a.Elapsed, b.Elapsed) })
	mid := byTime[len(byTime)/2]
	lock := make([]float64, len(mid.LockWaitPerVar))
	for l, d := range mid.LockWaitPerVar {
		lock[l] = d.Seconds()
	}
	return map[string]any{
		"seq":                       series(seqs),
		"workers2":                  series(pars),
		"fig15_max_nodes_per_var":   mid.MaxNodesPerVar,
		"fig16_lock_wait_s_per_var": lock,
		"fig17_lock_wait_ratio":     mid.LockWaitTotal().Seconds() / mid.AllWorkers.PhaseTime(stats.PhaseReduction).Seconds(),
	}
}

// goWatch samples the Go runtime over a measured window: the peak live
// heap, read every 20 ms, and the stop-the-world GC pause total.
type goWatch struct {
	stop, done chan struct{}
	peak       uint64
	pause0     uint64
}

func watchGo() *goWatch {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w := &goWatch{stop: make(chan struct{}), done: make(chan struct{}), pause0: m.PauseTotalNs}
	go func() {
		defer close(w.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				w.peak = max(w.peak, s[0].Value.Uint64())
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// finish stops the sampler and records go.heap_peak_mb and go.gc_pause_ms.
func (w *goWatch) finish(r *run) {
	close(w.stop)
	<-w.done
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("go.heap_peak_mb", mb(w.peak))
	r.set("go.gc_pause_ms", float64(m.PauseTotalNs-w.pause0)/1e6)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }
