package harness

import (
	"fmt"
	"io"
	"sort"

	"bfbdd/internal/stats"
)

// ResultSet holds sweep results for several circuits: results[circuit][procs].
type ResultSet map[string]map[int]*Result

// Circuits returns the circuit names in a stable order.
func (rs ResultSet) Circuits() []string {
	names := make([]string, 0, len(rs))
	for n := range rs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// procsOf returns the sorted processor counts present for a circuit
// (Seq = 0 first).
func procsOf(m map[int]*Result) []int {
	ps := make([]int, 0, len(m))
	for p := range m {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	return ps
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, dashes(len(title)))
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}

// modelMark ends a figure row whose processor count is above the
// GOMAXPROCS its run recorded: the row comes from the Model, since the
// run could not measure that many processors working in parallel.
const modelMark = " (model)"

// measured reports whether r's times measure its processor count.
func measured(r *Result) bool { return r.Workers <= r.GOMAXPROCS }

// modelOf calibrates the Model on a circuit's Seq run, if it has one.
func modelOf(byProc map[int]*Result) *Model {
	if seq := byProc[0]; seq != nil {
		return NewModel(seq)
	}
	return nil
}

// phasesOf returns the first processor's measured phase times.
func phasesOf(r *Result) PhaseTimes {
	w := &r.Worker0
	return PhaseTimes{
		Expansion: w.PhaseTime(stats.PhaseExpansion).Seconds(),
		Reduction: w.PhaseTime(stats.PhaseReduction).Seconds(),
		GCMark:    w.PhaseTime(stats.PhaseGCMark).Seconds(),
		GCFix:     w.PhaseTime(stats.PhaseGCFix).Seconds(),
		GCRehash:  w.PhaseTime(stats.PhaseGCRehash).Seconds(),
	}
}

// phaseRow returns the phase times a figure row prints for r, and the
// row's ending: r's first processor as measured, or the Model's
// prediction marked (model). ok is false for a modeled row with no
// Model, which the row prints as "-".
func phaseRow(r *Result, m *Model) (t PhaseTimes, mark string, ok bool) {
	if measured(r) {
		return phasesOf(r), "", true
	}
	if m == nil {
		return PhaseTimes{}, modelMark, false
	}
	return m.Predict(r), modelMark, true
}

// speedupRow returns a Figure 14 or 19 row's one-processor phase times,
// the P-processor times they are divided by, and the row's ending: both
// as measured, or both from the Model on a row marked (model).
func speedupRow(one, r *Result, m *Model) (base, t PhaseTimes, mark string) {
	t, mark, ok := phaseRow(r, m)
	base = phasesOf(one)
	if mark != "" && ok {
		base = m.Predict(one)
	}
	return base, t, mark
}

// ratio formats num/den, or "-" when den is zero.
func ratio(num, den float64) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", num/den)
}

// matrix prints a procs × circuits table with a per-cell formatter. With
// markModeled set, a row with a run that is not measured ends in (model).
func (rs ResultSet) matrix(w io.Writer, markModeled bool, cell func(*Result) string) {
	circuits := rs.Circuits()
	fmt.Fprintf(w, "%-8s", "# Procs")
	for _, c := range circuits {
		fmt.Fprintf(w, "%12s", c)
	}
	fmt.Fprintln(w)
	var procs []int
	for _, c := range circuits {
		procs = procsOf(rs[c])
		break
	}
	for _, p := range procs {
		fmt.Fprintf(w, "%-8s", ProcLabel(p))
		mark := ""
		for _, c := range circuits {
			r := rs[c][p]
			if r == nil {
				fmt.Fprintf(w, "%12s", "-")
				continue
			}
			if markModeled && !measured(r) {
				mark = modelMark
			}
			fmt.Fprintf(w, "%12s", cell(r))
		}
		fmt.Fprintln(w, mark)
	}
}

// Fig7 prints elapsed time per circuit and processor count
// (paper Figure 7: "Elapsed Time for building BDDs for each circuit").
func Fig7(w io.Writer, rs ResultSet) {
	header(w, "Figure 7: Elapsed time (seconds)")
	rs.matrix(w, false, func(r *Result) string {
		return fmt.Sprintf("%.2f", r.Elapsed.Seconds())
	})
}

// Fig8 prints speedups over the sequential run (paper Figure 8): the
// measured wall-clock ratio, or the Model's on rows marked (model).
func Fig8(w io.Writer, rs ResultSet) {
	header(w, "Figure 8: Speedup over sequential")
	modeled := make(map[string]map[int]float64, len(rs))
	for c, byProc := range rs {
		modeled[c] = ModeledSpeedups(byProc)
	}
	rs.matrix(w, true, func(r *Result) string {
		if !measured(r) {
			if s, ok := modeled[r.Circuit][r.Workers]; ok {
				return fmt.Sprintf("%.2f", s)
			}
			return "-"
		}
		seq := rs[r.Circuit][0]
		if seq == nil || r.Elapsed == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", seq.Elapsed.Seconds()/r.Elapsed.Seconds())
	})
}

// Fig9 prints peak memory per run in MBytes (paper Figure 9), then each
// peak split by component.
func Fig9(w io.Writer, rs ResultSet) {
	header(w, "Figure 9: Memory usage (MBytes)")
	rs.matrix(w, false, func(r *Result) string {
		return fmt.Sprintf("%.1f", float64(r.PeakBytes)/(1<<20))
	})
	header(w, "Figure 9 (split): MBytes by component at the peak")
	fmt.Fprintf(w, "%-12s%-8s%10s%10s%10s%10s\n", "Circuit", "# Procs", "nodes", "op nodes", "cache", "tables")
	for _, c := range rs.Circuits() {
		for _, p := range procsOf(rs[c]) {
			a := rs[c][p].AtPeak
			fmt.Fprintf(w, "%-12s%-8s", c, ProcLabel(p))
			for _, b := range []uint64{a.NodeBytes, a.OpBytes, a.CacheBytes, a.TableBytes} {
				fmt.Fprintf(w, "%10.1f", float64(b)/(1<<20))
			}
			fmt.Fprintln(w)
		}
	}
}

// Fig10 prints the Figure 9 data as series suitable for plotting
// (paper Figure 10 plots the same numbers).
func Fig10(w io.Writer, rs ResultSet) {
	header(w, "Figure 10: Memory usage vs processors (plot series)")
	for _, c := range rs.Circuits() {
		fmt.Fprintf(w, "%s:", c)
		for _, p := range procsOf(rs[c]) {
			fmt.Fprintf(w, " (%s, %.1fMB)", ProcLabel(p), float64(rs[c][p].PeakBytes)/(1<<20))
		}
		fmt.Fprintln(w)
	}
}

// Fig11 prints total Shannon-expansion operation counts in millions
// (paper Figure 11: "Total Number of Operations").
func Fig11(w io.Writer, rs ResultSet) {
	header(w, "Figure 11: Total operations (millions)")
	rs.matrix(w, false, func(r *Result) string {
		return fmt.Sprintf("%.2f", float64(r.TotalOps)/1e6)
	})
}

// Fig12 prints the Figure 11 data as plot series (paper Figure 12).
func Fig12(w io.Writer, rs ResultSet) {
	header(w, "Figure 12: Total operations vs processors (plot series)")
	for _, c := range rs.Circuits() {
		fmt.Fprintf(w, "%s:", c)
		for _, p := range procsOf(rs[c]) {
			fmt.Fprintf(w, " (%s, %.2fM)", ProcLabel(p), float64(rs[c][p].TotalOps)/1e6)
		}
		fmt.Fprintln(w)
	}
}

// Fig13 prints the first processor's per-phase time breakdown for one
// circuit (paper Figure 13, reported for mult-14).
func Fig13(w io.Writer, circuit string, byProc map[int]*Result) {
	header(w, fmt.Sprintf("Figure 13: Phase breakdown of %s, first processor (seconds)", circuit))
	fmt.Fprintf(w, "%-8s%12s%12s%10s\n", "# Procs", "Expansion", "Reduction", "GC")
	m := modelOf(byProc)
	for _, p := range procsOf(byProc) {
		if p == 0 {
			continue // the paper's Figure 13 starts at 1 processor
		}
		t, mark, ok := phaseRow(byProc[p], m)
		if !ok {
			fmt.Fprintf(w, "%-8d%12s%12s%10s%s\n", p, "-", "-", "-", mark)
			continue
		}
		fmt.Fprintf(w, "%-8d%12.2f%12.2f%10.2f%s\n", p, t.Expansion, t.Reduction, t.GC(), mark)
	}
}

// Fig14 prints the phase speedups over the one-processor run (paper
// Figure 14). A row marked (model) divides the Model's one-processor
// times by its P-processor times.
func Fig14(w io.Writer, circuit string, byProc map[int]*Result) {
	header(w, fmt.Sprintf("Figure 14: Phase speedups of %s over 1 processor", circuit))
	one := byProc[1]
	if one == nil {
		fmt.Fprintln(w, "(no 1-processor run)")
		return
	}
	fmt.Fprintf(w, "%-8s%12s%12s%10s\n", "# Procs", "Expansion", "Reduction", "GC")
	m := modelOf(byProc)
	for _, p := range procsOf(byProc) {
		if p == 0 {
			continue
		}
		base, t, mark := speedupRow(one, byProc[p], m)
		fmt.Fprintf(w, "%-8d%12s%12s%10s%s\n", p,
			ratio(base.Expansion, t.Expansion),
			ratio(base.Reduction, t.Reduction),
			ratio(base.GC(), t.GC()), mark)
	}
}

// Fig15 prints each variable's maximum unique-table node count for a
// one-processor run (paper Figure 15, showing the clustering of BDD
// nodes on very few variables).
func Fig15(w io.Writer, circuit string, r *Result) {
	header(w, fmt.Sprintf("Figure 15: Max BDD nodes per variable, %s (1 processor)", circuit))
	fmt.Fprintf(w, "%-10s%14s\n", "variable", "max nodes")
	for v, n := range r.MaxNodesPerVar {
		fmt.Fprintf(w, "%-10d%14d\n", v, n)
	}
	top, topVar := uint64(0), 0
	var total uint64
	for v, n := range r.MaxNodesPerVar {
		total += n
		if n > top {
			top, topVar = n, v
		}
	}
	if total > 0 {
		fmt.Fprintf(w, "peak: variable %d with %d nodes (%.0f%% of the per-variable maxima sum)\n",
			topVar, top, 100*float64(top)/float64(total))
	}
}

// Fig16 prints each variable's total unique-table lock acquisition wait
// for several processor counts (paper Figure 16).
func Fig16(w io.Writer, circuit string, byProc map[int]*Result) {
	header(w, fmt.Sprintf("Figure 16: Lock acquisition wait per variable, %s (seconds)", circuit))
	procs := procsOf(byProc)
	fmt.Fprintf(w, "%-10s", "variable")
	for _, p := range procs {
		if p >= 2 {
			fmt.Fprintf(w, "%14s", fmt.Sprintf("%d procs", p))
		}
	}
	fmt.Fprintln(w)
	var nvars int
	for _, p := range procs {
		nvars = len(byProc[p].LockWaitPerVar)
		break
	}
	for v := 0; v < nvars; v++ {
		fmt.Fprintf(w, "%-10d", v)
		for _, p := range procs {
			if p >= 2 {
				fmt.Fprintf(w, "%14.4f", byProc[p].LockWaitPerVar[v].Seconds())
			}
		}
		fmt.Fprintln(w)
	}
}

// Fig17 prints the lock wait as a fraction of the reduction phase time
// (paper Figure 17). A row marked (model) prints only the Model's ratio.
func Fig17(w io.Writer, circuit string, byProc map[int]*Result) {
	header(w, fmt.Sprintf("Figure 17: Lock wait / reduction time, %s", circuit))
	fmt.Fprintf(w, "%-8s%14s%14s%10s\n", "# Procs", "lock (s)", "reduce (s)", "ratio")
	m := modelOf(byProc)
	for _, p := range procsOf(byProc) {
		if p == 0 {
			continue
		}
		r := byProc[p]
		if !measured(r) {
			lr := "-"
			if m != nil {
				lr = fmt.Sprintf("%.3f", m.LockRatio(r))
			}
			fmt.Fprintf(w, "%-8d%14s%14s%10s%s\n", p, "-", "-", lr, modelMark)
			continue
		}
		lock := r.LockWaitTotal()
		// Reduction time summed across workers, matching the total lock
		// wait which is also summed across workers.
		reduce := r.AllWorkers.PhaseTime(stats.PhaseReduction)
		lr := "-"
		if reduce > 0 {
			lr = fmt.Sprintf("%.3f", lock.Seconds()/reduce.Seconds())
		}
		fmt.Fprintf(w, "%-8d%14.4f%14.4f%10s\n", p, lock.Seconds(), reduce.Seconds(), lr)
	}
}

// Fig18 prints the garbage collector's phase breakdown on the first
// processor (paper Figure 18).
func Fig18(w io.Writer, circuit string, byProc map[int]*Result) {
	header(w, fmt.Sprintf("Figure 18: GC phase breakdown of %s, first processor (seconds)", circuit))
	fmt.Fprintf(w, "%-8s%10s%10s%10s\n", "# Procs", "Mark", "Fix", "Rehash")
	for _, p := range procsOf(byProc) {
		if p == 0 {
			continue
		}
		r := byProc[p]
		fmt.Fprintf(w, "%-8d%10.3f%10.3f%10.3f\n", p,
			r.Worker0.PhaseTime(stats.PhaseGCMark).Seconds(),
			r.Worker0.PhaseTime(stats.PhaseGCFix).Seconds(),
			r.Worker0.PhaseTime(stats.PhaseGCRehash).Seconds())
	}
}

// Fig19 prints the GC phase speedups over the one-processor run (paper
// Figure 19), modeled like Figure 14 on rows marked (model).
func Fig19(w io.Writer, circuit string, byProc map[int]*Result) {
	header(w, fmt.Sprintf("Figure 19: GC phase speedups of %s over 1 processor", circuit))
	one := byProc[1]
	if one == nil {
		fmt.Fprintln(w, "(no 1-processor run)")
		return
	}
	fmt.Fprintf(w, "%-8s%10s%10s%10s\n", "# Procs", "Mark", "Fix", "Rehash")
	m := modelOf(byProc)
	for _, p := range procsOf(byProc) {
		if p == 0 {
			continue
		}
		base, t, mark := speedupRow(one, byProc[p], m)
		fmt.Fprintf(w, "%-8d%10s%10s%10s%s\n", p,
			ratio(base.GCMark, t.GCMark), ratio(base.GCFix, t.GCFix), ratio(base.GCRehash, t.GCRehash), mark)
	}
}

// Fig9DSM prints the paper's DSM memory-pooling reading of the Figure 9
// data (§4.1: on a DSM with 8 processors the 8-processor footprint is
// equivalent to having several times the single machine's memory): for
// each run, the per-processor footprint if the total were pooled across P
// machines, and the pooling factor relative to the 1-processor run.
func Fig9DSM(w io.Writer, rs ResultSet) {
	header(w, "Figure 9 (DSM pooling view): per-machine MB if pooled across P machines")
	circuits := rs.Circuits()
	fmt.Fprintf(w, "%-8s", "# Procs")
	for _, c := range circuits {
		fmt.Fprintf(w, "  %20s", c)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s", "")
	for range circuits {
		fmt.Fprintf(w, "  %20s", "MB/machine (gain)")
	}
	fmt.Fprintln(w)
	var procs []int
	for _, c := range circuits {
		procs = procsOf(rs[c])
		break
	}
	for _, p := range procs {
		if p == 0 {
			continue
		}
		fmt.Fprintf(w, "%-8d", p)
		for _, c := range circuits {
			r := rs[c][p]
			one := rs[c][1]
			if r == nil || one == nil {
				fmt.Fprintf(w, "  %20s", "-")
				continue
			}
			perMachine := float64(r.PeakBytes) / float64(p) / (1 << 20)
			gain := float64(one.PeakBytes) / (float64(r.PeakBytes) / float64(p))
			fmt.Fprintf(w, "  %20s", fmt.Sprintf("%.1f (%.1fx)", perMachine, gain))
		}
		fmt.Fprintln(w)
	}
}

// Summary prints a one-line digest per run (not a paper figure; used by
// the CLI for orientation).
func Summary(w io.Writer, rs ResultSet) {
	header(w, "Run summary")
	for _, c := range rs.Circuits() {
		for _, p := range procsOf(rs[c]) {
			r := rs[c][p]
			fmt.Fprintf(w, "%-10s %4s procs: %8.2fs  %8.1fMB  %7.2fM ops  %6d steals  %4d GCs  out=%d nodes\n",
				c, ProcLabel(p), r.Elapsed.Seconds(), float64(r.PeakBytes)/(1<<20),
				float64(r.TotalOps)/1e6, r.AllWorkers.Steals, r.GCCount, r.OutputNodes)
		}
	}
}
