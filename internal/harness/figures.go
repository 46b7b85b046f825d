package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

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

// matrix prints a procs × circuits table with a per-cell formatter.
func (rs ResultSet) matrix(w io.Writer, cell func(*Result) string) {
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
		for _, c := range circuits {
			r := rs[c][p]
			if r == nil {
				fmt.Fprintf(w, "%12s", "-")
				continue
			}
			fmt.Fprintf(w, "%12s", cell(r))
		}
		fmt.Fprintln(w)
	}
}

// Fig7 prints elapsed time per circuit and processor count
// (paper Figure 7: "Elapsed Time for building BDDs for each circuit").
func Fig7(w io.Writer, rs ResultSet) {
	header(w, "Figure 7: Elapsed time (seconds)")
	rs.matrix(w, func(r *Result) string {
		return fmt.Sprintf("%.2f", r.Elapsed.Seconds())
	})
}

// Fig8 prints speedups over the sequential run (paper Figure 8).
func Fig8(w io.Writer, rs ResultSet) {
	header(w, "Figure 8: Speedup over sequential")
	rs.matrix(w, func(r *Result) string {
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
	rs.matrix(w, func(r *Result) string {
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
	rs.matrix(w, func(r *Result) string {
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
	for _, p := range procsOf(byProc) {
		if p == 0 {
			continue // the paper's Figure 13 starts at 1 processor
		}
		r := byProc[p]
		gc := r.Worker0.PhaseTime(stats.PhaseGCMark) +
			r.Worker0.PhaseTime(stats.PhaseGCFix) +
			r.Worker0.PhaseTime(stats.PhaseGCRehash)
		fmt.Fprintf(w, "%-8d%12.2f%12.2f%10.2f\n", p,
			r.Worker0.PhaseTime(stats.PhaseExpansion).Seconds(),
			r.Worker0.PhaseTime(stats.PhaseReduction).Seconds(),
			gc.Seconds())
	}
}

// Fig14 prints the phase speedups over the one-processor run
// (paper Figure 14).
func Fig14(w io.Writer, circuit string, byProc map[int]*Result) {
	header(w, fmt.Sprintf("Figure 14: Phase speedups of %s over 1 processor", circuit))
	one := byProc[1]
	if one == nil {
		fmt.Fprintln(w, "(no 1-processor run)")
		return
	}
	phase := func(r *Result, ps ...stats.Phase) time.Duration {
		var total time.Duration
		for _, p := range ps {
			total += r.Worker0.PhaseTime(p)
		}
		return total
	}
	fmt.Fprintf(w, "%-8s%12s%12s%10s\n", "# Procs", "Expansion", "Reduction", "GC")
	for _, p := range procsOf(byProc) {
		if p == 0 {
			continue
		}
		r := byProc[p]
		ratio := func(ps ...stats.Phase) string {
			num, den := phase(one, ps...), phase(r, ps...)
			if den == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f", num.Seconds()/den.Seconds())
		}
		fmt.Fprintf(w, "%-8d%12s%12s%10s\n", p,
			ratio(stats.PhaseExpansion),
			ratio(stats.PhaseReduction),
			ratio(stats.PhaseGCMark, stats.PhaseGCFix, stats.PhaseGCRehash))
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
// (paper Figure 17).
func Fig17(w io.Writer, circuit string, byProc map[int]*Result) {
	header(w, fmt.Sprintf("Figure 17: Lock wait / reduction time, %s", circuit))
	fmt.Fprintf(w, "%-8s%14s%14s%10s\n", "# Procs", "lock (s)", "reduce (s)", "ratio")
	for _, p := range procsOf(byProc) {
		if p == 0 {
			continue
		}
		r := byProc[p]
		lock := r.LockWaitTotal()
		// Reduction time summed across workers, matching the total lock
		// wait which is also summed across workers.
		reduce := r.AllWorkers.PhaseTime(stats.PhaseReduction)
		ratio := "-"
		if reduce > 0 {
			ratio = fmt.Sprintf("%.3f", lock.Seconds()/reduce.Seconds())
		}
		fmt.Fprintf(w, "%-8d%14.4f%14.4f%10s\n", p, lock.Seconds(), reduce.Seconds(), ratio)
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

// Fig19 prints the GC phase speedups over the one-processor run
// (paper Figure 19).
func Fig19(w io.Writer, circuit string, byProc map[int]*Result) {
	header(w, fmt.Sprintf("Figure 19: GC phase speedups of %s over 1 processor", circuit))
	one := byProc[1]
	if one == nil {
		fmt.Fprintln(w, "(no 1-processor run)")
		return
	}
	fmt.Fprintf(w, "%-8s%10s%10s%10s\n", "# Procs", "Mark", "Fix", "Rehash")
	for _, p := range procsOf(byProc) {
		if p == 0 {
			continue
		}
		r := byProc[p]
		ratio := func(ph stats.Phase) string {
			den := r.Worker0.PhaseTime(ph)
			if den == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f", one.Worker0.PhaseTime(ph).Seconds()/den.Seconds())
		}
		fmt.Fprintf(w, "%-8d%10s%10s%10s\n", p,
			ratio(stats.PhaseGCMark), ratio(stats.PhaseGCFix), ratio(stats.PhaseGCRehash))
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
