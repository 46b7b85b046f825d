package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// boundSpec is one end-to-end metric of BENCHMARK.json.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// side is one --record file's untraced runs, grouped by workload.
type side struct {
	values map[string]map[string][]float64 // workload -> metric -> one value per run
	failed map[string]int64                // workload -> failed operations plus runs with a wrong output
}

func loadSide(path string) (*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &side{values: map[string]map[string][]float64{}, failed: map[string]int64{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace || rec.Result == nil {
			continue
		}
		byMetric := s.values[rec.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			s.values[rec.Workload] = byMetric
		}
		for name, m := range rec.Result.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
		s.failed[rec.Workload] += rec.Result.Failed
		if !rec.Result.Correct {
			s.failed[rec.Workload]++
		}
	}
	return s, sc.Err()
}

// verdict judges B against A for one metric: "worse" or "better" when the
// medians differ by more than the bound in that direction, "unchanged"
// otherwise, and "unresolved" when either side's run-to-run spread
// exceeds the bound, unless every run of B beats every run of A. It also
// returns the relative change of the median and the larger spread.
func verdict(a, b []float64, better string, bound float64) (v string, change, noise float64) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / math.Abs(ma)
	worse := change
	if better == "higher" {
		worse = -change
	}
	noise = max(spread(a), spread(b))
	beats := func(x, y float64) bool {
		if better == "higher" {
			return x > y
		}
		return x < y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && beats(x, y)
		}
	}
	switch {
	case noise > bound && allBetter:
		return "better", change, noise
	case noise > bound:
		return "unresolved", change, noise
	case worse > bound:
		return "worse", change, noise
	case worse < -bound:
		return "better", change, noise
	}
	return "unchanged", change, noise
}

// compareMain prints one row per workload and end-to-end metric, and one
// per workload for failures, and reports whether any row is worse.
func compareMain(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec struct {
		EndToEnd []boundSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := loadSide(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadSide(bPath)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-19s %-17s %30s %30s %8s %7s %6s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "spread", "bound", "verdict")
	for _, wl := range sortedKeys(a.values) {
		if b.values[wl] == nil {
			fmt.Fprintf(w, "%-19s missing from B\n", wl)
			continue
		}
		for _, m := range spec.EndToEnd {
			av, bv := a.values[wl][m.Name], b.values[wl][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-19s %-17s missing\n", wl, m.Name)
				continue
			}
			v, change, noise := verdict(av, bv, m.Better, m.Bound)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-19s %-17s %30s %30s %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				wl, m.Name, quartileText(av), quartileText(bv), 100*change, 100*noise, 100*m.Bound, v)
		}
		v := "unchanged"
		if b.failed[wl] > a.failed[wl] {
			v, anyWorse = "worse", true
		}
		fmt.Fprintf(w, "%-19s %-17s %30d %30d %8s %7s %6s  %s\n", wl, "failed", a.failed[wl], b.failed[wl], "", "", "", v)
	}
	return anyWorse, nil
}

func quartileText(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
