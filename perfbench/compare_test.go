package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdictRules(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"within bound", steady, []float64{104, 105, 103, 104, 104}, "lower", "unchanged"},
		{"slower past bound", steady, []float64{120, 121, 119, 120, 120}, "lower", "worse"},
		{"faster past bound", steady, []float64{80, 81, 79, 80, 80}, "lower", "better"},
		{"higher is better", steady, []float64{80, 81, 79, 80, 80}, "higher", "worse"},
		{"noisy", []float64{60, 100, 140, 100, 80}, []float64{100, 100, 100, 100, 100}, "lower", "unresolved"},
		{"noisy but every run better", []float64{60, 100, 140, 100, 80}, []float64{50, 52, 51, 50, 50}, "lower", "better"},
		{"noisy and every run worse", []float64{60, 100, 140, 100, 80}, []float64{200, 210, 205, 200, 200}, "lower", "unresolved"},
	} {
		if got, _, _ := verdict(tc.a, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFlagsWorseAndFailures(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, lat float64, failed int64) string {
		path := filepath.Join(dir, name)
		for seed := int64(0); seed < 3; seed++ {
			res := &result{Correct: true, Attempted: 10, Failed: failed,
				Metrics: map[string]metric{"latency_p50_ms": {Value: lat + float64(seed)/100, Unit: "ms"}}}
			if err := appendRecord(path, record{Workload: "w", Seed: seed, Result: res}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 10, 0)
	for _, tc := range []struct {
		name      string
		b         string
		wantWorse bool
		wantText  string
	}{
		{"same", write("same.jsonl", 10, 0), false, "unchanged"},
		{"slower", write("slower.jsonl", 12, 0), true, "worse"},
		{"failing", write("failing.jsonl", 10, 1), true, "failed"},
	} {
		var out bytes.Buffer
		worse, err := compareMain(&out, spec, base, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.wantWorse || !strings.Contains(out.String(), tc.wantText) {
			t.Errorf("%s: worse=%v, output:\n%s", tc.name, worse, out.String())
		}
	}
}
