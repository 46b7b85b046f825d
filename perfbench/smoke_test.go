package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"bfbdd/internal/harness"
)

// tinySizes runs every workload in about a second.
func tinySizes(t *testing.T) sizes {
	t.Helper()
	ref, err := harness.Run(harness.Config{Circuit: "mult-6"})
	if err != nil {
		t.Fatal(err)
	}
	return sizes{
		buildCircuit: "mult-6",
		buildNodes:   ref.OutputNodes,
		serveCircuit: "mult-5",
		rwCircuit:    "mult-6",
		sessionVars:  8,
		evalRate:     200,
		evalBatch:    16,
		setups:       2,
		probeN:       1 << 10,
		probeReps:    5,
	}
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmokeEveryWorkload runs each workload untraced and traced at tiny
// scale and checks that it reports every metric BENCHMARK.json names,
// with its unit, that nothing failed, and that the traced layer times
// reconcile with the end-to-end time they split.
func TestSmokeEveryWorkload(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []namedUnit `json:"end_to_end"`
		PerLayer []namedUnit `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	sz := tinySizes(t)
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: wl.Name, seed: 7, window: 500 * time.Millisecond, trace: traced,
				workdir: t.TempDir(), sizes: sz}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", wl.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %q, BENCHMARK.json says %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end %s = %v", wl.Name, m.Name, got.Value)
				}
			}
			if !traced {
				continue
			}
			switch wl.Name {
			case "build-mult11":
				if u := res.Metrics["core.unaccounted_pct"].Value; math.Abs(u) > 25 {
					t.Errorf("Seq phases leave %.1f%% of the build unaccounted", u)
				}
			case "serve-apply-1c":
				if u := res.Metrics["server.unaccounted_pct"].Value; math.Abs(u) > 25 {
					t.Errorf("apply self times leave %.1f%% of the untraced p50 unaccounted", u)
				}
			}
		}
	}
}
