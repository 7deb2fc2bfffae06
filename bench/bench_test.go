package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestSmoke keeps the harness honest: every workload runs at 1/50 scale,
// untraced and traced, with its output checks on, and must emit exactly the
// metrics BENCHMARK.json names, each finite. Pinning to one thread and the
// steady-state check serve a measurement, not a test, and stay off.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range manifest.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
		}
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(config{
				workload: w.Name, seed: 1, seconds: 0.1, trace: trace,
				scale: 50, setups: 1, smoke: true, outDir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: %d of %d ops failed, failed checks: %v", w.Name, trace, res.Failed, res.Attempted, res.failures)
			}
			want := manifest.EndToEnd
			if trace {
				want = manifest.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}
