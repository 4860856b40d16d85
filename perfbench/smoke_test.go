package main

import (
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke drives every workload briefly, untraced and traced, and checks
// that each run is correct and prints exactly the metrics BENCHMARK.json
// names, with its units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives all three workloads")
	}
	spec, err := loadBenchSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	checkDefs := func(kind string, declared []benchMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, benchmark emits %d", kind, len(declared), len(defs))
		}
		for i := range declared {
			if i < len(defs) && (declared[i].Name != defs[i].name || declared[i].Unit != defs[i].unit) {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], benchmark %s [%s]", kind, i, declared[i].Name, declared[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	checkDefs("end_to_end", spec.EndToEnd, endToEnd)
	checkDefs("per_layer", spec.PerLayer, perLayer)

	for _, w := range names {
		for _, traced := range []bool{false, true} {
			rec, err := run(options{workload: w, seed: 7, dur: 400 * time.Millisecond, trace: traced, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !rec.Correct || rec.Attempted < 1 || rec.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, rec.Correct, rec.Attempted, rec.Failed)
			}
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			if len(rec.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(rec.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := rec.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w, m.Name)
				}
			}
		}
	}
}
