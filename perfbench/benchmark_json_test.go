package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root must name exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: listed %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d listed, program reports %d", kind, len(listed), len(defs))
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: listed %s (%s), program %s (%s)", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
