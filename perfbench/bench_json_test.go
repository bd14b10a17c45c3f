package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metrics the program prints must be exactly the ones BENCHMARK.json
// declares, with the same units, or a run's result would be refused.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(e2eUnits) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the program prints %d", len(b.EndToEnd), len(e2eUnits))
	}
	for _, d := range b.EndToEnd {
		if u, ok := e2eUnits[d.Name]; !ok || u != d.Unit {
			t.Errorf("end-to-end %s [%s]: program prints unit %q (present %v)", d.Name, d.Unit, u, ok)
		}
	}
	want := map[string]string{}
	for _, l := range layerMetrics {
		if _, dup := want[l.name]; dup {
			t.Errorf("per-layer metric %s listed twice", l.name)
		}
		want[l.name] = l.unit
	}
	if len(b.PerLayer) != len(want) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the program prints %d", len(b.PerLayer), len(want))
	}
	for _, d := range b.PerLayer {
		if u, ok := want[d.Name]; !ok || u != d.Unit {
			t.Errorf("per-layer %s [%s]: program prints unit %q (present %v)", d.Name, d.Unit, u, ok)
		}
	}
}
