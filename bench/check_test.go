package main

import (
	"strings"
	"testing"
)

// TestContractMatchesHarness keeps BENCHMARK.json and the harness in step:
// the same workloads, the per-layer metrics the ladder reports with the same
// units, and a set-up metric among the end-to-end ones.
func TestContractMatchesHarness(t *testing.T) {
	c, err := loadContract("..")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(c.workloadNames(), ","), "stream_unique,stream_repeat,batch_repeat,dispatch_armed"; got != want {
		t.Errorf("workloads = %s, want %s", got, want)
	}
	for _, name := range c.workloadNames() {
		if _, ok := specByName(name); !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the harness does not know", name)
		}
	}
	if len(c.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the ladder reports %d", len(c.PerLayer), len(perLayerUnits))
	}
	for _, d := range c.PerLayer {
		if unit, ok := perLayerUnits[d.Name]; !ok || unit != d.Unit {
			t.Errorf("per-layer %s [%s]: the ladder has unit %q (known: %v)", d.Name, d.Unit, unit, ok)
		}
	}
	if len(c.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the harness reports %d", len(c.EndToEnd), len(endToEndUnits))
	}
	hasSetup := false
	for _, d := range c.EndToEnd {
		if unit, ok := endToEndUnits[d.Name]; !ok || unit != d.Unit {
			t.Errorf("end-to-end %s [%s]: the harness has unit %q (known: %v)", d.Name, d.Unit, unit, ok)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", c.RunSeconds)
	}
}

func TestCheckMetrics(t *testing.T) {
	c := &contract{EndToEnd: []metricDef{{Name: "a", Unit: "us"}, {Name: "b", Unit: "s"}}, PerLayer: []metricDef{{Name: "x", Unit: "ns"}}}
	ok := &result{Metrics: map[string]metric{"a": {1, "us"}, "b": {2, "s"}}}
	if err := c.checkMetrics(ok, false); err != nil {
		t.Errorf("matching metrics rejected: %v", err)
	}
	if err := c.checkMetrics(ok, true); err == nil {
		t.Error("end-to-end metrics accepted as the traced run's")
	}
	for name, res := range map[string]*result{
		"missing":    {Metrics: map[string]metric{"a": {1, "us"}, "c": {2, "s"}}},
		"wrong unit": {Metrics: map[string]metric{"a": {1, "ms"}, "b": {2, "s"}}},
		"extra":      {Metrics: map[string]metric{"a": {1, "us"}, "b": {2, "s"}, "c": {3, "s"}}},
	} {
		if err := c.checkMetrics(res, false); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
