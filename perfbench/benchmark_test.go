package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares the metrics this program
// prints; the two must name the same metrics with the same units.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		specs []metricSpec
		got   []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, bench.EndToEnd}, {"per_layer", perLayer, bench.PerLayer}} {
		if len(c.got) != len(c.specs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", c.label, len(c.got), len(c.specs))
			continue
		}
		for i, s := range c.specs {
			if g := c.got[i]; g.Name != s.name || g.Unit != s.unit || g.Better != s.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.label, i, g, s)
			}
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}

// compare refuses a result from a host with another nproc or GOMAXPROCS
// instead of comparing it, and flags a metric worse than its bound.
func TestCompareRefusesOtherTopology(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	host := hostRecord{NProc: 2, GOMAXPROCS: 2}
	base := write("base.json", baselineFile{Host: host, Workloads: map[string]baselineWorkload{
		"fine": {Seeds: map[string]map[string]float64{"1": {"ops_per_s": 100}}},
	}})
	bench := write("bench.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "ops_per_s", "better": "higher", "bound": 0.2},
	}})
	result := func(h hostRecord, ops float64) string {
		return write("result.json", record{Workload: "fine", Seed: 1, Host: h,
			Metrics: map[string]jsonMetric{"ops_per_s": {Value: ops, Unit: "ops/s"}}})
	}
	for _, c := range []struct {
		host hostRecord
		ops  float64
		want int
	}{
		{host, 90, 0},
		{host, 70, 1},
		{hostRecord{NProc: 4, GOMAXPROCS: 2}, 100, 3},
		{hostRecord{NProc: 2, GOMAXPROCS: 1}, 100, 3},
	} {
		if got := compareMain([]string{result(c.host, c.ops), base, bench}); got != c.want {
			t.Errorf("host %+v ops %v: exit %d, want %d", c.host, c.ops, got, c.want)
		}
	}
}
