package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// baselineFile is the part of perfbench/BASELINE.json that compare reads:
// the host the baseline was recorded on and, per workload, the end-to-end
// metrics on each baseline seed.
type baselineFile struct {
	Host      hostRecord                  `json:"host"`
	Workloads map[string]baselineWorkload `json:"workloads"`
}

type baselineWorkload struct {
	Seeds map[string]map[string]float64 `json:"seeds"`
}

type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares one run's record with the baseline:
//
//	perfbench compare RESULT.json [BASELINE.json [BENCHMARK.json]]
//
// It refuses (exit 3) when the result was taken at another nproc or
// GOMAXPROCS than the baseline, and exits 1 when an end-to-end metric is
// worse than the baseline seed's value by more than its bound.
func compareMain(args []string) int {
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare RESULT.json [BASELINE.json [BENCHMARK.json]]")
		return 2
	}
	paths := []string{"perfbench/BASELINE.json", "BENCHMARK.json"}
	copy(paths, args[1:])
	var rec record
	var base baselineFile
	var bench benchmarkFile
	for _, f := range []struct {
		path string
		v    any
	}{{args[0], &rec}, {paths[0], &base}, {paths[1], &bench}} {
		b, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(b, f.v)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", f.path, err)
			return 2
		}
	}
	if err := sameTopology(rec.Host, base.Host); err != nil {
		fmt.Printf("refused: %v\n", err)
		return 3
	}
	w, ok := base.Workloads[rec.Workload]
	if !ok {
		fmt.Printf("refused: no baseline for workload %q\n", rec.Workload)
		return 3
	}
	seed := fmt.Sprint(rec.Seed)
	want, ok := w.Seeds[seed]
	if !ok {
		fmt.Printf("refused: no baseline for seed %s of %q\n", seed, rec.Workload)
		return 3
	}
	worse := 0
	for _, m := range bench.EndToEnd {
		got, ok := rec.Metrics[m.Name]
		if !ok {
			continue
		}
		change := ratio(got.Value-want[m.Name], want[m.Name])
		if m.Better == "higher" {
			change = -change
		}
		verdict := "ok"
		if change > m.Bound {
			verdict = "WORSE than bound"
			worse++
		}
		fmt.Printf("%-12s baseline %.6g now %.6g %s: %+.1f%% worse (bound %.0f%%) %s\n",
			m.Name, want[m.Name], got.Value, got.Unit, 100*change, 100*m.Bound, verdict)
	}
	if worse > 0 {
		return 1
	}
	return 0
}

// sameTopology reports why two host records may not be compared.
func sameTopology(a, b hostRecord) error {
	if a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS {
		return fmt.Errorf("result taken at nproc=%d GOMAXPROCS=%d, baseline at nproc=%d GOMAXPROCS=%d",
			a.NProc, a.GOMAXPROCS, b.NProc, b.GOMAXPROCS)
	}
	return nil
}
