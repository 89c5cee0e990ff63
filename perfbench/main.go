// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the library and the serving tier only through their public
// entry points (prometheus.Init, Writable, Ctx.Delegate, the internal/apps
// runners, serve.New and Server.Handler) and times each layer from outside,
// with wrappers around serve.Backend, durable.FS and the HTTP handler.
//
// Run it from the repository root through run.py, which builds it:
//
//	python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, measured untraced; with --trace 1 they are the per-layer
// ones, measured in a traced run, plus the tracing overhead, which is the
// difference between an untraced and a traced half of the same run. Lines
// before it give every metric by name and unit, percentiles with their
// sample counts and maxima, the host record and the reconciliation checks.
// The exit code is 1 when any output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric. The tables below are the metric
// contract; BENCHMARK.json lists the same names and units (a test checks).
type metricSpec struct {
	name, unit, better string
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricSpec{
	{"core.isolation_s", "s", "lower"},
	{"core.reduction_s", "s", "lower"},
	{"core.aggregation_s", "s", "lower"},
	{"core.delegate_busy_frac", "ratio", "higher"},
	{"core.delegate_ns", "ns", "lower"},
	{"core.barrier_us", "us", "lower"},
	{"core.reclaim_us", "us", "lower"},
	{"core.drain_batch", "ops", "higher"},
	{"core.spill_frac", "ratio", "lower"},
	{"core.recursive_s", "s", "lower"},
	{"core.delegations", "count", "lower"},
	{"core.syncs", "count", "lower"},
	{"core.epochs", "count", "lower"},
	{"core.steals", "count", "higher"},
	{"apps.barneshut_s", "s", "lower"},
	{"apps.blackscholes_s", "s", "lower"},
	{"apps.dedup_s", "s", "lower"},
	{"apps.freqmine_s", "s", "lower"},
	{"apps.histogram_s", "s", "lower"},
	{"apps.kmeans_s", "s", "lower"},
	{"apps.reverseindex_s", "s", "lower"},
	{"apps.wordcount_s", "s", "lower"},
	{"apps.wall_s", "s", "lower"},
	{"apps.inline_s", "s", "lower"},
	{"apps.speedup", "x", "higher"},
	{"serve.handler_p50_us", "us", "lower"},
	{"serve.handler_p99_us", "us", "lower"},
	{"serve.backend_p50_us", "us", "lower"},
	{"serve.backend_p99_us", "us", "lower"},
	{"serve.queue_p50_us", "us", "lower"},
	{"serve.queue_p99_us", "us", "lower"},
	{"serve.calm_p99_ms", "ms", "lower"},
	{"serve.slow_p50_ms", "ms", "lower"},
	{"serve.epochs", "count", "lower"},
	{"serve.steals", "count", "higher"},
	{"serve.rejects", "count", "lower"},
	{"http.hop_p50_us", "us", "lower"},
	{"http.hop_p99_us", "us", "lower"},
	{"durable.append_p50_us", "us", "lower"},
	{"durable.append_p99_us", "us", "lower"},
	{"durable.appends_per_req", "ratio", "lower"},
	{"durable.sync_p50_ms", "ms", "lower"},
	{"durable.syncs", "count", "lower"},
	{"durable.snapshot_ms", "ms", "lower"},
	{"durable.snapshot_bytes", "B", "lower"},
	{"durable.snapshot_skipped", "count", "lower"},
	{"go.cpu_us_per_op", "us", "lower"},
	{"go.alloc_bytes_per_op", "B", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"gen.late_p50_ms", "ms", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"gen.achieved_over_offered", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// runCfg is what a workload receives: everything it generates derives
// from seed.
type runCfg struct {
	seed    uint64
	seconds float64
	traced  bool
	// repeatSetup asks for setup to be repeated so its median is steady;
	// each workload picks the count from its setup's cost.
	repeatSetup bool
	tmp         string
}

// workload runs one measurement and fills rep.
type workloadFunc func(cfg runCfg, rep *report) error

var workloads = map[string]workloadFunc{
	"apps":        runApps,
	"fine":        runFine,
	"serve":       runServe,
	"serve-spike": runSpike,
}

// report collects one run's metrics, detail lines and check failures.
type report struct {
	metrics   map[string]float64
	lines     []string
	config    map[string]any
	attempted int64
	failed    int64
	failures  []string
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, config: map[string]any{}}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// latency records a detail line with the percentiles, maximum and sample
// count of one latency distribution.
func (r *report) latency(name, unit string, s summary) {
	r.linef("%s p50=%.4g p90=%.4g p99=%.4g p99.9=%.4g max=%.4g %s n=%d",
		name, s.q(0.5), s.q(0.9), s.q(0.99), s.q(0.999), s.max(), unit, s.n())
}

// fail counts one failed output check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return len(r.failures) == 0 && r.failed == 0 }

// setupTimer times repeated setups; the median is setup_s.
type setupTimer struct{ times []float64 }

// reps is how many times to set up: n when repeating, else once.
func (c runCfg) reps(n int) int {
	if c.repeatSetup {
		return n
	}
	return 1
}

func (t *setupTimer) time(f func() error) error {
	start := time.Now()
	err := f()
	t.times = append(t.times, time.Since(start).Seconds())
	return err
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// overhead is the share of the untraced run's throughput that tracing
// cost. On the fixed-rate spike workload, where throughput is set by the
// generator, it is the relative rise of the median latency instead.
func overhead(name string, untraced, traced *report) float64 {
	if name == "serve-spike" {
		return ratio(traced.metrics["p50_ms"]-untraced.metrics["p50_ms"], untraced.metrics["p50_ms"])
	}
	return ratio(untraced.metrics["ops_per_s"]-traced.metrics["ops_per_s"], untraced.metrics["ops_per_s"])
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload: apps, fine, serve or serve-spike")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload apps|fine|serve|serve-spike --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	tmp, err := os.MkdirTemp(filepath.Join(out, "tmp"), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	defer os.RemoveAll(tmp)

	host := readHost()
	cfg := runCfg{seed: *seed, seconds: *seconds, tmp: tmp, repeatSetup: true}
	rep := newReport()
	if *trace == 0 {
		err = w(cfg, rep)
		rep.set("peak_rss_mb", peakRSSMB())
	} else {
		half := cfg
		half.seconds /= 2
		half.repeatSetup = false
		untraced := newReport()
		if err = w(half, untraced); err == nil {
			half.traced = true
			err = w(half, rep)
		}
		rep.attempted += untraced.attempted
		rep.failed += untraced.failed
		rep.failures = append(untraced.failures, rep.failures...)
		rep.set("trace.overhead_frac", overhead(*name, untraced, rep))
		rep.linef("trace.overhead_frac %.4f ratio (untraced half vs traced half)", rep.metrics["trace.overhead_frac"])
	}
	if err != nil {
		// A workload that could not run prints no result.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.RemoveAll(tmp)
		os.Exit(1)
	}
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
	}
	emit(*name, *seed, *trace, host, rep, specs, out)
	if !rep.correct() {
		os.RemoveAll(tmp)
		os.Exit(1)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// record is the full result of one run, kept for the compare step.
type record struct {
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
	Trace    int                   `json:"trace"`
	Host     hostRecord            `json:"host"`
	Config   map[string]any        `json:"config"`
	Metrics  map[string]jsonMetric `json:"metrics"`
	Details  []string              `json:"details"`
	Failures []string              `json:"failures,omitempty"`
}

func emit(name string, seed uint64, trace int, host hostRecord, rep *report, specs []metricSpec, out string) {
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q\n", host.NProc, host.GOMAXPROCS, host.Go, host.CPU)
	keys := make([]string, 0, len(rep.config))
	for k := range rep.config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("config: %s=%v\n", k, rep.config[k])
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, f := range rep.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	fmt.Printf("fail_frac %.6f ratio (failed %d of %d attempted)\n",
		ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	res := result{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	for _, s := range specs {
		v := rep.metrics[s.name]
		res.Metrics[s.name] = jsonMetric{Value: v, Unit: s.unit}
		fmt.Printf("metric: %s %.6g %s\n", s.name, v, s.unit)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	rec := record{Workload: name, Seed: seed, Trace: trace, Host: host, Config: rep.config,
		Metrics: res.Metrics, Details: rep.lines, Failures: rep.failures}
	if b, err := json.MarshalIndent(rec, "", "  "); err == nil {
		dir := filepath.Join(out, "results")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace))
		if err := os.MkdirAll(dir, 0o755); err == nil && os.WriteFile(path, b, 0o644) == nil {
			fmt.Println("record:", path)
		}
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
}

// hostRecord identifies the machine a result came from. Results from hosts
// with a different nproc or GOMAXPROCS are not compared.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

func readHost() hostRecord {
	h := hostRecord{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
