// Command rmqbench is the repository's end-to-end benchmark. It runs one
// workload per invocation against an in-process rmqd (internal/server)
// on loopback, or against the library directly, checks every answer,
// and prints one JSON result line last:
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 45 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload runs with a traced optimizer and the
// result carries the per-layer metrics instead. See README.md for the
// workloads, the metrics and the layer-to-end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// metricDef describes one reported metric. The tables below must match
// BENCHMARK.json (main_test.go checks it).
type metricDef struct {
	Name, Unit, Better string
}

var endToEnd = []metricDef{
	{"cpu_p50_ms", "ms", "lower"},
	{"cpu_tail_ms", "ms", "lower"},
	{"iters_per_cpu_s", "1/s", "higher"},
	{"frontier_eps", "log10", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"iters_per_s", "1/s", "higher"},
	{"core.step_us_p50", "us", "lower"},
	{"core.step_us_p99", "us", "lower"},
	{"core.climb_moves_p50", "count", "lower"},
	{"core.steps_per_op", "count", "lower"},
	{"core.step_share", "ratio", "lower"},
	{"core.init_ms_p50", "ms", "lower"},
	{"core.frontier_est_us_per_step", "us", "lower"},
	{"climb.us_per_call", "us", "lower"},
	{"randplan.us_per_call", "us", "lower"},
	{"cache.sets_end", "count", "lower"},
	{"cache.plans_end", "count", "lower"},
	{"cache.bytes_mb_end", "MB", "lower"},
	{"cache.sets_per_op", "count", "lower"},
	{"cache.shed_events", "count", "lower"},
	{"cache.effective_retention", "ratio", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"runtime.gc_count", "count", "lower"},
	{"runtime.heap_mb_peak", "MB", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"snapshot.restore_ms", "ms", "lower"},
	{"snapshot.bytes", "bytes", "lower"},
	{"catalog.register_ms_p50", "ms", "lower"},
	{"server.self_ms_p50", "ms", "lower"},
	{"response.bytes_p50", "bytes", "lower"},
	{"server.reject_ratio", "ratio", "lower"},
	{"restore_p50_ms", "ms", "lower"},
	{"error_rate", "ratio", "lower"},
	{"loadgen.late_ms_max", "ms", "lower"},
	{"loadgen.conn_wait_ms_p99", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"host.steal_pct", "%", "lower"},
}

// options are the command-line arguments every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

// report is what a workload measured: every metric it could compute,
// by name, plus the operation tally.
type report struct {
	attempted, failed int
	// failures holds the first few check failures for the log.
	failures []string
	values   map[string]float64
	// tailNote says which percentile cpu_tail_ms and latency_tail_ms
	// are and of how many samples.
	tailNote string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// fail records one failed operation or check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(options) (*report, error){
	"serve-warm":  serveWarm,
	"paper-large": paperLarge,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "serve-warm or paper-large")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 45, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced optimizer and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "rmqbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	fmt.Printf("rmqbench %s seed=%d seconds=%v trace=%d GOMAXPROCS=%d %s\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version())
	rep, err := run(options{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmqbench:", err)
		os.Exit(1)
	}
	os.Exit(emit(rep, *trace == 1))
}

// emit prints every measured value by name and unit, then the result
// line, and returns the exit code: non-zero when any check failed.
func emit(rep *report, traced bool) int {
	rep.values["error_rate"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	units := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(rep.values))
	for n := range rep.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, rep.values[n], units[n])
	}
	if rep.tailNote != "" {
		fmt.Printf("  cpu_tail_ms and latency_tail_ms are %s\n", rep.tailNote)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "rmqbench: workload did not measure %s\n", d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmqbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct || res.Attempted == 0 {
		return 1
	}
	return 0
}
