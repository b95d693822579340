package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"rmq"
	"rmq/perfbench/spec"
)

func TestScheduleIsReproducible(t *testing.T) {
	const n, span = 500, 20 * time.Second
	a := poissonSchedule(newRand(42, 0), n, span)
	b := poissonSchedule(newRand(42, 0), n, span)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if slices.Equal(a, poissonSchedule(newRand(43, 0), n, span)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if slices.Equal(a, poissonSchedule(newRand(42, 1), n, span)) {
		t.Fatal("different streams gave the same schedule")
	}
	if len(a) != n || !slices.IsSorted(a) || a[0] < 0 || a[n-1] >= span {
		t.Fatalf("schedule not %d sorted offsets in [0, %v): first %v last %v", n, span, a[0], a[n-1])
	}
	// Gaps of a Poisson process are exponential: mean ≈ standard deviation.
	var gaps []float64
	for i := 1; i < n; i++ {
		gaps = append(gaps, float64(a[i]-a[i-1]))
	}
	mean := sum(gaps) / float64(len(gaps))
	varSum := 0.0
	for _, g := range gaps {
		varSum += (g - mean) * (g - mean)
	}
	sd := math.Sqrt(varSum / float64(len(gaps)))
	if r := sd / mean; r < 0.8 || r > 1.2 {
		t.Fatalf("gap sd/mean = %.2f, want ≈ 1 for Poisson arrivals", r)
	}
}

func TestDistinctSeeds(t *testing.T) {
	s := distinctSeeds(7, 1000)
	if !slices.Equal(s, distinctSeeds(7, 1000)) {
		t.Fatal("seeds not reproducible")
	}
	seen := map[uint64]bool{}
	for _, x := range s {
		if seen[x] {
			t.Fatalf("seed %x repeated", x)
		}
		seen[x] = true
	}
}

func TestTailRankLeavesTenBeyond(t *testing.T) {
	for n := 0; n <= minBeyond; n++ {
		if _, _, err := tailRank(n); err == nil {
			t.Fatalf("tailRank(%d) accepted too few samples", n)
		}
	}
	for n := minBeyond + 1; n <= 3000; n++ {
		k, pct, err := tailRank(n)
		if err != nil {
			t.Fatal(err)
		}
		if beyond := n - 1 - k; beyond != minBeyond {
			t.Fatalf("n=%d: %d samples beyond rank %d, want exactly %d (the highest such rank)", n, beyond, k, minBeyond)
		}
		// pct is the nearest-rank percentile that selects index k.
		if got := int(math.Ceil(pct/100*float64(n)-1e-9)) - 1; got != k {
			t.Fatalf("n=%d: p%.4f selects rank %d, want %d", n, pct, got, k)
		}
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100 .. 1, unsorted
	}
	v, note, err := tail(samples)
	if err != nil || v != 90 {
		t.Fatalf("tail of 1..100 = %v (%s, %v), want 90", v, note, err)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	x := []float64{5, 1, 4, 2, 3}
	if m := median(x); m != 3 {
		t.Fatalf("median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median %v", m)
	}
	if q := quantile(x, 1); q != 5 {
		t.Fatalf("max %v", q)
	}
	if q := quantile(x, 0.2); q != 1 {
		t.Fatalf("p20 %v", q)
	}
	if median(nil) != 0 || quantile(nil, 0.5) != 0 {
		t.Fatal("empty samples must give 0")
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 100, end: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{start: 110, end: 120}, {start: 150, end: 170}}, 70},
		{"overlapping", []span{{start: 110, end: 140}, {start: 130, end: 160}}, 50},
		{"nested", []span{{start: 110, end: 190}, {start: 120, end: 130}}, 20},
		{"touching", []span{{start: 110, end: 120}, {start: 120, end: 130}}, 80},
		{"sticking out", []span{{start: 50, end: 120}, {start: 180, end: 250}}, 60},
		{"outside", []span{{start: 0, end: 100}, {start: 200, end: 300}}, 100},
		{"covering", []span{{start: 0, end: 300}}, 0},
		{"unsorted", []span{{start: 170, end: 180}, {start: 105, end: 115}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestHostSteal(t *testing.T) {
	before, err := parseHostCPU("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 50 0 25 400 5 0 2 18 3 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if before != (hostSnap{steal: 35, total: 1000}) {
		t.Fatalf("parsed %+v, want steal 35 of 1000 (guest ticks are part of user)", before)
	}
	after := hostSnap{steal: 55, total: 1200}
	rep := newReport()
	hostLayers(rep, before, after)
	if got := rep.values["host.steal_pct"]; got != 10 {
		t.Fatalf("steal %v%%, want 10%%", got)
	}
	if _, err := parseHostCPU("cpu0 1 2 3 4 5 6 7 8\n"); err == nil {
		t.Fatal("a stat without the aggregate cpu line parsed")
	}
}

func TestOpenLoopMeasuresFromDue(t *testing.T) {
	// Three arrivals 1 ms apart on one connection, each taking 30 ms:
	// the second and third wait for the connection, and their latency
	// counts that wait from their due time.
	const work = 30 * time.Millisecond
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	start := time.Now()
	timings := openLoop(start, due, func(int) { time.Sleep(work) })
	for i, tm := range timings {
		if tm.due != due[i] {
			t.Fatalf("op %d: due %v, want %v", i, tm.due, due[i])
		}
		if tm.latency() != tm.end-tm.due || tm.latency() < tm.end-tm.start {
			t.Fatalf("op %d: latency %v not measured from due", i, tm.latency())
		}
		if tm.start < tm.due {
			t.Fatalf("op %d started %v before it was due %v", i, tm.start, tm.due)
		}
	}
	if w := timings[2].connWait; w < 2*work-2*time.Millisecond {
		t.Fatalf("third op waited %v for the connection, want ≥ %v", w, 2*work-2*time.Millisecond)
	}
	if l := timings[2].latency(); l < 3*work-2*time.Millisecond {
		t.Fatalf("third op latency %v, want ≥ %v (its own work plus the queue ahead of it)", l, 3*work-2*time.Millisecond)
	}
	if timings[2].late != 0 || timings[0].connWait > time.Millisecond {
		t.Fatalf("an overdue op is waiting, not late: %+v", timings)
	}

	// A free connection sleeps until due; lateness is its overshoot.
	due = []time.Duration{20 * time.Millisecond}
	start = time.Now()
	tm := openLoop(start, due, func(int) {})[0]
	if tm.start < due[0] || tm.late != tm.start-due[0] || tm.connWait != 0 {
		t.Fatalf("on-time op: %+v", tm)
	}
}

func TestOpenLoopMeasuresProcessCPU(t *testing.T) {
	// A sleeping op uses next to no CPU; a spinning one its whole spin.
	const spin = 20 * time.Millisecond
	due := []time.Duration{0, 0}
	timings := openLoop(time.Now(), due, func(i int) {
		if i == 0 {
			time.Sleep(30 * time.Millisecond)
			return
		}
		for begin := processCPU(); processCPU()-begin < spin; {
		}
	})
	if c := timings[0].cpu; c < 0 || c > 10*time.Millisecond {
		t.Fatalf("sleeping op used %v of CPU", c)
	}
	if c := timings[1].cpu; c < spin {
		t.Fatalf("spinning op used %v of CPU, want ≥ %v", c, spin)
	}
}

func TestCheckFrontier(t *testing.T) {
	good := [][]float64{{1, 5}, {2, 3}, {4, 0}}
	if _, err := checkFrontier(good, 2); err != nil {
		t.Fatalf("valid frontier rejected: %v", err)
	}
	bad := map[string][][]float64{
		"empty":          nil,
		"dominated":      {{1, 5}, {2, 6}},
		"duplicate":      {{1, 5}, {1, 5}},
		"wrong dim":      {{1, 5, 3}},
		"negative":       {{1, -5}},
		"NaN":            {{1, math.NaN()}},
		"infinite":       {{1, math.Inf(1)}},
		"dominated late": {{3, 3}, {1, 9}, {2, 2}},
	}
	for name, costs := range bad {
		if _, err := checkFrontier(costs, 2); err == nil {
			t.Errorf("%s frontier accepted", name)
		}
	}
}

func TestTracedOptimizerObservesOnly(t *testing.T) {
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 14, Graph: rmq.Star}, 5)
	run := func(algo rmq.Algorithm) *rmq.Frontier {
		f, err := rmq.Optimize(context.Background(), cat, rmq.WithMaxIterations(30), rmq.WithSeed(99), rmq.WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	traced, plain := run(tracedAlgorithm), run(rmq.AlgoRMQ)
	if !sameFrontier(traced, plain) {
		t.Fatal("traced and untraced runs with one seed returned different frontiers")
	}
	if err := checkPlans(cat, plain); err != nil {
		t.Fatal(err)
	}
	steps := 0
	for _, s := range tracing.byKey()[99] {
		if s.kind == kindStep {
			steps++
		}
	}
	if steps != 30 {
		t.Fatalf("traced run recorded %d step spans, want 30", steps)
	}
}

func TestReferencesCoverEveryPair(t *testing.T) {
	refs, err := spec.LoadReferences()
	if err != nil {
		t.Fatal(err)
	}
	if err := refs.CheckAll(); err != nil {
		t.Fatal(err)
	}
	changed := spec.WarmCatalogs[0]
	changed.Seed = 999 // no workload uses this catalog
	if _, err := refs.Lookup(changed, spec.AllThree); err == nil {
		t.Fatal("a catalog with another fingerprint found a reference")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, benchmark reports %v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, benchmark reports %v", b.PerLayer, perLayer)
	}
}
