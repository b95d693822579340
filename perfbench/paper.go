package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"rmq"
	"rmq/internal/cost"
	"rmq/internal/quality"
	"rmq/perfbench/spec"
)

const (
	// largeIterations is the paper-large budget per op: about 0.25 s on
	// a 100-table star, so a 45 s run collects about 180 ops. Shorter ops
	// made the tail follow the machine's stalls: at 50 iterations a
	// stalled op read up to 1.6 times the median, at 100 up to 1.3.
	largeIterations = 100
	// setupRounds is how often a run repeats its set-up; setup_s is the
	// median of their CPU times.
	setupRounds = 5
	// determinismOps is how many paper-large ops a traced run repeats
	// untraced to show the traced optimizer returns identical frontiers.
	determinismOps = 3
)

// largeCatalog is one paper-large catalog with what scoring it needs.
type largeCatalog struct {
	cat *rmq.Catalog
	ref []cost.Vector
}

// largeOp is one paper-large operation.
type largeOp struct {
	cat                  int
	seed                 uint64
	f                    *rmq.Frontier
	err                  error
	begin, optStart, end int64 // tracer time
	// cpu is the process CPU time of the whole op, optCPU of its
	// Optimize call.
	cpu, optCPU time.Duration
}

// paperLarge runs back-to-back library optimizations of the paper's
// largest queries: no server, no shared store, one worker each.
func paperLarge(o options) (*report, error) {
	refs, err := spec.LoadReferences()
	if err != nil {
		return nil, err
	}
	metrics, err := spec.ParseMetrics(spec.AllThree)
	if err != nil {
		return nil, err
	}
	// Set-up: build the catalogs, bind their references (refusing on a
	// fingerprint mismatch) and run one untimed op per catalog so the
	// heap and the code paths are warm before timing.
	var cats []largeCatalog
	run := func(c int, seed uint64, algo rmq.Algorithm) largeOp {
		op := largeOp{cat: c, seed: seed, begin: tracing.now()}
		cpu0 := processCPU()
		sess, err := rmq.NewSession(cats[c].cat)
		op.optStart = tracing.now()
		cpu1 := processCPU()
		if err == nil {
			op.f, err = sess.Optimize(context.Background(), rmq.WithMetrics(metrics...), rmq.WithParallelism(1),
				rmq.WithMaxIterations(largeIterations), rmq.WithSeed(seed), rmq.WithAlgorithm(algo))
		}
		op.err = err
		cpu2 := processCPU()
		op.end = tracing.now()
		op.cpu, op.optCPU = cpu2-cpu0, cpu2-cpu1
		return op
	}
	var setups []float64
	for r := 0; r < setupRounds; r++ {
		runtime.GC() // each round starts from a collected heap
		begin := processCPU()
		cats = cats[:0]
		for _, sc := range spec.LargeCatalogs {
			ref, err := refs.Lookup(sc, spec.AllThree)
			if err != nil {
				return nil, err
			}
			cats = append(cats, largeCatalog{cat: sc.Generate(), ref: ref})
		}
		for c := range cats {
			if op := run(c, uint64(r), rmq.AlgoRMQ); op.err != nil {
				return nil, fmt.Errorf("warm-up: %w", op.err)
			}
		}
		setups = append(setups, (processCPU() - begin).Seconds())
	}

	algo := rmq.AlgoRMQ
	if o.trace {
		algo = tracedAlgorithm
	}
	rng := newRand(o.seed, 1)
	runtime.GC() // the load starts from a collected heap
	var heap *heapSampler
	if o.trace {
		heap = startHeapSampler()
	}
	before := readRuntime()
	hostBefore, err := readHost()
	if err != nil {
		return nil, err
	}
	// Each op is checked as soon as it ends, between two ops' timings,
	// and only the first ones keep their frontier (for the determinism
	// check), so the benchmark's own bookkeeping stays out of
	// peak_rss_mb. The checks' allocations are counted and taken out of
	// runtime.alloc_mb_per_op; the collections of their garbage happen
	// during later ops and stay in the timings and the GC figures.
	rep := newReport()
	var ops []largeOp
	var registers []float64
	var m opSamples
	var checkAlloc uint64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		op := run(rng.IntN(len(cats)), rng.Uint64(), algo)
		m.latMS = append(m.latMS, float64(op.end-op.begin)/1e6)
		m.cpuMS = append(m.cpuMS, ms(op.cpu))
		registers = append(registers, float64(op.optStart-op.begin)/1e6)
		m.optWall += time.Duration(op.end - op.optStart)
		m.optCPU += op.optCPU
		allocBefore := readRuntime().allocBytes
		e, err := checkLarge(&cats[op.cat], op, len(metrics))
		checkAlloc += readRuntime().allocBytes - allocBefore
		if err != nil {
			rep.fail("paper-large seed %x: %v", op.seed, err)
		} else {
			m.eps = append(m.eps, e)
			m.iters += op.f.Iterations
		}
		if len(ops) >= determinismOps {
			op.f = nil
		}
		ops = append(ops, op)
	}
	after := readRuntime()
	after.allocBytes -= checkAlloc
	hostAfter, err := readHost()
	if err != nil {
		return nil, err
	}
	var heapPeak uint64
	if heap != nil {
		heapPeak = heap.done()
	}
	rep.attempted = len(ops)
	m.setups = setups
	if err := endToEndMetrics(rep, &m); err != nil {
		return nil, err
	}
	hostLayers(rep, hostBefore, hostAfter)
	if !o.trace {
		return rep, nil
	}

	// The traced optimizer must observe, not steer: the first ops,
	// repeated untraced with the same seeds, return identical frontiers.
	for _, op := range ops[:min(determinismOps, len(ops))] {
		if op.err != nil || op.f == nil {
			continue
		}
		again := run(op.cat, op.seed, rmq.AlgoRMQ)
		if again.err != nil || !sameFrontier(op.f, again.f) {
			rep.fail("paper-large seed %x: traced and untraced frontiers differ (err %v)", op.seed, again.err)
		}
	}
	traced := make([]tracedOp, len(ops))
	for i, op := range ops {
		traced[i] = tracedOp{key: op.seed, start: op.optStart, end: op.end}
	}
	spans := tracing.byKey()
	meanStep := coreLayers(rep, traced, spans, spanCost())
	// The private plan cache of each op, after its last step.
	var sets []float64
	v := rep.values
	for _, op := range ops {
		ss := spans[op.seed]
		for i := len(ss) - 1; i >= 0; i-- {
			if ss[i].kind == kindStep {
				sets = append(sets, float64(ss[i].sets))
				v["cache.sets_end"], v["cache.plans_end"] = float64(ss[i].sets), float64(ss[i].plans)
				break
			}
		}
	}
	v["cache.sets_per_op"] = sum(sets) / float64(max(len(sets), 1))
	v["cache.bytes_mb_end"], v["cache.shed_events"], v["cache.effective_retention"] = 0, 0, 0
	runtimeLayers(rep, before, after, len(ops), heapPeak)
	climbUS, randUS := probeClimb(cats[0].cat, metrics, largeIterations, o.seed)
	v["climb.us_per_call"], v["randplan.us_per_call"] = climbUS, randUS
	v["core.frontier_est_us_per_step"] = meanStep - climbUS - randUS
	v["catalog.register_ms_p50"] = median(registers)
	for _, n := range []string{"snapshot.restore_ms", "snapshot.bytes", "response.bytes_p50",
		"server.reject_ratio", "restore_p50_ms", "loadgen.late_ms_max", "loadgen.conn_wait_ms_p99"} {
		v[n] = 0
	}
	return rep, nil
}

// checkLarge checks one paper-large op's answer and returns its ε.
func checkLarge(c *largeCatalog, op largeOp, dim int) (float64, error) {
	if op.err != nil {
		return 0, op.err
	}
	if op.f.Iterations != largeIterations {
		return 0, fmt.Errorf("%d iterations, budget %d", op.f.Iterations, largeIterations)
	}
	vecs, err := checkFrontier(libraryCosts(op.f), dim)
	if err != nil {
		return 0, err
	}
	if err := checkPlans(c.cat, op.f); err != nil {
		return 0, err
	}
	return quality.Epsilon(vecs, c.ref), nil
}

// opSamples is what a workload measured of its ops for the end-to-end
// metrics.
type opSamples struct {
	// latMS is each op's wall time from due, cpuMS its process CPU time.
	latMS, cpuMS []float64
	iters        int
	// optWall and optCPU sum the time of the optimize calls.
	optWall, optCPU time.Duration
	eps             []float64
	// setups is the process CPU time of each set-up round in seconds.
	setups []float64
}

// endToEndMetrics fills the metrics every workload reports: the CPU
// time of the primary class's ops, iterations per CPU second of
// optimizing, frontier quality against the references, peak RSS and
// set-up CPU time. The same ops' wall-clock figures (latency from due,
// iterations per second) are filled too, under their own names.
//
// The gated times are CPU times because this benchmark runs on a shared
// host whose hypervisor at times takes a large share of the CPU for
// minutes on end: identical work then runs up to 40% slower by the wall
// clock, and no run length that fits the time budget averages such a
// spell out. The process CPU clock leaves stolen time out.
//
// frontier_eps is the mean of log10 ε, the log of the geometric-mean ε:
// on these catalogs costs span dozens of decades and per-op ε ranges
// over decades between seeds, and warm requests often return the same
// few frontiers, so the median of ε jumps between those few values from
// seed to seed while the mean of its logarithm repeats.
func endToEndMetrics(rep *report, m *opSamples) error {
	cpuTail, note, err := tail(m.cpuMS)
	if err != nil {
		return err
	}
	latTail, _, err := tail(m.latMS)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	v := rep.values
	v["cpu_p50_ms"] = median(m.cpuMS)
	v["cpu_tail_ms"] = cpuTail
	v["latency_p50_ms"] = median(m.latMS)
	v["latency_tail_ms"] = latTail
	rep.tailNote = note
	v["iters_per_cpu_s"] = float64(m.iters) / m.optCPU.Seconds()
	v["iters_per_s"] = float64(m.iters) / m.optWall.Seconds()
	logEps := 0.0
	for _, e := range m.eps {
		logEps += math.Log10(e)
	}
	v["frontier_eps"] = logEps / float64(max(len(m.eps), 1))
	v["peak_rss_mb"] = rss
	v["setup_s"] = median(m.setups)
	return nil
}
