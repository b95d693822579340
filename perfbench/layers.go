package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"rmq"
	"rmq/internal/core"
	"rmq/internal/opt"
	"rmq/internal/randplan"
)

// tracedOp is one measured optimize call in tracer time: the span the
// core spans with the same key nest inside.
type tracedOp struct {
	key        uint64
	start, end int64
}

// coreLayers derives the core.*, server.self and trace.overhead metrics
// from the optimize calls and the spans recorded under their keys. It
// returns the mean step time in µs for the frontier estimate. An op
// whose key recorded no spans is a tracing failure.
func coreLayers(rep *report, ops []tracedOp, spans map[uint64][]span, perSpan time.Duration) float64 {
	var steps, moves, inits, self []float64
	var stepNS, opNS, nspans int64
	for _, op := range ops {
		children := spans[op.key]
		if len(children) == 0 {
			rep.fail("traced op %x recorded no spans", op.key)
			continue
		}
		nspans += int64(len(children))
		for _, c := range children {
			switch c.kind {
			case kindInit:
				inits = append(inits, float64(c.dur())/1e6)
			case kindStep:
				stepNS += c.dur()
				steps = append(steps, float64(c.dur())/1e3)
				moves = append(moves, float64(c.moves))
			}
		}
		parent := span{start: op.start, end: op.end}
		opNS += parent.dur()
		self = append(self, float64(selfTime(parent, children))/1e6)
	}
	v := rep.values
	v["core.step_us_p50"] = median(steps)
	v["core.step_us_p99"] = quantile(steps, 0.99)
	v["core.climb_moves_p50"] = median(moves)
	v["core.steps_per_op"] = float64(len(steps)) / float64(max(len(ops), 1))
	v["core.init_ms_p50"] = median(inits)
	v["server.self_ms_p50"] = median(self)
	if opNS > 0 {
		v["core.step_share"] = float64(stepNS) / float64(opNS)
		v["trace.overhead_pct"] = 100 * float64(nspans*int64(perSpan)) / float64(opNS)
	}
	return sum(steps) / float64(max(len(steps), 1))
}

// probeClimb times the climbing and random-plan layers in isolation, on
// a fresh model for the catalog warmed by `calls` untimed iterations'
// worth of random plans and climbs, then timed over the same number of
// calls in three rounds; it returns the median round's mean µs per call
// of Climber.Climb and randplan.Random.
func probeClimb(cat *rmq.Catalog, metrics []rmq.Metric, calls int, seed uint64) (climbUS, randUS float64) {
	p := opt.NewProblem(cat, metrics)
	climber := core.NewClimber(p.Model, core.ClimbConfig{})
	rng := rand.New(rand.NewPCG(seed, 0x70726f6265))
	for i := 0; i < calls; i++ {
		climber.Climb(randplan.Random(p.Model, p.Query, rng))
	}
	var climbs, rands []float64
	for r := 0; r < 3; r++ {
		var climbNS, randNS int64
		for i := 0; i < calls; i++ {
			t0 := time.Now()
			pl := randplan.Random(p.Model, p.Query, rng)
			t1 := time.Now()
			climber.Climb(pl)
			climbNS += int64(time.Since(t1))
			randNS += int64(t1.Sub(t0))
		}
		climbs = append(climbs, float64(climbNS)/1e3/float64(calls))
		rands = append(rands, float64(randNS)/1e3/float64(calls))
	}
	return median(climbs), median(rands)
}

// runtimeSnap is the runtime's cumulative GC and allocation counters.
type runtimeSnap struct {
	gcCPU, totalCPU, idleCPU float64 // seconds
	gcCycles, allocBytes     uint64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnap{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		idleCPU:    s[2].Value.Float64(),
		gcCycles:   s[3].Value.Uint64(),
		allocBytes: s[4].Value.Uint64(),
	}
}

// runtimeLayers reports GC share of the CPU the process used, GC cycles
// and allocation per op between two snapshots.
func runtimeLayers(rep *report, before, after runtimeSnap, ops int, heapPeak uint64) {
	used := (after.totalCPU - after.idleCPU) - (before.totalCPU - before.idleCPU)
	v := rep.values
	v["runtime.gc_cpu_fraction"] = 0
	if used > 0 {
		v["runtime.gc_cpu_fraction"] = (after.gcCPU - before.gcCPU) / used
	}
	v["runtime.gc_count"] = float64(after.gcCycles - before.gcCycles)
	v["runtime.alloc_mb_per_op"] = float64(after.allocBytes-before.allocBytes) / (1 << 20) / float64(max(ops, 1))
	v["runtime.heap_mb_peak"] = float64(heapPeak) / (1 << 20)
}

// hostSnap is the machine's cumulative CPU time in clock ticks, from
// /proc/stat: all of it, and the part the hypervisor gave to other
// guests while this one wanted to run.
type hostSnap struct {
	steal, total uint64
}

func readHost() (hostSnap, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostSnap{}, err
	}
	return parseHostCPU(string(data))
}

// parseHostCPU reads the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq and steal ticks (guest time is
// already part of user).
func parseHostCPU(stat string) (hostSnap, error) {
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		var s hostSnap
		for i, field := range f[1:9] {
			n, err := strconv.ParseUint(field, 10, 64)
			if err != nil {
				return hostSnap{}, fmt.Errorf("parsing /proc/stat cpu line %q: %w", line, err)
			}
			s.total += n
			if i == 7 {
				s.steal = n
			}
		}
		return s, nil
	}
	return hostSnap{}, fmt.Errorf("no cpu line in /proc/stat")
}

// hostLayers reports the share of the machine's CPU time the hypervisor
// stole during the load. Every timed metric stretches with it, so it
// says whether a slow run was the program or the machine.
func hostLayers(rep *report, before, after hostSnap) {
	rep.values["host.steal_pct"] = 0
	if after.total > before.total {
		rep.values["host.steal_pct"] = 100 * float64(after.steal-before.steal) / float64(after.total-before.total)
	}
}

// heapSampler tracks the peak live-heap size while a workload runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// done stops the sampler and returns the peak it saw.
func (h *heapSampler) done() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
