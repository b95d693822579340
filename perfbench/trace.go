package main

import (
	"slices"
	"sync"
	"time"

	"rmq"
	"rmq/internal/core"
	"rmq/internal/opt"
)

// tracedAlgorithm is the name the traced optimizer registers under.
// Requests and library calls select it only in --trace 1 runs.
const tracedAlgorithm = "rmq-traced"

type spanKind uint8

const (
	kindInit  spanKind = iota // warm-start pull from the shared store
	kindStep                  // one RMQ iteration: random plan, climb, frontier approximation, publish
	kindMerge                 // frontier hand-off into the run's archive
)

// span is one timed call into the core optimizer, keyed to its request
// by the run seed (every benchmark request carries a distinct seed and
// runs one worker, whose seed is the run seed).
type span struct {
	key        uint64
	kind       spanKind
	start, end int64 // ns since the tracer's base
	// moves is the climb's path length; sets and plans the worker's plan
	// cache size after the step (step spans only).
	moves, sets, plans int32
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory; they are read when the workload ends.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byKey groups the recorded spans by request.
func (t *tracer) byKey() map[uint64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint64][]span)
	for _, s := range t.spans {
		out[s.key] = append(out[s.key], s)
	}
	return out
}

// spanCost estimates what recording one span costs: two clock reads and
// a locked append, timed on a throwaway tracer.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t.spans = make([]span, 0, n)
	begin := time.Now()
	for i := 0; i < n; i++ {
		s := t.now()
		t.record(span{key: uint64(i), start: s, end: t.now()})
	}
	return time.Since(begin) / n
}

// tracing is the process-wide tracer the registered algorithm records
// into; the algorithm registry is process-wide, so it has to be too.
var tracing = newTracer()

func init() {
	rmq.RegisterAlgorithm(tracedAlgorithm, func(s rmq.AlgorithmSpec) (rmq.Optimizer, error) {
		return &tracedRMQ{inner: core.New(core.Config{Shared: s.SharedCache}), t: tracing}, nil
	})
}

// tracedRMQ is the paper's optimizer, configured exactly as the "rmq"
// registration configures it, with every call timed from outside. It
// implements opt.DeltaFrontier like core.RMQ, so a run merges exactly as
// it does untraced; it observes and never steers.
type tracedRMQ struct {
	inner *core.RMQ
	t     *tracer
	key   uint64
}

var _ opt.DeltaFrontier = (*tracedRMQ)(nil)

func (a *tracedRMQ) Name() string { return a.inner.Name() }

func (a *tracedRMQ) Init(p *rmq.Problem, seed uint64) {
	a.key = seed
	s := a.t.now()
	a.inner.Init(p, seed)
	a.t.record(span{key: seed, kind: kindInit, start: s, end: a.t.now()})
}

func (a *tracedRMQ) Step() bool {
	s := a.t.now()
	more := a.inner.Step()
	e := a.t.now()
	st := a.inner.Stats()
	sp := span{key: a.key, kind: kindStep, start: s, end: e,
		sets: int32(st.CachedSets), plans: int32(st.CachedPlans)}
	if n := len(st.PathLengths); n > 0 {
		sp.moves = int32(st.PathLengths[n-1])
	}
	a.t.record(sp)
	return more
}

func (a *tracedRMQ) Frontier() []*rmq.Plan {
	s := a.t.now()
	f := a.inner.Frontier()
	a.t.record(span{key: a.key, kind: kindMerge, start: s, end: a.t.now()})
	return f
}

func (a *tracedRMQ) FrontierDelta(mark uint64) ([]*rmq.Plan, uint64) {
	s := a.t.now()
	f, m := a.inner.FrontierDelta(mark)
	a.t.record(span{key: a.key, kind: kindMerge, start: s, end: a.t.now()})
	return f, m
}

// selfTime is the parent span's duration minus the part of it that its
// children cover. Children may overlap each other or stick out of the
// parent; each instant of the parent is subtracted at most once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ s, e int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int {
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return 0
	})
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, v := range ivs {
		if v.s > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = v.s, v.e
		} else if v.e > curE {
			curE = v.e
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.dur() - covered
}
