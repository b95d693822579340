package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"rmq/internal/cache"
	"rmq/internal/costmodel"
	"rmq/internal/plan"
	"rmq/internal/randplan"
	"rmq/internal/tableset"
)

// TestDefaultAlphaTableBitIdentical pins the precomputed α schedule
// table to the literal formula 25 · 0.99^⌊i/25⌋ floored at 1 — not just
// close, bit-identical.
func TestDefaultAlphaTableBitIdentical(t *testing.T) {
	formula := func(i int) float64 {
		a := 25 * math.Pow(0.99, math.Floor(float64(i)/25))
		if a < 1 {
			return 1
		}
		return a
	}
	// Dense coverage over the live part of the schedule, sparse beyond
	// the table, plus the out-of-domain cold path.
	for i := 0; i <= 25*(defaultAlphaLevels+10); i++ {
		if got, want := DefaultAlpha(i), formula(i); got != want {
			t.Fatalf("DefaultAlpha(%d) = %v, want %v (formula)", i, got, want)
		}
	}
	for _, i := range []int{1 << 20, 1 << 30, -1, -25, -26} {
		if got, want := DefaultAlpha(i), formula(i); got != want {
			t.Fatalf("DefaultAlpha(%d) = %v, want %v (formula)", i, got, want)
		}
	}
}

// frontierTrace flattens a frontier into comparable (output, cost)
// tuples, preserving order.
func frontierTrace(plans []*plan.Plan) []float64 {
	var out []float64
	for _, p := range plans {
		out = append(out, float64(p.Output))
		for i := 0; i < p.Cost.Dim(); i++ {
			out = append(out, p.Cost.At(i))
		}
	}
	return out
}

// TestIncrementalRecombinationMatchesFull is the end-to-end differential
// test of incremental recombination: RMQ trajectories with and without
// it must be bit-identical — same root frontier (plans and order), same
// cache size — because incremental visits skip only provably no-op pair
// offers. TestFrontiersMatchPaperOracle pins the full path itself to
// Algorithm 3.
func TestIncrementalRecombinationMatchesFull(t *testing.T) {
	configs := map[string]Config{
		"incremental": {},
		"full":        {DisableIncremental: true},
	}
	type result struct {
		trace []float64
		sets  int
		plans int
	}
	results := make(map[string]result)
	for name, cfg := range configs {
		p := testProblem(t, 14, 42)
		r := New(cfg)
		r.Init(p, 7)
		for i := 0; i < 80; i++ {
			r.Step()
		}
		results[name] = result{
			trace: frontierTrace(r.Frontier()),
			sets:  r.Cache().NumSets(),
			plans: r.Cache().NumPlans(),
		}
	}
	ref := results["full"]
	for name, got := range results {
		if got.sets != ref.sets || got.plans != ref.plans {
			t.Errorf("%s cache size diverged: %d sets/%d plans, full %d/%d",
				name, got.sets, got.plans, ref.sets, ref.plans)
		}
		if len(got.trace) != len(ref.trace) {
			t.Fatalf("%s frontier trace length %d, full %d", name, len(got.trace), len(ref.trace))
		}
		for i := range got.trace {
			if got.trace[i] != ref.trace[i] {
				t.Fatalf("%s frontier diverged from full at %d: %v vs %v",
					name, i, got.trace[i], ref.trace[i])
			}
		}
	}
}

// TestIncrementalMatchesFullUnderFixedAlpha repeats the differential
// run with fixed coarse and fixed fine α schedules, the regimes where
// visit skipping is most aggressive.
func TestIncrementalMatchesFullUnderFixedAlpha(t *testing.T) {
	for _, alpha := range []float64{1, 2, 25} {
		sched := func(int) float64 { return alpha }
		run := func(cfg Config) []float64 {
			cfg.Alpha = sched
			p := testProblem(t, 10, 17)
			r := New(cfg)
			r.Init(p, 23)
			for i := 0; i < 50; i++ {
				r.Step()
			}
			return frontierTrace(r.Frontier())
		}
		inc := run(Config{})
		full := run(Config{DisableIncremental: true})
		if len(inc) != len(full) {
			t.Fatalf("α=%g: trace lengths %d vs %d", alpha, len(inc), len(full))
		}
		for i := range inc {
			if inc[i] != full[i] {
				t.Fatalf("α=%g: traces diverged at %d", alpha, i)
			}
		}
	}
}

// refApproximateFrontiers is ApproximateFrontiers of Algorithm 3
// transcribed literally, the oracle approximateFrontiers is held to: the
// plan cache P is a map from table set to plan list, a join node offers
// the full cross product of its children's cached plans over every
// applicable operator, every candidate is materialized before the
// admission test, and pruning is PruneApprox. No floors, no column
// mirrors, no visit memo.
func refApproximateFrontiers(m *costmodel.Model, p *plan.Plan, P map[tableset.Set][]*plan.Plan, alpha float64) {
	if p.IsJoin() {
		refApproximateFrontiers(m, p.Outer, P, alpha)
		refApproximateFrontiers(m, p.Inner, P, alpha)
		for _, outer := range P[p.Outer.Rel] {
			for _, inner := range P[p.Inner.Rel] {
				for _, op := range plan.JoinOps(outer, inner) {
					P[p.Rel], _ = cache.PruneApprox(P[p.Rel], m.NewJoin(op, outer, inner), alpha)
				}
			}
		}
		return
	}
	for _, op := range plan.AllScanOps() {
		P[p.Rel], _ = cache.PruneApprox(P[p.Rel], m.NewScan(p.Table, op), alpha)
	}
}

// TestFrontiersMatchPaperOracle feeds the same climbed plans, under the
// same α sequence, into approximateFrontiers (incremental and full
// recombination) and into the paper-literal refApproximateFrontiers,
// and requires identical caches: the same table sets, and for every set
// the same plans (operator tree, output representation, cost) in the
// same order. It covers the paper's schedule sped up 75-fold, which
// falls from α = 25 to exact precision within the run (each finer α
// forces full re-offers), a fixed α = 1 (the largest frontiers, so the
// oracle's unfiltered cross products keep that case small) and a fixed
// α = +Inf (one plan per output class).
func TestFrontiersMatchPaperOracle(t *testing.T) {
	for _, tc := range []struct {
		name          string
		tables, plans int
		alpha         func(i int) float64
	}{
		{"schedule", 12, 120, func(i int) float64 { return DefaultAlpha(75 * i) }},
		{"alpha=1", 8, 40, func(int) float64 { return 1 }},
		{"alpha=inf", 12, 120, func(int) float64 { return math.Inf(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := testProblem(t, tc.tables, 61)
			m := p.Model
			climber := NewClimber(m, ClimbConfig{})
			rng := rand.New(rand.NewPCG(62, 63))
			climbed := make([]*plan.Plan, tc.plans)
			for i := range climbed {
				climbed[i], _ = climber.Climb(randplan.Random(m, p.Query, rng))
			}

			oracle := make(map[tableset.Set][]*plan.Plan)
			inc := cache.New(m.Interner())
			full := cache.New(m.Interner())
			for i, cp := range climbed {
				alpha := tc.alpha(i)
				refApproximateFrontiers(m, cp, oracle, alpha)
				approximateFrontiers(m, cp, inc, alpha, true)
				approximateFrontiers(m, cp, full, alpha, false)
			}

			plans := 0
			for set, want := range oracle {
				plans += len(want)
				for name, c := range map[string]*cache.Cache{"incremental": inc, "full": full} {
					got := c.Get(set)
					if len(got) != len(want) {
						t.Fatalf("%s: set %v holds %d plans, oracle %d", name, set, len(got), len(want))
					}
					for j := range want {
						g, w := got[j], want[j]
						if g.Output != w.Output || g.Cost != w.Cost || g.String() != w.String() {
							t.Fatalf("%s: set %v plan %d is %v %v %v, oracle %v %v %v",
								name, set, j, g, g.Output, g.Cost, w, w.Output, w.Cost)
						}
					}
				}
			}
			for name, c := range map[string]*cache.Cache{"incremental": inc, "full": full} {
				if c.NumSets() != len(oracle) || c.NumPlans() != plans {
					t.Fatalf("%s: cache holds %d sets/%d plans, oracle %d/%d",
						name, c.NumSets(), c.NumPlans(), len(oracle), plans)
				}
			}
			t.Logf("%d sets, %d plans", len(oracle), plans)
		})
	}
}

// TestRMQFrontierDelta checks the opt.DeltaFrontier implementation: the
// deltas between marks must tile the admission stream, and folding them
// dominance-wise must recover the final frontier.
func TestRMQFrontierDelta(t *testing.T) {
	p := testProblem(t, 10, 91)
	r := New(Config{})
	r.Init(p, 5)
	var mark uint64
	seen := make(map[*plan.Plan]bool)
	for i := 0; i < 40; i++ {
		r.Step()
		var delta []*plan.Plan
		delta, mark = r.FrontierDelta(mark)
		for _, dp := range delta {
			if seen[dp] {
				t.Fatalf("plan delivered in two deltas: %v", dp.Cost)
			}
			seen[dp] = true
		}
	}
	if delta, _ := r.FrontierDelta(mark); len(delta) != 0 {
		t.Fatalf("empty-step delta has %d plans", len(delta))
	}
	// Every current frontier plan must have appeared in some delta.
	for _, fp := range r.Frontier() {
		if !seen[fp] {
			t.Fatalf("frontier plan never reported in a delta: %v", fp.Cost)
		}
	}
	// FrontierDelta(0) returns the full current frontier.
	full, _ := r.FrontierDelta(0)
	if len(full) != len(r.Frontier()) {
		t.Fatalf("FrontierDelta(0) = %d plans, Frontier = %d", len(full), len(r.Frontier()))
	}
}

// TestRMQFrontierDeltaDisableFrontier covers the archive-backed delta
// path of the DisableFrontier ablation.
func TestRMQFrontierDeltaDisableFrontier(t *testing.T) {
	p := testProblem(t, 8, 92)
	r := New(Config{DisableFrontier: true})
	r.Init(p, 5)
	var mark uint64
	count := 0
	for i := 0; i < 20; i++ {
		r.Step()
		var delta []*plan.Plan
		delta, mark = r.FrontierDelta(mark)
		count += len(delta)
	}
	if count == 0 {
		t.Fatal("no plans reported via archive deltas")
	}
	if len(r.Frontier()) > count {
		t.Fatalf("frontier %d larger than total delta count %d", len(r.Frontier()), count)
	}
}
