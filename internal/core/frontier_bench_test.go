package core

import (
	"math/rand/v2"
	"testing"

	"rmq/internal/plan"
	"rmq/internal/randplan"
)

// benchApproxFrontiers measures the frontier-approximation phase in the
// regime long anytime runs live in: a cache warmed by 200 real RMQ
// iterations, then one climbed plan re-approximated per op from a
// rotating pool of fresh local optima. After the pool's first lap the
// cache is converged, so the measured work is the per-iteration cost of
// ApproximateFrontiers once partial plans are shared. Both variants
// produce bit-identical caches (TestIncrementalRecombinationMatchesFull);
// only the recombination differs: full cross products on every visit,
// or incremental visits that offer only pairs involving new plans.
func benchApproxFrontiers(b *testing.B, cfg Config) {
	const warmup = 200
	p := testProblem(b, 50, 1)
	r := New(cfg)
	r.Init(p, 3)
	for i := 0; i < warmup; i++ {
		r.Step()
	}
	m := p.Model
	climber := NewClimber(m, ClimbConfig{})
	rng := rand.New(rand.NewPCG(11, 12))
	pool := make([]*plan.Plan, 32)
	for i := range pool {
		pool[i], _ = climber.Climb(randplan.Random(m, p.Query, rng))
	}
	alpha := DefaultAlpha(warmup)
	incremental := !cfg.DisableIncremental
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		approximateFrontiers(m, pool[i%len(pool)], r.cache, alpha, incremental)
	}
}

// BenchmarkApproxFrontiers is the incremental-recombination ablation.
// The sub-benchmark names predate the removal of the sorted dominance
// index and are kept so benchmark histories stay comparable: "indexed"
// recombines full cross products through the columnar buckets and
// admission floors, "indexed-incremental" adds incremental visits.
func BenchmarkApproxFrontiers(b *testing.B) {
	b.Run("indexed", func(b *testing.B) {
		benchApproxFrontiers(b, Config{DisableIncremental: true})
	})
	b.Run("indexed-incremental", func(b *testing.B) {
		benchApproxFrontiers(b, Config{})
	})
}

// BenchmarkLargeFrontier runs RMQ where frontiers are largest: exact
// precision (α fixed at 1) on a 14-table chain under all three metrics,
// so every Pareto-optimal plan of every table set is kept. Each op is a
// fresh 150-iteration run; the root frontier size is reported so a
// speedup can be checked to come at an unchanged result.
func BenchmarkLargeFrontier(b *testing.B) {
	p := testProblem(b, 14, 42)
	cfg := Config{Alpha: func(int) float64 { return 1 }}
	b.ReportAllocs()
	b.ResetTimer()
	frontier := 0
	for i := 0; i < b.N; i++ {
		r := New(cfg)
		r.Init(p, 7)
		for j := 0; j < 150; j++ {
			r.Step()
		}
		frontier = len(r.Frontier())
	}
	b.ReportMetric(float64(frontier), "frontier")
}
