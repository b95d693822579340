package main

import (
	"fmt"
	"math"

	"rmq"
	"rmq/internal/api"
	"rmq/internal/cost"
	"rmq/internal/costmodel"
	"rmq/perfbench/spec"
)

// checkFrontier validates a returned frontier's costs — non-empty,
// finite, non-negative, of the requested dimension, mutually
// non-dominated — and returns them as vectors.
func checkFrontier(costs [][]float64, dim int) ([]cost.Vector, error) {
	if len(costs) == 0 {
		return nil, fmt.Errorf("empty frontier")
	}
	vecs := make([]cost.Vector, len(costs))
	for i, c := range costs {
		v, err := spec.Vector(c, dim)
		if err != nil {
			return nil, fmt.Errorf("plan %d: %w", i, err)
		}
		vecs[i] = v
	}
	for i := range vecs {
		for j := range vecs {
			if i != j && vecs[i].Dominates(vecs[j]) {
				return nil, fmt.Errorf("plan %d %v dominates plan %d %v", i, vecs[i], j, vecs[j])
			}
		}
	}
	return vecs, nil
}

// checkResponse validates one /optimize answer against its request.
func checkResponse(resp *api.OptimizeResponse, req *api.OptimizeRequest) ([]cost.Vector, error) {
	if resp.Iterations != req.MaxIterations {
		return nil, fmt.Errorf("%d iterations, budget %d", resp.Iterations, req.MaxIterations)
	}
	if fmt.Sprint(resp.Metrics) != fmt.Sprint(req.Metrics) {
		return nil, fmt.Errorf("metrics %v, requested %v", resp.Metrics, req.Metrics)
	}
	costs := make([][]float64, len(resp.Plans))
	for i, p := range resp.Plans {
		costs[i] = p.Cost
	}
	return checkFrontier(costs, len(req.Metrics))
}

// libraryCosts flattens a library frontier into wire-shaped costs.
func libraryCosts(f *rmq.Frontier) [][]float64 {
	out := make([][]float64, len(f.Plans))
	for i, p := range f.Plans {
		c := make([]float64, p.Cost.Dim())
		for k := range c {
			c[k] = p.Cost.At(k)
		}
		out[i] = c
	}
	return out
}

// checkPlans validates every plan of a library frontier structurally,
// checks that it joins all of the catalog's tables, and re-prices it
// bottom-up through a fresh cost model, which must reproduce its cost
// bit for bit. The model is fresh per frontier because models memoize
// every table set they price: one model across a run's frontiers would
// grow all run long and show up in peak_rss_mb.
func checkPlans(cat *rmq.Catalog, f *rmq.Frontier) error {
	model := costmodel.New(cat, f.Metrics)
	all := cat.AllTables()
	for i, p := range f.Plans {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("plan %d invalid: %w", i, err)
		}
		if p.Rel != all {
			return fmt.Errorf("plan %d joins %v, not all %d tables", i, p.Rel, cat.NumTables())
		}
		r := model.Recost(p)
		for k := 0; k < p.Cost.Dim(); k++ {
			if math.Float64bits(r.Cost.At(k)) != math.Float64bits(p.Cost.At(k)) {
				return fmt.Errorf("plan %d re-prices to %v, reported %v", i, r.Cost, p.Cost)
			}
		}
	}
	return nil
}

// sameFrontier reports whether two frontiers hold the same plans with
// bit-identical costs, in the same order.
func sameFrontier(a, b *rmq.Frontier) bool {
	if len(a.Plans) != len(b.Plans) || a.Iterations != b.Iterations {
		return false
	}
	for i := range a.Plans {
		pa, pb := a.Plans[i], b.Plans[i]
		if pa.Cost.Dim() != pb.Cost.Dim() || pa.String() != pb.String() {
			return false
		}
		for k := 0; k < pa.Cost.Dim(); k++ {
			if math.Float64bits(pa.Cost.At(k)) != math.Float64bits(pb.Cost.At(k)) {
				return false
			}
		}
	}
	return true
}
