// Command refgen builds the benchmark's reference frontiers: for every
// catalog and metric subset in package spec, one long multi-start run
// (shared plan cache, several workers) whose merged frontier becomes the
// yardstick the benchmark's ε-indicator is measured against. It is run
// by hand when a catalog or the generator changes, never by the
// benchmark itself:
//
//	cd perfbench && go run ./refgen -out spec/frontiers.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"rmq"
	"rmq/perfbench/spec"
)

// The run that builds every reference. They are fixed so that a
// reference always means the same thing: changing one is a change to
// the benchmark, made here and committed with the regenerated file.
const (
	// chainIters and starIters are the iterations per worker on the
	// 24-table and the 100-table catalogs.
	chainIters = 4500
	starIters  = 4000
	// workers is the number of multi-start workers sharing a plan cache.
	workers = 2
	// seed is the run seed.
	seed = 0x5eed
)

func main() {
	out := flag.String("out", "spec/frontiers.json", "output file")
	flag.Parse()

	file := spec.File{Note: "reference frontiers for the benchmark; regenerate with: cd perfbench && go run ./refgen"}
	for _, p := range spec.Pairs() {
		cat := p.Catalog.Generate()
		metrics, err := spec.ParseMetrics(p.Metrics)
		if err != nil {
			fail(err)
		}
		iters := chainIters
		if p.Catalog.Tables > 24 {
			iters = starIters
		}
		begin := time.Now()
		f, err := rmq.Optimize(context.Background(), cat,
			rmq.WithMetrics(metrics...), rmq.WithParallelism(workers),
			rmq.WithMaxIterations(iters), rmq.WithSeed(seed), rmq.WithSharedCache(true))
		if err != nil {
			fail(fmt.Errorf("%s %v: %w", p.Catalog.Name, p.Metrics, err))
		}
		ref := spec.Reference{
			Catalog:     p.Catalog.Name,
			Fingerprint: spec.Fingerprint(cat),
			Metrics:     p.Metrics,
			Iterations:  f.Iterations,
			Parallelism: workers,
			Seed:        seed,
		}
		for _, pl := range f.Plans {
			c := make([]float64, pl.Cost.Dim())
			for i := range c {
				c[i] = pl.Cost.At(i)
			}
			if _, err := spec.Vector(c, len(metrics)); err != nil {
				fail(fmt.Errorf("%s %v: %w", p.Catalog.Name, p.Metrics, err))
			}
			ref.Frontier = append(ref.Frontier, c)
		}
		file.Refs = append(file.Refs, ref)
		fmt.Fprintf(os.Stderr, "%-16s %-18v %5d iterations %4d plans %v\n",
			p.Catalog.Name, p.Metrics, f.Iterations, len(f.Plans), time.Since(begin).Round(time.Millisecond))
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "refgen:", err)
	os.Exit(1)
}
