// Package spec fixes the benchmark's inputs that must never drift: the
// catalogs each workload optimizes, the metric subsets it asks for, and
// the committed reference frontiers its answers are scored against.
//
// References are built once, offline, by the refgen command (one long
// multi-start run per catalog and subset) and embedded here. Each is
// keyed by the catalog's fingerprint, so a change to the generator or to
// a catalog's definition makes Lookup refuse to score against a stale
// reference instead of silently comparing unrelated frontiers.
package spec

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"rmq"
	"rmq/internal/api"
	"rmq/internal/cost"
)

// Catalog names one generated catalog of a workload.
type Catalog struct {
	Name   string
	Tables int
	Graph  string
	Seed   uint64
}

// Generate builds the catalog with the paper's generator, exactly as the
// server does for a registration carrying the same GenerateSpec.
func (c Catalog) Generate() *rmq.Catalog {
	g, err := rmq.ParseGraph(c.Graph)
	if err != nil {
		panic(err) // the tables below name only valid graphs
	}
	return rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: c.Tables, Graph: g}, c.Seed)
}

// Request is the registration payload that makes rmqd build the catalog.
func (c Catalog) Request() *api.GenerateSpec {
	return &api.GenerateSpec{Tables: c.Tables, Graph: c.Graph, Seed: c.Seed}
}

// Metric subsets, by wire name.
var (
	AllThree   = []string{"time", "buffer", "disc"}
	TimeBuffer = []string{"time", "buffer"}
	TimeOnly   = []string{"time"}
)

// Workload inputs. serve-warm rotates over WarmSubsets; paper-large
// uses all three metrics.
var (
	WarmCatalogs = []Catalog{
		{"warm-chain24-a", 24, "chain", 11},
		{"warm-chain24-b", 24, "chain", 12},
		{"warm-chain24-c", 24, "chain", 13},
		{"warm-chain24-d", 24, "chain", 14},
	}
	WarmSubsets   = [][]string{AllThree, TimeBuffer, TimeOnly}
	LargeCatalogs = []Catalog{
		{"large-star100-a", 100, "star", 31},
		{"large-star100-b", 100, "star", 32},
	}
)

// Pair is one (catalog, metric subset) combination a workload scores.
type Pair struct {
	Catalog Catalog
	Metrics []string
}

// Pairs lists every combination that needs a reference frontier.
func Pairs() []Pair {
	var out []Pair
	for _, c := range WarmCatalogs {
		for _, s := range WarmSubsets {
			out = append(out, Pair{c, s})
		}
	}
	for _, c := range LargeCatalogs {
		out = append(out, Pair{c, AllThree})
	}
	return out
}

// ParseMetrics maps wire metric names onto library metrics.
func ParseMetrics(names []string) ([]rmq.Metric, error) {
	out := make([]rmq.Metric, len(names))
	for i, n := range names {
		switch n {
		case "time":
			out[i] = rmq.MetricTime
		case "buffer":
			out[i] = rmq.MetricBuffer
		case "disc":
			out[i] = rmq.MetricDisc
		default:
			return nil, fmt.Errorf("unknown metric %q", n)
		}
	}
	return out, nil
}

// Reference is one committed reference frontier.
type Reference struct {
	Catalog     string      `json:"catalog"`
	Fingerprint string      `json:"fingerprint"`
	Metrics     []string    `json:"metrics"`
	Iterations  int         `json:"iterations"`
	Parallelism int         `json:"parallelism"`
	Seed        uint64      `json:"seed"`
	Frontier    [][]float64 `json:"frontier"`
}

// File is the layout of frontiers.json.
type File struct {
	Note string      `json:"note,omitempty"`
	Refs []Reference `json:"refs"`
}

//go:embed frontiers.json
var frontiersJSON []byte

// Fingerprint renders a catalog fingerprint the way references store it.
func Fingerprint(c *rmq.Catalog) string { return fmt.Sprintf("%016x", c.Fingerprint()) }

// References indexes the committed reference frontiers by fingerprint
// and metric subset.
type References map[string][]cost.Vector

func refKey(fingerprint string, metrics []string) string {
	return fingerprint + "/" + strings.Join(metrics, ",")
}

// LoadReferences parses the embedded reference file.
func LoadReferences() (References, error) {
	var f File
	if err := json.Unmarshal(frontiersJSON, &f); err != nil {
		return nil, fmt.Errorf("parsing reference frontiers: %w", err)
	}
	refs := make(References, len(f.Refs))
	for _, r := range f.Refs {
		if len(r.Frontier) == 0 {
			return nil, fmt.Errorf("reference %s %v is empty", r.Catalog, r.Metrics)
		}
		vecs := make([]cost.Vector, len(r.Frontier))
		for i, c := range r.Frontier {
			if len(c) != len(r.Metrics) {
				return nil, fmt.Errorf("reference %s %v: vector %d has dimension %d", r.Catalog, r.Metrics, i, len(c))
			}
			vecs[i] = cost.New(c...)
		}
		refs[refKey(r.Fingerprint, r.Metrics)] = vecs
	}
	return refs, nil
}

// Lookup returns the reference frontier for a catalog and metric subset.
// It fails when no reference carries the catalog's current fingerprint:
// the catalog or its generator changed since refgen ran, and scoring
// against the old reference would measure nothing.
func (r References) Lookup(c Catalog, metrics []string) ([]cost.Vector, error) {
	fp := Fingerprint(c.Generate())
	ref, ok := r[refKey(fp, metrics)]
	if !ok {
		return nil, fmt.Errorf("no reference frontier for catalog %s (fingerprint %s) metrics %v: the catalog changed since the references were built; rerun refgen", c.Name, fp, metrics)
	}
	return ref, nil
}

// CheckAll verifies that every pair the workloads use has a reference.
func (r References) CheckAll() error {
	for _, p := range Pairs() {
		if _, err := r.Lookup(p.Catalog, p.Metrics); err != nil {
			return err
		}
	}
	return nil
}

// Vector converts a wire cost array into a cost vector, rejecting
// anything a frontier may not hold: wrong dimension, NaN, infinite or
// negative components. Zero is legal: a plan that pipelines every join
// writes no temporary pages, so its disc cost is exactly 0.
func Vector(c []float64, dim int) (cost.Vector, error) {
	if len(c) != dim {
		return cost.Vector{}, fmt.Errorf("cost has dimension %d, want %d", len(c), dim)
	}
	if dim > cost.MaxMetrics {
		return cost.Vector{}, fmt.Errorf("cost dimension %d exceeds %d", dim, cost.MaxMetrics)
	}
	for _, x := range c {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return cost.Vector{}, fmt.Errorf("cost component %v is not finite and non-negative", x)
		}
	}
	return cost.New(c...), nil
}
