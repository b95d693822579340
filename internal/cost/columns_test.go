package cost

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// colRandVec mirrors the cache package's probe distribution: log-scaled
// components salted with exact zeros and frequent collisions, so the
// kernels see the same tie-heavy inputs the admission path does.
func colRandVec(rng *rand.Rand, dim int) Vector {
	comps := make([]float64, dim)
	for i := range comps {
		switch rng.IntN(10) {
		case 0:
			comps[i] = 0
		case 1:
			comps[i] = 100
		default:
			comps[i] = math.Exp(rng.Float64() * 12)
		}
	}
	return New(comps...)
}

// fillColumns appends n random vectors of the given dimension and
// returns the same vectors as a plain slice (the AoS reference).
func fillColumns(rng *rand.Rand, c *Columns, n, dim int) []Vector {
	ref := make([]Vector, n)
	for i := range ref {
		ref[i] = colRandVec(rng, dim)
		c.Append(ref[i])
	}
	return ref
}

func TestColumnsAppendAtRoundTrip(t *testing.T) {
	for dim := 1; dim <= MaxMetrics; dim++ {
		rng := rand.New(rand.NewPCG(uint64(dim), 1))
		var c Columns
		ref := fillColumns(rng, &c, 100, dim)
		if c.Len() != len(ref) || c.Dim() != dim {
			t.Fatalf("dim %d: Len=%d Dim=%d", dim, c.Len(), c.Dim())
		}
		for i, v := range ref {
			if c.At(i) != v {
				t.Fatalf("dim %d: At(%d) = %v, want %v", dim, i, c.At(i), v)
			}
		}
		for d := 0; d < dim; d++ {
			col := c.Col(d)
			if len(col) != len(ref) {
				t.Fatalf("dim %d: Col(%d) has %d entries", dim, d, len(col))
			}
			for i, x := range col {
				if x != ref[i].V[d] {
					t.Fatalf("dim %d: Col(%d)[%d] = %g, want %g", dim, d, i, x, ref[i].V[d])
				}
			}
		}
	}
}

func TestColumnsDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	var c Columns
	c.Append(New(1, 2))
	c.Append(New(1, 2, 3))
}

func TestColumnsResetAllowsNewDimension(t *testing.T) {
	var c Columns
	c.Append(New(1, 2, 3))
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
	c.Append(New(4, 5)) // first append into an empty block re-fixes dim
	if c.Dim() != 2 || c.At(0) != New(4, 5) {
		t.Fatalf("post-reset block: dim %d, At(0) %v", c.Dim(), c.At(0))
	}
}

func TestColumnsMoveTruncate(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var c Columns
	ref := fillColumns(rng, &c, 20, 3)
	// Compact the even entries to the front, the way eviction does.
	k := 0
	for i := 0; i < len(ref); i += 2 {
		c.Move(k, i)
		k++
	}
	c.Truncate(k)
	if c.Len() != k {
		t.Fatalf("Len after Truncate = %d, want %d", c.Len(), k)
	}
	for j := 0; j < k; j++ {
		if c.At(j) != ref[2*j] {
			t.Fatalf("compacted entry %d = %v, want %v", j, c.At(j), ref[2*j])
		}
	}
}

// TestColumnsApproxDominatedByMatchesReference pins the batch admission
// kernel to the per-Vector loop it replaces, across every dimension and
// the α range the engine uses (exact, coarse, and the +Inf shed probe),
// on the full block and again after truncations, which must hide the
// cut entries from the sweep although their values stay in the backing
// array.
func TestColumnsApproxDominatedByMatchesReference(t *testing.T) {
	for dim := 1; dim <= MaxMetrics; dim++ {
		for _, alpha := range []float64{1, 1.5, 2, 25, math.Inf(1)} {
			rng := rand.New(rand.NewPCG(uint64(dim)*100+uint64(math.Min(alpha, 99)), 3))
			var c Columns
			ref := fillColumns(rng, &c, 200, dim)
			for _, n := range []int{200, 150, 37, 1, 0} {
				c.Truncate(n)
				live := ref[:n]
				for probe := 0; probe < 500; probe++ {
					v := colRandVec(rng, dim)
					if probe%5 == 0 {
						v = ref[rng.IntN(len(ref))] // member, possibly cut: ties matter
					}
					want := false
					for _, e := range live {
						if e.ApproxDominates(v, alpha) {
							want = true
							break
						}
					}
					if got := c.ApproxDominatedBy(v, alpha); got != want {
						t.Fatalf("dim %d α=%g n=%d: ApproxDominatedBy(%v) = %v, reference %v",
							dim, alpha, n, v, got, want)
					}
				}
			}
		}
	}
}

// TestColumnsPrefixApproxDominatedByMatchesReference checks the sweep
// over a random prefix of the block: the block is cut to n entries
// (n may overshoot the block, which then stays whole), probed, and
// grown back by re-appending the cut entries, so stale values left
// behind a cut must never leak into a later sweep.
func TestColumnsPrefixApproxDominatedByMatchesReference(t *testing.T) {
	for dim := 1; dim <= MaxMetrics; dim++ {
		rng := rand.New(rand.NewPCG(uint64(dim), 9))
		var c Columns
		ref := fillColumns(rng, &c, 64, dim)
		for probe := 0; probe < 300; probe++ {
			v := colRandVec(rng, dim)
			n := min(rng.IntN(len(ref)+10), len(ref)) // deliberately overshoots
			alpha := []float64{1, 2, 25}[rng.IntN(3)]
			want := false
			for _, e := range ref[:n] {
				if e.ApproxDominates(v, alpha) {
					want = true
					break
				}
			}
			c.Truncate(n)
			if got := c.ApproxDominatedBy(v, alpha); got != want {
				t.Fatalf("dim %d n=%d α=%g: prefix sweep = %v, reference %v", dim, n, alpha, got, want)
			}
			for _, e := range ref[n:] {
				c.Append(e)
			}
			if c.Len() != len(ref) {
				t.Fatalf("dim %d: regrown block has %d entries, want %d", dim, c.Len(), len(ref))
			}
		}
	}
}

// TestColumnsDominatesAnyMatchesReference pins the eviction pre-check to
// the per-Vector weak-dominance loop.
func TestColumnsDominatesAnyMatchesReference(t *testing.T) {
	for dim := 1; dim <= MaxMetrics; dim++ {
		rng := rand.New(rand.NewPCG(uint64(dim), 11))
		var c Columns
		ref := fillColumns(rng, &c, 200, dim)
		for probe := 0; probe < 500; probe++ {
			v := colRandVec(rng, dim)
			if probe%5 == 0 {
				v = ref[rng.IntN(len(ref))]
			}
			want := false
			for _, e := range ref {
				if v.Dominates(e) {
					want = true
					break
				}
			}
			if got := c.DominatesAny(v); got != want {
				t.Fatalf("dim %d: DominatesAny(%v) = %v, reference %v", dim, v, got, want)
			}
		}
	}
}

func TestColumnsEmptyBlock(t *testing.T) {
	var c Columns
	if c.ApproxDominatedBy(New(1), 2) {
		t.Error("empty block approximately dominates")
	}
	if c.DominatesAny(New(1)) {
		t.Error("probe dominates an entry of an empty block")
	}
}

// checkAgainstVectors verifies every read path and kernel of c against
// the plain []Vector loops over ref, the AoS sequence c must mirror:
// At and Col entry-wise, and the two dominance sweeps on random and
// member probes.
func checkAgainstVectors(t *testing.T, rng *rand.Rand, c *Columns, ref []Vector, dim int, step string) {
	t.Helper()
	if c.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, reference has %d", step, c.Len(), len(ref))
	}
	for i, v := range ref {
		if c.At(i) != v {
			t.Fatalf("%s: At(%d) = %v, want %v", step, i, c.At(i), v)
		}
	}
	for d := 0; d < dim; d++ {
		col := c.Col(d)
		if len(col) != len(ref) || cap(col) != len(ref) {
			t.Fatalf("%s: Col(%d) len %d cap %d, want both %d", step, d, len(col), cap(col), len(ref))
		}
		for i, x := range col {
			if x != ref[i].V[d] {
				t.Fatalf("%s: Col(%d)[%d] = %g, want %g", step, d, i, x, ref[i].V[d])
			}
		}
	}
	for probe := 0; probe < 40; probe++ {
		v := colRandVec(rng, dim)
		if probe%4 == 0 && len(ref) > 0 {
			v = ref[rng.IntN(len(ref))]
		}
		alpha := []float64{1, 2, 25}[probe%3]
		var approx, dominates bool
		for _, e := range ref {
			approx = approx || e.ApproxDominates(v, alpha)
			dominates = dominates || v.Dominates(e)
		}
		if got := c.ApproxDominatedBy(v, alpha); got != approx {
			t.Fatalf("%s: ApproxDominatedBy(%v, %g) = %v, reference %v", step, v, alpha, got, approx)
		}
		if got := c.DominatesAny(v); got != dominates {
			t.Fatalf("%s: DominatesAny(%v) = %v, reference %v", step, v, got, dominates)
		}
	}
}

// TestColumnsStridedBlockMatchesReference drives one block through
// every transition of its shared backing array — appends across each
// stride doubling, Grow on a live block, compaction after a
// relocation, and Reset then reuse — re-checking it against the []Vector reference after each.
func TestColumnsStridedBlockMatchesReference(t *testing.T) {
	for dim := 1; dim <= MaxMetrics; dim++ {
		rng := rand.New(rand.NewPCG(uint64(dim), 19))
		var c Columns
		var ref []Vector
		appendN := func(n int) {
			for range n {
				v := colRandVec(rng, dim)
				ref = append(ref, v)
				c.Append(v)
			}
		}

		// Appends one at a time across the stride growth 4 → 8 → … → 128,
		// checked on both sides of every boundary.
		for len(ref) < 100 {
			appendN(1)
			switch len(ref) {
			case 1, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 100:
				checkAgainstVectors(t, rng, &c, ref, dim, fmt.Sprintf("dim %d append %d", dim, len(ref)))
			}
		}

		// Grow on a non-empty block relocates it without touching the
		// contents, and later appends land in the reserved space.
		c.Grow(int8(dim), 300)
		checkAgainstVectors(t, rng, &c, ref, dim, fmt.Sprintf("dim %d grow", dim))
		appendN(150)
		checkAgainstVectors(t, rng, &c, ref, dim, fmt.Sprintf("dim %d append after grow", dim))
		c.Grow(int8(dim), 10) // below Len: no-op
		checkAgainstVectors(t, rng, &c, ref, dim, fmt.Sprintf("dim %d shrinking grow", dim))

		// Move/Truncate after the relocations above: keep every third
		// entry, the way an eviction sweep compacts a class.
		k := 0
		for i := 0; i < len(ref); i += 3 {
			c.Move(k, i)
			ref[k] = ref[i]
			k++
		}
		c.Truncate(k)
		ref = ref[:k]
		checkAgainstVectors(t, rng, &c, ref, dim, fmt.Sprintf("dim %d compact", dim))
		appendN(7) // appends after a truncation reuse the freed slots
		checkAgainstVectors(t, rng, &c, ref, dim, fmt.Sprintf("dim %d append after compact", dim))

		// Reset, then reuse: first at another dimension over the same
		// backing array, then back at the original one.
		c.Reset()
		ref = ref[:0]
		checkAgainstVectors(t, rng, &c, ref, dim, fmt.Sprintf("dim %d reset", dim))
		other := dim%MaxMetrics + 1
		for range 70 {
			v := colRandVec(rng, other)
			ref = append(ref, v)
			c.Append(v)
		}
		checkAgainstVectors(t, rng, &c, ref, other, fmt.Sprintf("dim %d reused at dim %d", dim, other))
		c.Reset()
		ref = ref[:0]
		appendN(90)
		checkAgainstVectors(t, rng, &c, ref, dim, fmt.Sprintf("dim %d reused", dim))
	}
}

// benchFillColumns builds an n-entry block (plus the AoS mirror) whose
// entries form a realistic frontier: mutually hard to dominate, so the
// sweeps usually scan the whole block the way a failed admission probe
// does.
func benchFillColumns(n, dim int) (*Columns, []Vector) {
	rng := rand.New(rand.NewPCG(uint64(n)*uint64(dim), 23))
	var c Columns
	ref := make([]Vector, n)
	for i := range ref {
		ref[i] = colRandVec(rng, dim)
		c.Append(ref[i])
	}
	return &c, ref
}

// benchProbes draws a realistic probe mix: mostly fresh vectors (some
// dominated, some not, some incomparable) plus exact members.
func benchProbes(n, dim int) []Vector {
	rng := rand.New(rand.NewPCG(uint64(dim), 29))
	probes := make([]Vector, n)
	for i := range probes {
		probes[i] = colRandVec(rng, dim)
	}
	return probes
}

// BenchmarkDominatesColumns measures the batch admission kernel — one
// ApproxDominatedBy sweep over a 256-entry block — per dimension. The
// matching AoS arms in BenchmarkDominatesVectors run the per-Vector
// loop the kernel replaced, over the same data.
func BenchmarkDominatesColumns(b *testing.B) {
	for _, dim := range []int{2, 3, 4} {
		b.Run(map[int]string{2: "2d", 3: "3d", 4: "4d"}[dim], func(b *testing.B) {
			c, _ := benchFillColumns(256, dim)
			probes := benchProbes(64, dim)
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				if c.ApproxDominatedBy(probes[i%len(probes)], 2) {
					hits++
				}
			}
			sinkBool = hits > 0
		})
	}
}

// BenchmarkDominatesVectors is the AoS reference arm for
// BenchmarkDominatesColumns: identical probes, identical frontier, but
// swept through the per-Vector ApproxDominates loop.
func BenchmarkDominatesVectors(b *testing.B) {
	for _, dim := range []int{2, 3, 4} {
		b.Run(map[int]string{2: "2d", 3: "3d", 4: "4d"}[dim], func(b *testing.B) {
			_, ref := benchFillColumns(256, dim)
			probes := benchProbes(64, dim)
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				v := probes[i%len(probes)]
				for _, e := range ref {
					if e.ApproxDominates(v, 2) {
						hits++
						break
					}
				}
			}
			sinkBool = hits > 0
		})
	}
}

var sinkBool bool
