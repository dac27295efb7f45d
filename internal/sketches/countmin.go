// Package sketches implements the sketch-based frequent-items algorithms
// compared by the paper: the Count-Min sketch (plain and conservative-
// update), the Count Sketch of Charikar, Chen & Farach-Colton, dyadic
// hierarchical wrappers over both (the paper's CMH and the CS hierarchy),
// and the Combinatorial Group Testing (CGT) sketch.
//
// Sketches are linear projections of the frequency vector: they support
// deletions (the turnstile model), merging by addition, and stream
// differencing by subtraction — capabilities no counter-based summary
// has, bought at the price of randomization and larger constants.
package sketches

import (
	"fmt"
	"math"

	"streamfreq/internal/core"
	"streamfreq/internal/hash"
)

// CountMin is the Cormode–Muthukrishnan Count-Min sketch: a d×w array of
// counters with one pairwise-independent hash per row.
//
// For an insert-only stream, Estimate never underestimates and, with
// w = ⌈e/ε⌉ and d = ⌈ln(1/δ)⌉, overestimates by more than εN with
// probability at most δ. Under deletions the min estimator loses its
// one-sided guarantee and the sketch switches to the median estimator
// automatically.
type CountMin struct {
	rows         [][]int64
	family       *hash.Family
	width        int
	depth        int
	n            int64
	neg          bool // a negative update has been seen; use median estimator
	conservative bool
}

// NewCountMin returns a d(depth) × w(width) Count-Min sketch seeded
// deterministically by seed. Sketches built with equal (depth, width,
// seed) are mergeable.
func NewCountMin(depth, width int, seed uint64) *CountMin {
	return newCountMin(depth, width, seed, false)
}

// NewCountMinConservative returns a Count-Min sketch using conservative
// update: on increment, each row counter is raised only as far as
// necessary (to the current estimate plus the increment), never higher.
// Conservative update strictly reduces overestimation for insert-only
// streams but forfeits linearity (no Subtract, merge is approximate),
// which is why the paper's main roster uses the plain sketch; the
// ablation bench quantifies the accuracy difference.
func NewCountMinConservative(depth, width int, seed uint64) *CountMin {
	return newCountMin(depth, width, seed, true)
}

func newCountMin(depth, width int, seed uint64, conservative bool) *CountMin {
	if depth <= 0 || width <= 0 {
		panic("sketches: CountMin requires positive depth and width")
	}
	rows := make([][]int64, depth)
	backing := make([]int64, depth*width)
	for i := range rows {
		rows[i], backing = backing[:width:width], backing[width:]
	}
	return &CountMin{
		rows:         rows,
		family:       hash.NewFamily(depth, width, 2, seed),
		width:        width,
		depth:        depth,
		conservative: conservative,
	}
}

// ParamsForEpsilon returns (depth, width) achieving error εN with failure
// probability δ: w = ⌈e/ε⌉, d = ⌈ln(1/δ)⌉.
func ParamsForEpsilon(epsilon, delta float64) (depth, width int) {
	depth = int(math.Ceil(math.Log(1 / delta)))
	if depth < 1 {
		depth = 1
	}
	width = int(math.Ceil(math.E / epsilon))
	if width < 1 {
		width = 1
	}
	return depth, width
}

// Name implements core.Summary.
func (c *CountMin) Name() string {
	if c.conservative {
		return "CMC"
	}
	return "CM"
}

// MonotoneEstimates implements core.EstimateMonotone: counters (and so
// the min estimator) only grow until a deletion is ingested.
func (c *CountMin) MonotoneEstimates() bool { return !c.neg }

// Depth returns d; Width returns w.
func (c *CountMin) Depth() int { return c.depth }

// Width returns the number of counters per row.
func (c *CountMin) Width() int { return c.width }

// N implements core.Summary.
func (c *CountMin) N() int64 { return c.n }

// Update adds count (which may be negative, except for conservative
// sketches) occurrences of x.
func (c *CountMin) Update(x core.Item, count int64) {
	if c.conservative {
		if count < 0 {
			panic("sketches: conservative Count-Min does not support deletions")
		}
		c.updateConservative(x, count)
		return
	}
	if count < 0 {
		c.neg = true
	}
	c.n += count
	xv := uint64(x)
	for i := range c.rows {
		c.rows[i][c.family.Buckets[i].Hash(xv)] += count
	}
}

// UpdateBatch implements core.BatchUpdater for unit-count arrivals: the
// batch is collapsed to one (item, count) pair per distinct item (see
// core.Collapse) and addPairs applies the pairs row by row. Because the
// sketch is linear, c repeats of an item are exactly one +c, so the
// result is bit-identical to the scalar Update loop.
//
// Conservative sketches are not linear — each arrival's write depends on
// the estimate at that arrival — so they keep per-arrival processing.
func (c *CountMin) UpdateBatch(items []core.Item) {
	if c.conservative {
		for _, x := range items {
			c.updateConservative(x, 1)
		}
		return
	}
	core.Collapse(items, c.addPairs)
}

// addPairs adds counts[k] occurrences of items[k] for every k, row by
// row: the row slice and its hash function are loaded once per row
// instead of once per pair, and all writes of a row land in the same
// w-counter window, which keeps the touched cache lines resident across
// the batch (the scalar path cycles through all d rows between
// consecutive touches of any one row). Valid only for the linear
// (non-conservative) sketch.
func (c *CountMin) addPairs(items []core.Item, counts []int64) {
	counts = counts[:len(items)]
	for _, cnt := range counts {
		c.n += cnt
	}
	for i := range c.rows {
		row := c.rows[i]
		h := c.family.Buckets[i]
		for k, x := range items {
			row[h.Hash(uint64(x))] += counts[k]
		}
	}
}

func (c *CountMin) updateConservative(x core.Item, count int64) {
	c.n += count
	xv := uint64(x)
	// First pass: current estimate.
	est := int64(math.MaxInt64)
	var buf [maxStackDepth]int
	idx := rowScratch(&buf, c.depth)
	for i := range c.rows {
		idx[i] = c.family.Buckets[i].Hash(xv)
		if v := c.rows[i][idx[i]]; v < est {
			est = v
		}
	}
	target := est + count
	for i := range c.rows {
		if c.rows[i][idx[i]] < target {
			c.rows[i][idx[i]] = target
		}
	}
}

// Estimate returns the point estimate of x's count: the row minimum for
// insert-only streams, or the row median once deletions have occurred.
func (c *CountMin) Estimate(x core.Item) int64 {
	if c.neg {
		return c.estimateMedian(x)
	}
	return c.EstimateMin(x)
}

// EstimateMin returns the classical min-row estimate (an upper bound on
// the true count for insert-only streams).
func (c *CountMin) EstimateMin(x core.Item) int64 {
	xv := uint64(x)
	est := int64(math.MaxInt64)
	for i := range c.rows {
		if v := c.rows[i][c.family.Buckets[i].Hash(xv)]; v < est {
			est = v
		}
	}
	return est
}

func (c *CountMin) estimateMedian(x core.Item) int64 {
	xv := uint64(x)
	var buf [maxStackDepth]int64
	vals := rowScratch(&buf, c.depth)
	for i := range c.rows {
		vals[i] = c.rows[i][c.family.Buckets[i].Hash(xv)]
	}
	return median(vals)
}

// heavyRun appends to dst every item of the contiguous run x0 … x0+n−1
// whose min estimate reaches threshold, with that estimate, in item
// order — the result of calling EstimateMin on each, bit for bit. It
// sweeps row 0 across the run (one polynomial step and a Barrett reduce
// per item instead of a mulmod and a hardware divide) and drops every
// item whose row-0 counter is below threshold, which is exact because
// the row minimum never exceeds any single row. Only survivors hash the
// remaining rows. Valid only for the min estimator: callers must check
// !neg.
func (c *CountMin) heavyRun(x0, n uint64, threshold int64, dst []core.ItemCount) []core.ItemCount {
	var buf [256]int
	row0, h0 := c.rows[0], c.family.Buckets[0]
	for n > 0 {
		idx := buf[:min(n, uint64(len(buf)))]
		h0.Sweep(x0, idx)
		for i, b := range idx {
			est := row0[b]
			if est < threshold {
				continue
			}
			x := x0 + uint64(i)
			for r := 1; r < c.depth; r++ {
				est = min(est, c.rows[r][c.family.Buckets[r].Hash(x)])
			}
			if est >= threshold {
				dst = append(dst, core.ItemCount{Item: core.Item(x), Count: est})
			}
		}
		x0 += uint64(len(idx))
		n -= uint64(len(idx))
	}
	return dst
}

// Check verifies the sketch's structural invariants (the tests run it
// after ingest and merge). Every arrival adds its count to
// exactly one counter per row, so each row of the linear sketch sums to
// N — also after merges, subtractions, and deletions. A conservative
// row is raised by at most the arrival's count, so it sums to at most
// N; and while no deletion has been ingested no counter is negative.
func (c *CountMin) Check() error {
	for i, row := range c.rows {
		var sum int64
		for _, v := range row {
			if v < 0 && !c.neg {
				return fmt.Errorf("sketches: Count-Min row %d holds %d on an insert-only stream", i, v)
			}
			sum += v
		}
		if sum != c.n && !(c.conservative && sum < c.n) {
			return fmt.Errorf("sketches: Count-Min row %d sums to %d, N = %d", i, sum, c.n)
		}
	}
	return nil
}

// Query is not supported by a flat Count-Min sketch: it cannot enumerate
// items. Wrap it in a core-level tracker or use the Hierarchical variant.
// It returns nil to satisfy core.Summary; the harness never calls it on
// flat sketches.
func (c *CountMin) Query(threshold int64) []core.ItemCount { return nil }

// Clone returns an independent deep copy of the counter array. The hash
// family is shared: it is immutable after construction, so parent and
// clone index identical bucket layouts at no copying cost.
func (c *CountMin) Clone() *CountMin {
	nc := &CountMin{
		family:       c.family,
		width:        c.width,
		depth:        c.depth,
		n:            c.n,
		neg:          c.neg,
		conservative: c.conservative,
	}
	backing := make([]int64, c.depth*c.width)
	nc.rows = make([][]int64, c.depth)
	for i := range nc.rows {
		nc.rows[i], backing = backing[:c.width:c.width], backing[c.width:]
		copy(nc.rows[i], c.rows[i])
	}
	return nc
}

// Snapshot implements core.Snapshotter.
func (c *CountMin) Snapshot() core.Summary { return c.Clone() }

// Bytes implements core.Summary.
func (c *CountMin) Bytes() int {
	return 8*c.depth*c.width + 16*c.depth // counters + per-row hash seeds
}

// Merge adds another Count-Min sketch built with identical parameters.
func (c *CountMin) Merge(other core.Summary) error {
	o, ok := other.(*CountMin)
	if !ok {
		return core.Incompatible("CountMin: cannot merge %T", other)
	}
	if err := c.family.Compatible(o.family); err != nil {
		return core.Incompatible("CountMin: %v", err)
	}
	if c.conservative || o.conservative {
		return core.Incompatible("CountMin: conservative sketches are not linear and cannot be merged exactly")
	}
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] += o.rows[i][j]
		}
	}
	c.n += o.n
	c.neg = c.neg || o.neg
	return nil
}

// Subtract removes another sketch's stream, leaving a sketch of the
// difference vector. Point queries switch to the median estimator.
func (c *CountMin) Subtract(other core.Summary) error {
	o, ok := other.(*CountMin)
	if !ok {
		return core.Incompatible("CountMin: cannot subtract %T", other)
	}
	if err := c.family.Compatible(o.family); err != nil {
		return core.Incompatible("CountMin: %v", err)
	}
	if c.conservative || o.conservative {
		return core.Incompatible("CountMin: conservative sketches are not linear and cannot be subtracted")
	}
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] -= o.rows[i][j]
		}
	}
	c.n -= o.n
	c.neg = true
	return nil
}

// maxStackDepth is the sketch depth up to which the per-row estimator
// scratch lives in a fixed-size stack array; deeper sketches (far past
// any δ in use) fall back to a heap slice.
const maxStackDepth = 16

// rowScratch returns depth per-row slots, backed by buf when they fit.
func rowScratch[T int | int64](buf *[maxStackDepth]T, depth int) []T {
	if depth <= maxStackDepth {
		return buf[:depth]
	}
	return make([]T, depth)
}

// median returns the median of vals, averaging the two central values for
// even lengths (rounding toward the lower). vals is modified: it is
// insertion-sorted, which for a sketch's handful of rows beats
// sort.Slice and, unlike it, allocates nothing.
func median(vals []int64) int64 {
	for i := 1; i < len(vals); i++ {
		v, j := vals[i], i
		for ; j > 0 && vals[j-1] > v; j-- {
			vals[j] = vals[j-1]
		}
		vals[j] = v
	}
	m := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[m]
	}
	return (vals[m-1] + vals[m]) / 2
}
