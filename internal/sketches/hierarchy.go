package sketches

import (
	"fmt"

	"streamfreq/internal/core"
)

// pointSketch is the subset of sketch behaviour the hierarchy needs from
// each of its per-level sketches.
type pointSketch interface {
	core.Summary
	core.Merger
	core.Subtractor
	// addPairs adds counts[k] occurrences of items[k] for every k.
	addPairs(items []core.Item, counts []int64)
}

// Hierarchical answers heavy-hitter queries from a sketch by the dyadic
// decomposition the paper uses for CMH (and equivalently over Count
// Sketch): one sketch per prefix granularity of the item universe. A
// query walks down from the coarsest level, expanding only the prefixes
// whose estimated weight reaches the threshold — the standard
// divide-and-conquer search, with expected O((1/φ)·b·log_b(U)) child
// estimates for branching factor b.
//
// The pruning bounds the number of child estimates; their unit cost sets
// the latency. At the serving geometry (φ=0.001 → depth 4, width 2000,
// b=256 over 64 bits) a 200k-item Zipf sketch has 234 heavy prefixes at
// the top level and ~92–97 on each level below, so one descent estimates
// 204k children. A per-child Estimate (an interface call, a mulmod and
// a hardware divide per row, a mispredicted row minimum) costs ~60 ns:
// ~13 ms per query. Insert-only Count-Min levels instead take a swept
// kernel (CountMin.heavyRun): row 0 is evaluated by stepping the
// polynomial across each 256-child run with a Barrett reduction, and
// only the ~6% of children whose row-0 counter clears the threshold
// touch the other rows — ~9 ns per child, ~2 ms per Query or
// HeavyPrefixes (BenchmarkHierarchyTopK, BenchmarkHHHQuery, 2-vCPU
// Xeon). Count Sketch and signed Count-Min levels keep per-child
// Estimate.
//
// Updates are the expensive side: an arrival touches d rows on each of
// the L = ⌈universeBits/bits⌉ levels, 32 hashed increments at the
// serving geometry (d=4, L=8). The levels are linear, so UpdateBatch
// collapses the batch to (item, count) pairs first and pays those d·L
// increments per distinct item per batch, not per arrival; the
// byte-wide top level, with at most 256 prefixes, is collapsed further.
// On 4096-item batches of a Zipf z=1.0 stream (~60% distinct per batch)
// that took BenchmarkUpdateBatch/CMH from 317 to 201 ns per item and
// CSH from 633 to 434 (medians of 10 same-run pairs, 2-vCPU Xeon).
//
// Because Count-Min never underestimates, a CM hierarchy has perfect
// recall; a Count-Sketch hierarchy (two-sided error) can miss items whose
// prefix estimates dip below threshold, the recall gap the paper's sketch
// plots show.
type Hierarchical struct {
	levels       []pointSketch // levels[j] sketches items >> (j*bits)
	bits         uint          // log2 of the branching factor
	universeBits uint
	n            int64
	name         string
	// maxCandidates caps the per-level frontier to bound worst-case query
	// work on adversarial thresholds.
	maxCandidates int
}

// HierarchyConfig parameterizes a Hierarchical sketch.
type HierarchyConfig struct {
	// Depth and Width are the per-level sketch dimensions.
	Depth, Width int
	// Bits is log2 of the branching factor (default 8: 256-way fanout,
	// 8 levels for a 64-bit universe).
	Bits uint
	// UniverseBits is the number of significant item bits (default 64).
	UniverseBits uint
	// Seed derives all per-level hash seeds deterministically.
	Seed uint64
}

func (cfg *HierarchyConfig) normalize() error {
	if cfg.Depth <= 0 || cfg.Width <= 0 {
		return fmt.Errorf("sketches: hierarchy requires positive depth and width")
	}
	if cfg.Bits == 0 {
		cfg.Bits = 8
	}
	if cfg.UniverseBits == 0 {
		cfg.UniverseBits = 64
	}
	if cfg.Bits > 16 {
		return fmt.Errorf("sketches: hierarchy branching 2^%d too large", cfg.Bits)
	}
	if cfg.UniverseBits > 64 {
		return fmt.Errorf("sketches: universe bits %d exceeds 64", cfg.UniverseBits)
	}
	return nil
}

// levelCount returns the number of levels for the configuration.
func (cfg HierarchyConfig) levelCount() int {
	return int((cfg.UniverseBits + cfg.Bits - 1) / cfg.Bits)
}

// NewCountMinHierarchy builds the paper's CMH structure.
func NewCountMinHierarchy(cfg HierarchyConfig) (*Hierarchical, error) {
	return newHierarchy(cfg, "CMH", func(level int, seed uint64) pointSketch {
		return NewCountMin(cfg.Depth, cfg.Width, seed)
	})
}

// NewCountSketchHierarchy builds the equivalent structure over Count
// Sketch rows ("CSH").
func NewCountSketchHierarchy(cfg HierarchyConfig) (*Hierarchical, error) {
	return newHierarchy(cfg, "CSH", func(level int, seed uint64) pointSketch {
		return NewCountSketch(cfg.Depth, cfg.Width, seed)
	})
}

func newHierarchy(cfg HierarchyConfig, name string, mk func(level int, seed uint64) pointSketch) (*Hierarchical, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	h := &Hierarchical{
		bits:          cfg.Bits,
		universeBits:  cfg.UniverseBits,
		name:          name,
		maxCandidates: 1 << 20,
	}
	for j := 0; j < cfg.levelCount(); j++ {
		// Per-level seeds derived from the base seed keep same-config
		// hierarchies mergeable.
		h.levels = append(h.levels, mk(j, cfg.Seed+uint64(j)*0x9e3779b97f4a7c15))
	}
	return h, nil
}

// Name implements core.Summary.
func (h *Hierarchical) Name() string { return h.name }

// N implements core.Summary.
func (h *Hierarchical) N() int64 { return h.n }

// Levels returns the number of dyadic levels.
func (h *Hierarchical) Levels() int { return len(h.levels) }

// Update feeds every level's sketch with the item's prefix at that
// level's granularity.
func (h *Hierarchical) Update(x core.Item, count int64) {
	h.n += count
	xv := uint64(x)
	if h.universeBits < 64 {
		xv &= (1 << h.universeBits) - 1
	}
	for j, s := range h.levels {
		s.Update(core.Item(xv>>(uint(j)*h.bits)), count)
	}
}

// UpdateBatch implements core.BatchUpdater: the batch is collapsed once
// to (item, count) pairs (see core.Collapse) and addPairs feeds every
// level its prefixes with their counts. The level sketches are linear,
// so the result is bit-identical to the scalar Update loop.
func (h *Hierarchical) UpdateBatch(items []core.Item) {
	core.Collapse(items, h.addPairs)
}

// addPairs masks the collapsed items to the universe in place — pairs
// that agree on the universe bits then land on identical cells — and
// walks the levels finest first, feeding each level sketch's row-major
// kernel and shifting the items to the next level's prefixes in place.
//
// The coarsest level is re-collapsed when its prefixes fit a stack
// array: a 4096-item Zipf batch keeps ~2000 distinct items, but a
// byte-wide top level has at most 256 prefixes, so summing by direct
// index first cuts that level's hashed increments ~8×
// (BenchmarkUpdateBatch CMH and CSH got faster in 15 and 13 of 16
// same-run pairs). The next level down has 65536 possible prefixes,
// which a scrambled batch barely repeats, so it is not re-collapsed.
func (h *Hierarchical) addPairs(items []core.Item, counts []int64) {
	for _, cnt := range counts {
		h.n += cnt
	}
	if h.universeBits < 64 {
		mask := core.Item(1)<<h.universeBits - 1
		for i := range items {
			items[i] &= mask
		}
	}
	top := len(h.levels) - 1
	for j, s := range h.levels {
		if j > 0 {
			for i := range items {
				items[i] >>= h.bits
			}
		}
		if j == top && h.universeBits-uint(top)*h.bits <= topCollapseBits && len(items) > 1<<topCollapseBits {
			var sums [1 << topCollapseBits]int64
			for k, p := range items {
				sums[p] += counts[k]
			}
			items, counts = items[:0], counts[:0]
			for p, c := range sums {
				if c != 0 {
					items = append(items, core.Item(p))
					counts = append(counts, c)
				}
			}
		}
		s.addPairs(items, counts)
	}
}

// topCollapseBits is the widest coarsest level, in prefix bits, whose
// pairs addPairs re-collapses by direct index.
const topCollapseBits = 8

// Check verifies the hierarchy's structural invariants (the tests run
// it after ingest and merge): every arrival reaches every level,
// so each level's N equals the hierarchy's N, and each level sketch
// passes its own Check when it has one.
func (h *Hierarchical) Check() error {
	for j, s := range h.levels {
		if s.N() != h.n {
			return fmt.Errorf("sketches: hierarchy level %d has N = %d, want %d", j, s.N(), h.n)
		}
		if c, ok := s.(interface{ Check() error }); ok {
			if err := c.Check(); err != nil {
				return fmt.Errorf("sketches: hierarchy level %d: %w", j, err)
			}
		}
	}
	return nil
}

// Estimate returns the full-resolution (level-0) estimate.
func (h *Hierarchical) Estimate(x core.Item) int64 {
	xv := uint64(x)
	if h.universeBits < 64 {
		xv &= (1 << h.universeBits) - 1
	}
	return h.levels[0].Estimate(core.Item(xv))
}

// Query descends the dyadic tree, returning the items whose level-0
// estimate reaches threshold, in descending estimate order. The counts
// are the estimates the descent computed at level 0.
func (h *Hierarchical) Query(threshold int64) []core.ItemCount {
	out := h.descend(threshold)[0]
	if out == nil {
		out = []core.ItemCount{}
	}
	core.SortByCountDesc(out)
	return out
}

// descend is the top-down frontier walk Query and HeavyPrefixes share.
// It returns, per level, every prefix whose estimate reaches threshold
// (at least 1) together with that estimate, in ascending prefix order;
// below the coarsest level only children of reported prefixes are
// estimated, and a level's report is capped at maxCandidates. It reads
// the level sketches only, so concurrent calls on one frozen hierarchy
// are safe.
func (h *Hierarchical) descend(threshold int64) [][]core.ItemCount {
	if threshold <= 0 {
		// A non-positive threshold would force full-universe enumeration.
		threshold = 1
	}
	top := len(h.levels) - 1
	topWidth := h.universeBits - uint(top)*h.bits // ≤ h.bits by construction
	perLevel := make([][]core.ItemCount, len(h.levels))
	perLevel[top] = h.heavyRun(top, 0, 1<<topWidth, threshold, nil)
	for j := top - 1; j >= 0; j-- {
		var next []core.ItemCount
		for _, p := range perLevel[j+1] {
			next = h.heavyRun(j, uint64(p.Item)<<h.bits, 1<<h.bits, threshold, next)
			if len(next) > h.maxCandidates {
				next = next[:h.maxCandidates]
				break
			}
		}
		perLevel[j] = next
	}
	return perLevel
}

// heavyRun appends to dst every prefix in the run x0 … x0+n−1 whose
// level-j estimate reaches threshold. Insert-only Count-Min levels take
// the swept, row-0-filtered kernel; Count-Min levels on the median
// estimator (signed, after Subtract) and Count Sketch levels estimate
// child by child.
func (h *Hierarchical) heavyRun(j int, x0, n uint64, threshold int64, dst []core.ItemCount) []core.ItemCount {
	s := h.levels[j]
	if cm, ok := s.(*CountMin); ok && !cm.neg && !cm.conservative {
		return cm.heavyRun(x0, n, threshold, dst)
	}
	for c := uint64(0); c < n; c++ {
		if est := s.Estimate(core.Item(x0 + c)); est >= threshold {
			dst = append(dst, core.ItemCount{Item: core.Item(x0 + c), Count: est})
		}
	}
	return dst
}

// Clone returns an independent deep copy, cloning every level sketch
// through its own Snapshotter implementation.
func (h *Hierarchical) Clone() *Hierarchical {
	nh := &Hierarchical{
		bits:          h.bits,
		universeBits:  h.universeBits,
		n:             h.n,
		name:          h.name,
		maxCandidates: h.maxCandidates,
		levels:        make([]pointSketch, len(h.levels)),
	}
	for j, lvl := range h.levels {
		sn, ok := lvl.(core.Snapshotter)
		if !ok {
			panic("sketches: hierarchy level sketch does not implement Snapshotter")
		}
		nh.levels[j] = sn.Snapshot().(pointSketch)
	}
	return nh
}

// Snapshot implements core.Snapshotter.
func (h *Hierarchical) Snapshot() core.Summary { return h.Clone() }

// Bytes sums the level sketches.
func (h *Hierarchical) Bytes() int {
	total := 0
	for _, s := range h.levels {
		total += s.Bytes()
	}
	return total
}

// Merge folds another hierarchy level-by-level. Both must have been built
// with identical configurations (including seed).
func (h *Hierarchical) Merge(other core.Summary) error {
	o, ok := other.(*Hierarchical)
	if !ok {
		return core.Incompatible("Hierarchical: cannot merge %T", other)
	}
	if err := h.compatible(o); err != nil {
		return err
	}
	for j := range h.levels {
		if err := h.levels[j].Merge(o.levels[j]); err != nil {
			return err
		}
	}
	h.n += o.n
	return nil
}

// Subtract removes another hierarchy's stream level-by-level.
func (h *Hierarchical) Subtract(other core.Summary) error {
	o, ok := other.(*Hierarchical)
	if !ok {
		return core.Incompatible("Hierarchical: cannot subtract %T", other)
	}
	if err := h.compatible(o); err != nil {
		return err
	}
	for j := range h.levels {
		if err := h.levels[j].Subtract(o.levels[j]); err != nil {
			return err
		}
	}
	h.n -= o.n
	return nil
}

func (h *Hierarchical) compatible(o *Hierarchical) error {
	if h.name != o.name || h.bits != o.bits || h.universeBits != o.universeBits || len(h.levels) != len(o.levels) {
		return core.Incompatible("Hierarchical: configuration mismatch")
	}
	return nil
}
