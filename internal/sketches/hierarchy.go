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
	// scratch holds per-level prefix buffers between UpdateBatch calls
	// (retained like other batch implementations' scratch state; a single
	// hierarchy's batch path is not safe for concurrent use, exactly like
	// Update).
	scratch []core.Item
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

// UpdateBatch implements core.BatchUpdater: for each level it rewrites
// the batch into that level's prefixes in a retained scratch buffer and
// feeds it through the level sketch's native batch path, so the per-row
// hash-state hoisting of the flat sketches applies per level. The level
// sketches are linear, so the result is bit-identical to the scalar
// Update loop.
func (h *Hierarchical) UpdateBatch(items []core.Item) {
	if len(items) == 0 {
		return
	}
	if cap(h.scratch) < len(items) {
		h.scratch = make([]core.Item, len(items))
	}
	buf := h.scratch[:len(items)]
	mask := ^uint64(0)
	if h.universeBits < 64 {
		mask = uint64(1)<<h.universeBits - 1
	}
	for j, s := range h.levels {
		shift := uint(j) * h.bits
		for i, x := range items {
			buf[i] = core.Item(uint64(x) & mask >> shift)
		}
		core.UpdateAll(s, buf)
	}
	h.n += int64(len(items))
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
