package sketches

// Equivalence walls for the shared descent: Query and HeavyPrefixes must
// return exactly what the per-child frontier walk they replaced returned
// — the swept, row-0-filtered Count-Min kernel changes the cost of each
// child estimate, never its value.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/zipf"
)

// refQuery is the per-child walk Query used before the shared descent:
// one Estimate call per child of every above-threshold prefix, then a
// second level-0 Estimate per reported item.
func refQuery(h *Hierarchical, threshold int64) []core.ItemCount {
	if threshold <= 0 {
		threshold = 1
	}
	top := len(h.levels) - 1
	topWidth := h.universeBits - uint(top)*h.bits
	frontier := make([]uint64, 0, 1<<topWidth)
	for p := uint64(0); p < 1<<topWidth; p++ {
		if h.levels[top].Estimate(core.Item(p)) >= threshold {
			frontier = append(frontier, p)
		}
	}
	for j := top - 1; j >= 0; j-- {
		next := frontier[:0:0]
		for _, p := range frontier {
			base := p << h.bits
			for c := uint64(0); c < 1<<h.bits; c++ {
				child := base | c
				if h.levels[j].Estimate(core.Item(child)) >= threshold {
					next = append(next, child)
				}
			}
			if len(next) > h.maxCandidates {
				break
			}
		}
		frontier = next
		if len(frontier) > h.maxCandidates {
			frontier = frontier[:h.maxCandidates]
		}
	}
	out := make([]core.ItemCount, 0, len(frontier))
	for _, p := range frontier {
		out = append(out, core.ItemCount{Item: core.Item(p), Count: h.levels[0].Estimate(core.Item(p))})
	}
	core.SortByCountDesc(out)
	return out
}

// refHeavyPrefixes is the per-child walk HeavyPrefixes used before the
// shared descent.
func refHeavyPrefixes(h *Hierarchical, threshold int64) []PrefixCount {
	if threshold <= 0 {
		threshold = 1
	}
	top := len(h.levels) - 1
	topWidth := h.universeBits - uint(top)*h.bits
	perLevel := make([][]PrefixCount, len(h.levels))
	frontier := make([]uint64, 0, 1<<topWidth)
	for p := uint64(0); p < 1<<topWidth; p++ {
		if c := h.levels[top].Estimate(core.Item(p)); c >= threshold {
			frontier = append(frontier, p)
			perLevel[top] = append(perLevel[top], PrefixCount{Prefix: core.Item(p), Level: top, Count: c})
		}
	}
	for j := top - 1; j >= 0; j-- {
		next := frontier[:0:0]
		for _, p := range frontier {
			base := p << h.bits
			for c := uint64(0); c < 1<<h.bits; c++ {
				child := base | c
				if est := h.levels[j].Estimate(core.Item(child)); est >= threshold {
					next = append(next, child)
					perLevel[j] = append(perLevel[j], PrefixCount{Prefix: core.Item(child), Level: j, Count: est})
				}
			}
			if len(next) > h.maxCandidates {
				break
			}
		}
		if len(next) > h.maxCandidates {
			next = next[:h.maxCandidates]
			perLevel[j] = perLevel[j][:h.maxCandidates]
		}
		frontier = next
	}
	for j := 1; j <= top; j++ {
		childSum := make(map[core.Item]int64, len(perLevel[j-1]))
		for _, c := range perLevel[j-1] {
			childSum[core.Item(uint64(c.Prefix)>>h.bits)] += c.Count
		}
		for i := range perLevel[j] {
			perLevel[j][i].Residual = perLevel[j][i].Count - childSum[perLevel[j][i].Prefix]
		}
	}
	for i := range perLevel[0] {
		perLevel[0][i].Residual = perLevel[0][i].Count
	}
	var out []PrefixCount
	for j := top; j >= 0; j-- {
		lvl := perLevel[j]
		sortPrefixesByCountDesc(lvl)
		for i := range lvl {
			lvl[i].HHH = lvl[i].Residual >= threshold
		}
		out = append(out, lvl...)
	}
	return out
}

// loadedHierarchy returns a hierarchy of the given kind fed n Zipf items
// drawn with seed.
func loadedHierarchy(t *testing.T, mk func(HierarchyConfig) (*Hierarchical, error), cfg HierarchyConfig, n int, seed uint64) *Hierarchical {
	t.Helper()
	h, err := mk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := zipf.NewGenerator(1<<14, 1.1, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	h.UpdateBatch(g.Stream(n))
	return h
}

// checkDescentMatchesReference asserts Query and HeavyPrefixes equal the
// reference walk at each threshold. It returns the number of items the
// reference Query reported in total, so callers can assert the
// comparison was not vacuous.
func checkDescentMatchesReference(t *testing.T, h *Hierarchical, thresholds ...int64) int {
	t.Helper()
	reported := 0
	for _, thr := range thresholds {
		got, want := h.Query(thr), refQuery(h, thr)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("threshold %d: Query returned %d items, reference %d (or differing counts)", thr, len(got), len(want))
		}
		reported += len(want)
		if got, want := h.HeavyPrefixes(thr), refHeavyPrefixes(h, thr); !reflect.DeepEqual(got, want) {
			t.Errorf("threshold %d: HeavyPrefixes returned %d prefixes, reference %d (or differing fields)", thr, len(got), len(want))
		}
	}
	return reported
}

// checkNonEmptyDescent is checkDescentMatchesReference on a loaded
// sketch, where some threshold must report items.
func checkNonEmptyDescent(t *testing.T, h *Hierarchical, thresholds ...int64) {
	t.Helper()
	if checkDescentMatchesReference(t, h, thresholds...) == 0 {
		t.Fatal("no threshold reported any item: the comparison is vacuous")
	}
}

func TestDescentMatchesPerChildWalk(t *testing.T) {
	serving := HierarchyConfig{Depth: 4, Width: 2000, Bits: 8, Seed: 42}
	cases := []struct {
		name string
		mk   func(HierarchyConfig) (*Hierarchical, error)
		cfg  HierarchyConfig
	}{
		{"CMH/serving", NewCountMinHierarchy, serving},
		{"CMH/u32-b4", NewCountMinHierarchy, HierarchyConfig{Depth: 3, Width: 1000, Bits: 4, UniverseBits: 32, Seed: 5}},
		{"CMH/u20-b8", NewCountMinHierarchy, HierarchyConfig{Depth: 5, Width: 700, Bits: 8, UniverseBits: 20, Seed: 6}},
		{"CMH/u48-b16", NewCountMinHierarchy, HierarchyConfig{Depth: 4, Width: 8000, Bits: 16, UniverseBits: 48, Seed: 8}},
		{"CSH/serving", NewCountSketchHierarchy, HierarchyConfig{Depth: 5, Width: 2000, Bits: 8, Seed: 42}},
	}
	const n = 60_000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := loadedHierarchy(t, tc.mk, tc.cfg, n, 0xBE9C)
			checkNonEmptyDescent(t, h, n/10, n/100, n/1000)
		})
	}

	t.Run("CMH/merged", func(t *testing.T) {
		a := loadedHierarchy(t, NewCountMinHierarchy, serving, n, 1)
		if err := a.Merge(loadedHierarchy(t, NewCountMinHierarchy, serving, n, 2)); err != nil {
			t.Fatal(err)
		}
		checkNonEmptyDescent(t, a, 2*n/10, 2*n/100, 2*n/1000)
	})

	// Subtract flips every level to the median estimator, which keeps
	// the per-child Estimate path.
	t.Run("CMH/subtracted", func(t *testing.T) {
		a := loadedHierarchy(t, NewCountMinHierarchy, serving, 2*n, 3)
		if err := a.Subtract(loadedHierarchy(t, NewCountMinHierarchy, serving, n, 4)); err != nil {
			t.Fatal(err)
		}
		for j, lvl := range a.levels {
			if !lvl.(*CountMin).neg {
				t.Fatalf("level %d did not switch to the median estimator", j)
			}
		}
		checkNonEmptyDescent(t, a, n/10, n/100, n/1000)
	})

	// A tiny frontier cap exercises the truncation points, and bounds
	// the walk at the clamped threshold 0 → 1.
	t.Run("CMH/capped", func(t *testing.T) {
		h := loadedHierarchy(t, NewCountMinHierarchy, serving, n, 0xBE9C)
		for _, limit := range []int{1, 5, 40} {
			h.maxCandidates = limit
			checkNonEmptyDescent(t, h, n/1000, 1, 0)
		}
	})

	t.Run("empty", func(t *testing.T) {
		h, _ := NewCountMinHierarchy(serving)
		checkDescentMatchesReference(t, h, 1)
		if got := h.Query(1); got == nil {
			t.Error("Query on an empty sketch returned nil, want an empty slice")
		}
	})
}

// TestDescentConcurrentReaders runs Query and HeavyPrefixes at once on
// one frozen view — the serving shape, where many handlers share a
// snapshot. Run under -race it proves the descent writes nothing shared.
func TestDescentConcurrentReaders(t *testing.T) {
	for name, mk := range map[string]func(HierarchyConfig) (*Hierarchical, error){
		"CMH": NewCountMinHierarchy,
		"CSH": NewCountSketchHierarchy,
	} {
		t.Run(name, func(t *testing.T) {
			view := loadedHierarchy(t, mk, HierarchyConfig{Depth: 4, Width: 1000, Bits: 8, UniverseBits: 32, Seed: 11}, 20_000, 9).Clone()
			thr := view.N() / 200
			wantQ, wantH := view.Query(thr), view.HeavyPrefixes(thr)
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						if w%2 == 0 {
							if !reflect.DeepEqual(view.Query(thr), wantQ) {
								errs <- fmt.Errorf("reader %d: concurrent Query diverged", w)
								return
							}
						} else if !reflect.DeepEqual(view.HeavyPrefixes(thr), wantH) {
							errs <- fmt.Errorf("reader %d: concurrent HeavyPrefixes diverged", w)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
