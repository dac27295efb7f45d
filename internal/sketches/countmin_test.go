package sketches

import (
	"sort"
	"testing"
	"testing/quick"

	"streamfreq/internal/core"
	"streamfreq/internal/exact"
	"streamfreq/internal/zipf"
)

func TestCountMinNeverUnderestimates(t *testing.T) {
	g, err := zipf.NewGenerator(5000, 1.1, 71, true)
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCountMin(4, 1024, 7)
	truth := exact.New()
	for i := 0; i < 100000; i++ {
		it := g.Next()
		cm.Update(it, 1)
		truth.Update(it, 1)
	}
	for r := 1; r <= 5000; r++ {
		it := g.ItemOfRank(r)
		if cm.Estimate(it) < truth.Estimate(it) {
			t.Fatalf("item %d: CM estimate %d below true %d", it, cm.Estimate(it), truth.Estimate(it))
		}
	}
}

func TestCountMinEpsilonBound(t *testing.T) {
	// With w = e/ε, overestimation beyond εN should be rare. Check that at
	// most a small fraction of the universe violates it (δ-style bound).
	const n = 100000
	eps := 0.01
	d, w := ParamsForEpsilon(eps, 0.001)
	cm := NewCountMin(d, w, 3)
	g, _ := zipf.NewGenerator(2000, 1.0, 9, true)
	truth := exact.New()
	for i := 0; i < n; i++ {
		it := g.Next()
		cm.Update(it, 1)
		truth.Update(it, 1)
	}
	violations := 0
	for r := 1; r <= 2000; r++ {
		it := g.ItemOfRank(r)
		if cm.Estimate(it) > truth.Estimate(it)+int64(eps*n) {
			violations++
		}
	}
	if violations > 4 { // 2000 × δ=0.001 = 2 expected
		t.Errorf("%d items exceed the εN bound", violations)
	}
}

func TestCountMinParamsForEpsilon(t *testing.T) {
	d, w := ParamsForEpsilon(0.01, 0.01)
	if d < 4 || d > 6 {
		t.Errorf("depth = %d, want ≈ ln(100) ≈ 5", d)
	}
	if w < 270 || w > 275 {
		t.Errorf("width = %d, want ≈ e/0.01 ≈ 272", w)
	}
}

func TestCountMinMergeEqualsConcatenation(t *testing.T) {
	const seed = 13
	a := NewCountMin(4, 256, seed)
	b := NewCountMin(4, 256, seed)
	whole := NewCountMin(4, 256, seed)
	g, _ := zipf.NewGenerator(500, 1.0, 3, true)
	for i := 0; i < 20000; i++ {
		it := g.Next()
		if i%2 == 0 {
			a.Update(it, 1)
		} else {
			b.Update(it, 1)
		}
		whole.Update(it, 1)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 500; r++ {
		it := g.ItemOfRank(r)
		if a.Estimate(it) != whole.Estimate(it) {
			t.Fatalf("merged estimate %d != whole-stream estimate %d", a.Estimate(it), whole.Estimate(it))
		}
	}
	if a.N() != whole.N() {
		t.Errorf("N mismatch: %d vs %d", a.N(), whole.N())
	}
}

func TestCountMinMergeRejectsMismatchedSeeds(t *testing.T) {
	a := NewCountMin(4, 256, 1)
	b := NewCountMin(4, 256, 2)
	if err := a.Merge(b); err == nil {
		t.Error("expected seed mismatch error")
	}
	if err := a.Merge(NewCountMin(5, 256, 1)); err == nil {
		t.Error("expected depth mismatch error")
	}
	if err := a.Merge(NewCountSketch(4, 256, 1)); err == nil {
		t.Error("expected type mismatch error")
	}
}

func TestCountMinSubtractDifference(t *testing.T) {
	const seed = 21
	a := NewCountMin(5, 512, seed)
	b := NewCountMin(5, 512, seed)
	// Stream A: item 1 ×100, item 2 ×50. Stream B: item 1 ×60, item 3 ×70.
	for i := 0; i < 100; i++ {
		a.Update(1, 1)
	}
	for i := 0; i < 50; i++ {
		a.Update(2, 1)
	}
	for i := 0; i < 60; i++ {
		b.Update(1, 1)
	}
	for i := 0; i < 70; i++ {
		b.Update(3, 1)
	}
	if err := a.Subtract(b); err != nil {
		t.Fatal(err)
	}
	// Sparse sketch: differences are exact here (no collisions expected
	// with 3 items in 512 buckets; median estimator is robust anyway).
	if got := a.Estimate(1); got != 40 {
		t.Errorf("difference for item 1 = %d, want 40", got)
	}
	if got := a.Estimate(2); got != 50 {
		t.Errorf("difference for item 2 = %d, want 50", got)
	}
	if got := a.Estimate(3); got != -70 {
		t.Errorf("difference for item 3 = %d, want -70", got)
	}
}

func TestCountMinDeletionsSwitchToMedian(t *testing.T) {
	cm := NewCountMin(5, 128, 4)
	cm.Update(1, 10)
	cm.Update(1, -4)
	if got := cm.Estimate(1); got != 6 {
		t.Errorf("estimate after deletion = %d, want 6", got)
	}
	if cm.N() != 6 {
		t.Errorf("N = %d, want 6", cm.N())
	}
}

func TestConservativeUpdateMoreAccurate(t *testing.T) {
	// Conservative update estimates are sandwiched: true ≤ CU ≤ plain CM.
	g, _ := zipf.NewGenerator(3000, 0.9, 17, true)
	plain := NewCountMin(4, 256, 5)
	cons := NewCountMinConservative(4, 256, 5)
	truth := exact.New()
	for i := 0; i < 60000; i++ {
		it := g.Next()
		plain.Update(it, 1)
		cons.Update(it, 1)
		truth.Update(it, 1)
	}
	var sumPlain, sumCons int64
	for r := 1; r <= 3000; r++ {
		it := g.ItemOfRank(r)
		tru := truth.Estimate(it)
		p, c := plain.Estimate(it), cons.Estimate(it)
		if c < tru {
			t.Fatalf("conservative underestimated item %d: %d < %d", it, c, tru)
		}
		if c > p {
			t.Fatalf("conservative exceeded plain for item %d: %d > %d", it, c, p)
		}
		sumPlain += p - tru
		sumCons += c - tru
	}
	if sumCons >= sumPlain {
		t.Errorf("conservative total error %d not below plain %d", sumCons, sumPlain)
	}
}

func TestConservativeRejectsDeletionsAndMerge(t *testing.T) {
	c := NewCountMinConservative(2, 64, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on negative update")
			}
		}()
		c.Update(1, -1)
	}()
	if err := c.Merge(NewCountMinConservative(2, 64, 1)); err == nil {
		t.Error("expected merge rejection for conservative sketches")
	}
}

func TestCountMinQueryReturnsNil(t *testing.T) {
	cm := NewCountMin(2, 64, 1)
	cm.Update(1, 5)
	if cm.Query(1) != nil {
		t.Error("flat sketch Query should return nil")
	}
}

func TestCountMinPanicsOnBadParams(t *testing.T) {
	for _, p := range [][2]int{{0, 10}, {10, 0}, {-1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", p)
				}
			}()
			NewCountMin(p[0], p[1], 1)
		}()
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []int64
		want int64
	}{
		{[]int64{3}, 3},
		{[]int64{1, 2, 3}, 2},
		{[]int64{5, 1}, 3},
		{[]int64{4, 2, 6, 8}, 5},
		{[]int64{-10, 0, 10}, 0},
	}
	for _, c := range cases {
		in := append([]int64(nil), c.in...)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestMedianMatchesSortedReference pins the insertion-sort median to the
// sort.Slice median it replaced, on random row counts and values
// (duplicates, negatives, even and odd lengths).
func TestMedianMatchesSortedReference(t *testing.T) {
	f := func(raw []int8, big bool) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
			if big {
				vals[i] <<= 40
			}
		}
		ref := append([]int64(nil), vals...)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		m := len(ref) / 2
		want := ref[m]
		if len(ref)%2 == 0 {
			want = (ref[m-1] + ref[m]) / 2
		}
		return median(vals) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCountMinPropertyUpperBound(t *testing.T) {
	f := func(items []uint8) bool {
		cm := NewCountMin(3, 64, 99)
		truth := exact.New()
		for _, b := range items {
			it := core.Item(b % 16)
			cm.Update(it, 1)
			truth.Update(it, 1)
		}
		for v := core.Item(0); v < 16; v++ {
			if cm.Estimate(v) < truth.Estimate(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEstimatorsDoNotAllocate holds the per-row estimator scratch on the
// stack: median estimates and conservative updates allocate nothing at
// any depth up to maxStackDepth.
func TestEstimatorsDoNotAllocate(t *testing.T) {
	cs := NewCountSketch(maxStackDepth, 256, 1)
	signed := NewCountMin(5, 256, 2)
	signed.Update(7, -1) // switches to the median estimator
	cmc := NewCountMinConservative(4, 256, 3)
	cgt := NewCGT(5, 64, 32, 4)
	cgt.Update(9, -1)
	for name, op := range map[string]func(){
		"CS.Estimate":        func() { cs.Estimate(42) },
		"CM.estimateMedian":  func() { signed.Estimate(42) },
		"CMC.Update":         func() { cmc.Update(42, 1) },
		"CGT.Estimate (neg)": func() { cgt.Estimate(42) },
	} {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
		}
	}
}
