package streamfreq

import (
	"testing"

	"streamfreq/internal/exact"
	"streamfreq/internal/zipf"
)

func TestRegistryConstructsEveryAlgorithm(t *testing.T) {
	algos := Algorithms()
	if len(algos) != 10 {
		t.Fatalf("expected 10 registered algorithms, got %d: %v", len(algos), algos)
	}
	for _, name := range algos {
		s, err := New(name, 0.01, 42)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() == "" {
			t.Errorf("%s: empty Name()", name)
		}
		s.Update(7, 3)
		s.Update(9, 1)
		if got := s.Estimate(7); got < 3 && CounterBased(name) {
			t.Errorf("%s: Estimate(7) = %d after 3 updates", name, got)
		}
		if s.N() != 4 {
			t.Errorf("%s: N = %d, want 4", name, s.N())
		}
		if s.Bytes() <= 0 {
			t.Errorf("%s: non-positive Bytes", name)
		}
	}
}

func TestRegistryRejectsBadInput(t *testing.T) {
	if _, err := New("NOPE", 0.01, 1); err == nil {
		t.Error("unknown algorithm accepted")
	}
	for _, phi := range []float64{0, 1, -0.5, 2} {
		if _, err := New("F", phi, 1); err == nil {
			t.Errorf("phi=%v accepted", phi)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew("NOPE", 0.01, 1)
}

func TestCounterBasedClassification(t *testing.T) {
	for _, n := range []string{"F", "LC", "LCD", "SSL", "SSH"} {
		if !CounterBased(n) {
			t.Errorf("%s should be counter-based", n)
		}
	}
	for _, n := range []string{"CM", "CS", "CMH", "CSH", "CGT"} {
		if CounterBased(n) {
			t.Errorf("%s should be sketch-based", n)
		}
	}
}

// TestEveryAlgorithmFindsTheHead is the end-to-end smoke test of the
// whole public API: every registered algorithm, fed the same skewed
// stream at its design threshold, must report the top item.
func TestEveryAlgorithmFindsTheHead(t *testing.T) {
	const n = 50000
	const phi = 0.01
	g, err := zipf.NewGenerator(5000, 1.3, 99, true)
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.New()
	sums := make([]Summary, 0, len(Algorithms()))
	for _, name := range Algorithms() {
		sums = append(sums, MustNew(name, phi, 7))
	}
	for i := 0; i < n; i++ {
		it := g.Next()
		truth.Update(it, 1)
		for _, s := range sums {
			s.Update(it, 1)
		}
	}
	top := g.ItemOfRank(1)
	threshold := int64(phi * n)
	if truth.Estimate(top) <= threshold {
		t.Fatalf("test setup broken: top item count %d below threshold", truth.Estimate(top))
	}
	for _, s := range sums {
		found := false
		for _, ic := range s.Query(threshold) {
			if ic.Item == top {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s failed to report the rank-1 item", s.Name())
		}
	}
}

func TestDecodeDispatch(t *testing.T) {
	// One representative of each wire format round-trips through the
	// top-level Decode.
	summaries := []Summary{
		NewFrequent(8),
		NewSpaceSaving(8),
		NewLossyCounting(0.05),
		NewCountMin(2, 64, 3),
		NewCountSketch(3, 64, 3),
		NewCGT(2, 32, 32, 3),
	}
	h, err := NewCountMinHierarchy(HierarchyConfig{Depth: 2, Width: 64, Bits: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	summaries = append(summaries, h)
	for _, s := range summaries {
		s.Update(5, 9)
		m, ok := s.(interface{ MarshalBinary() ([]byte, error) })
		if !ok {
			t.Fatalf("%s: no MarshalBinary", s.Name())
		}
		blob, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Name(), err)
		}
		got, err := Decode(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.Name(), err)
		}
		if got.Name() != s.Name() {
			t.Errorf("decoded %s as %s", s.Name(), got.Name())
		}
		if got.Estimate(5) != s.Estimate(5) {
			t.Errorf("%s: estimate lost in round trip", s.Name())
		}
	}
	if _, err := Decode([]byte("????xxxx")); err == nil {
		t.Error("unknown magic accepted")
	}
	if _, err := Decode([]byte("ab")); err == nil {
		t.Error("short blob accepted")
	}
}

func TestFacadeConstructors(t *testing.T) {
	// Compile-time-ish coverage that each façade constructor produces a
	// working summary.
	if s := NewLossyCountingD(0.1); s.Name() != "LCD" {
		t.Errorf("NewLossyCountingD built %s", s.Name())
	}
	if s := NewSpaceSavingList(4); s.Name() != "SSL" {
		t.Errorf("NewSpaceSavingList built %s", s.Name())
	}
	if s := NewCountMinConservative(2, 16, 1); s.Name() != "CMC" {
		t.Errorf("NewCountMinConservative built %s", s.Name())
	}
	tr := NewTracked(NewCountSketch(3, 64, 1), 10)
	tr.Update(4, 2)
	if tr.Estimate(4) != 2 {
		t.Error("tracked sketch estimate wrong")
	}
	c := NewConcurrent(NewFrequent(4))
	c.Update(1, 1)
	if c.N() != 1 {
		t.Error("concurrent wrapper broken")
	}
	pl := NewPipelined(2, func() Summary { return NewSpaceSaving(8) })
	defer pl.Close()
	pl.Update(3, 2)
	pl.Drain()
	if pl.Estimate(3) != 2 {
		t.Error("pipelined wrapper broken")
	}
	csh, err := NewCountSketchHierarchy(HierarchyConfig{Depth: 2, Width: 32, Bits: 8, Seed: 1})
	if err != nil || csh.Name() != "CSH" {
		t.Error("CSH constructor broken")
	}
}
