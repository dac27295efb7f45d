package sketches

import (
	"testing"

	"streamfreq/internal/zipf"
)

func TestCountMinRoundTrip(t *testing.T) {
	cm := NewCountMin(4, 256, 77)
	g, _ := zipf.NewGenerator(200, 1.0, 5, true)
	for i := 0; i < 10000; i++ {
		cm.Update(g.Next(), 1)
	}
	blob, err := cm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCountMin(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != cm.N() || got.Depth() != cm.Depth() || got.Width() != cm.Width() {
		t.Fatal("header fields lost")
	}
	for r := 1; r <= 200; r++ {
		it := g.ItemOfRank(r)
		if got.Estimate(it) != cm.Estimate(it) {
			t.Fatalf("estimate mismatch after round trip for item %d", it)
		}
	}
	// Behavioural identity: decoded sketch must be mergeable with the
	// original (same seed-derived hashes).
	if err := got.Merge(cm); err != nil {
		t.Fatalf("decoded sketch incompatible with original: %v", err)
	}
}

func TestCountMinConservativeRoundTrip(t *testing.T) {
	cm := NewCountMinConservative(3, 128, 9)
	cm.Update(1, 10)
	cm.Update(2, 5)
	blob, _ := cm.MarshalBinary()
	got, err := DecodeCountMin(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "CMC" {
		t.Errorf("conservative flag lost: %s", got.Name())
	}
	if got.Estimate(1) != cm.Estimate(1) {
		t.Error("estimate mismatch")
	}
}

func TestCountSketchRoundTrip(t *testing.T) {
	cs := NewCountSketch(5, 512, 13)
	g, _ := zipf.NewGenerator(300, 1.2, 8, true)
	for i := 0; i < 20000; i++ {
		cs.Update(g.Next(), 1)
	}
	cs.Update(42, -17)
	blob, err := cs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCountSketch(blob)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 300; r++ {
		it := g.ItemOfRank(r)
		if got.Estimate(it) != cs.Estimate(it) {
			t.Fatal("estimate mismatch after round trip")
		}
	}
	if got.N() != cs.N() {
		t.Errorf("N mismatch: %d vs %d", got.N(), cs.N())
	}
}

func TestCGTRoundTrip(t *testing.T) {
	c := NewCGT(3, 128, 64, 5)
	g, _ := zipf.NewGenerator(200, 1.3, 9, true)
	for i := 0; i < 15000; i++ {
		c.Update(g.Next(), 1)
	}
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCGT(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Query(100)
	have := got.Query(100)
	if len(want) != len(have) {
		t.Fatalf("query sizes differ: %d vs %d", len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("query row %d differs", i)
		}
	}
}

func TestHierarchyRoundTrip(t *testing.T) {
	for _, mk := range []func(HierarchyConfig) (*Hierarchical, error){
		NewCountMinHierarchy, NewCountSketchHierarchy,
	} {
		h, err := mk(HierarchyConfig{Depth: 3, Width: 256, Bits: 8, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		g, _ := zipf.NewGenerator(150, 1.4, 10, true)
		for i := 0; i < 10000; i++ {
			h.Update(g.Next(), 1)
		}
		blob, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeHierarchical(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != h.Name() || got.Levels() != h.Levels() || got.N() != h.N() {
			t.Fatal("hierarchy metadata lost")
		}
		w := h.Query(50)
		v := got.Query(50)
		if len(w) != len(v) {
			t.Fatalf("%s: query sizes differ after round trip", h.Name())
		}
		for i := range w {
			if w[i] != v[i] {
				t.Fatalf("%s: query row %d differs", h.Name(), i)
			}
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	cm := NewCountMin(2, 64, 1)
	cm.Update(5, 9)
	blob, _ := cm.MarshalBinary()

	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte("XX99"), blob[4:]...),
		"truncated":      blob[:len(blob)-5],
		"trailing bytes": append(append([]byte{}, blob...), 0xFF),
	}
	for name, data := range cases {
		if _, err := DecodeCountMin(data); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}

	// Implausible dimensions: forge depth=2^40.
	forged := append([]byte{}, blob...)
	for i := 12; i < 20; i++ {
		forged[i] = 0xFF
	}
	if _, err := DecodeCountMin(forged); err == nil {
		t.Error("forged dimensions: expected decode error")
	}
}

func TestDecodeWrongTypeMagic(t *testing.T) {
	cs := NewCountSketch(2, 64, 1)
	blob, _ := cs.MarshalBinary()
	if _, err := DecodeCountMin(blob); err == nil {
		t.Error("CM decoder accepted a CS blob")
	}
	if _, err := DecodeCGT(blob); err == nil {
		t.Error("CGT decoder accepted a CS blob")
	}
	if _, err := DecodeHierarchical(blob); err == nil {
		t.Error("hierarchy decoder accepted a CS blob")
	}
}

func TestHierarchyDecodeRejectsTruncatedLevel(t *testing.T) {
	h, _ := NewCountMinHierarchy(HierarchyConfig{Depth: 2, Width: 64, Bits: 8, Seed: 1})
	h.Update(3, 5)
	blob, _ := h.MarshalBinary()
	if _, err := DecodeHierarchical(blob[:len(blob)-9]); err == nil {
		t.Error("expected truncated-level error")
	}
}

// TestHierarchyDecodeRejectsConservativeLevel: no constructor builds a
// hierarchy over conservative Count-Min, whose updates are not linear
// and so cannot take the hierarchy's collapsed batch path; a blob
// claiming one is rejected.
func TestHierarchyDecodeRejectsConservativeLevel(t *testing.T) {
	cfg := HierarchyConfig{Depth: 2, Width: 64, Bits: 8, UniverseBits: 16, Seed: 1}
	h, err := newHierarchy(cfg, "CMH", func(_ int, seed uint64) pointSketch {
		return NewCountMinConservative(cfg.Depth, cfg.Width, seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Update(3, 5)
	blob, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeHierarchical(blob); err == nil {
		t.Error("hierarchy decoder accepted a conservative Count-Min level")
	}
}
