package counters

import (
	"bytes"
	"encoding/binary"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/zipf"
)

func TestFrequentRoundTrip(t *testing.T) {
	f := NewFrequent(32)
	g, _ := zipf.NewGenerator(500, 1.1, 3, true)
	for i := 0; i < 20000; i++ {
		f.Update(g.Next(), 1)
	}
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrequent(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != f.N() || got.K() != f.K() || got.MaxError() != f.MaxError() {
		t.Fatal("metadata lost in round trip")
	}
	for r := 1; r <= 500; r++ {
		it := g.ItemOfRank(r)
		if got.Estimate(it) != f.Estimate(it) {
			t.Fatalf("estimate mismatch for item %d", it)
		}
	}
	// Decoded summary must continue to work.
	got.Update(g.ItemOfRank(1), 5)
	if got.Estimate(g.ItemOfRank(1)) != f.Estimate(g.ItemOfRank(1))+5 {
		t.Error("decoded summary broken after further updates")
	}
}

func TestSpaceSavingRoundTrip(t *testing.T) {
	s := NewSpaceSavingHeap(40)
	g, _ := zipf.NewGenerator(600, 1.2, 7, true)
	for i := 0; i < 30000; i++ {
		s.Update(g.Next(), 1)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpaceSavingHeap(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != s.N() || got.Min() != s.Min() {
		t.Fatal("metadata lost")
	}
	for r := 1; r <= 600; r++ {
		it := g.ItemOfRank(r)
		if got.Estimate(it) != s.Estimate(it) || got.GuaranteedCount(it) != s.GuaranteedCount(it) {
			t.Fatalf("estimate mismatch for item %d", it)
		}
	}
}

func TestLossyCountingRoundTrip(t *testing.T) {
	for _, v := range []LCVariant{VariantLC, VariantLCD} {
		l := NewLossyCounting(0.005, v)
		g, _ := zipf.NewGenerator(400, 1.0, 9, true)
		for i := 0; i < 25000; i++ {
			l.Update(g.Next(), 1)
		}
		blob, err := l.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeLossyCounting(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != l.Name() || got.N() != l.N() || got.EntryCount() != l.EntryCount() {
			t.Fatal("metadata lost")
		}
		for r := 1; r <= 400; r++ {
			it := g.ItemOfRank(r)
			if got.Estimate(it) != l.Estimate(it) {
				t.Fatalf("estimate mismatch for item %d", it)
			}
		}
	}
}

func TestCounterDecodeRejectsCorruption(t *testing.T) {
	f := NewFrequent(8)
	f.Update(1, 5)
	f.Update(2, 3)
	fb, _ := f.MarshalBinary()

	s := NewSpaceSavingHeap(8)
	s.Update(1, 5)
	sb, _ := s.MarshalBinary()

	l := NewLossyCounting(0.1, VariantLC)
	l.Update(1, 5)
	lb, _ := l.MarshalBinary()

	if _, err := DecodeFrequent(fb[:len(fb)-3]); err == nil {
		t.Error("truncated Frequent accepted")
	}
	if _, err := DecodeFrequent(sb); err == nil {
		t.Error("Frequent decoder accepted SpaceSaving blob")
	}
	if _, err := DecodeSpaceSavingHeap(lb); err == nil {
		t.Error("SpaceSaving decoder accepted LossyCounting blob")
	}
	if _, err := DecodeLossyCounting(append(lb, 9)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := DecodeLossyCounting([]byte("LC01")); err == nil {
		t.Error("header-only blob accepted")
	}

	// Forged entry count exceeding k must be rejected.
	forged := append([]byte{}, fb...)
	forged[4+24] = 0xFF // entries field low byte
	if _, err := DecodeFrequent(forged); err == nil {
		t.Error("forged entry count accepted")
	}
}

// TestFrequentDecodeRejectsForgedAccounting: an FQ01 blob whose
// accounting no Misra–Gries run can produce is refused — negative n or
// decrement mass (a negative MaxError would drop every item from
// Query), or estimates the decrement mass cannot account for
// (Σestimates + (k+1)·MaxError > n). Merged summaries, where that sum
// falls short of n, still decode.
func TestFrequentDecodeRejectsForgedAccounting(t *testing.T) {
	const k = 3
	f := NewFrequent(k)
	for i := 0; i < 200; i++ {
		f.Update(core.Item(i%7), int64(1+i%3))
	}
	if f.MaxError() == 0 {
		t.Fatal("stream never decremented; the forgeries below need MaxError > 0")
	}
	blob, _ := f.MarshalBinary()
	if _, err := DecodeFrequent(blob); err != nil {
		t.Fatalf("genuine blob rejected: %v", err)
	}
	const nOff, decsOff, entry0 = 4 + 8, 4 + 16, 4 + 32
	forge := func(off int, v int64) []byte {
		b := bytes.Clone(blob)
		binary.LittleEndian.PutUint64(b[off:], uint64(v))
		return b
	}
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"negative n", forge(nOff, -1)},
		{"negative MaxError", forge(decsOff, -1)},
		{"MaxError past n/(k+1)", forge(decsOff, f.N()/(k+1)+1)},
		{"n below the mass identity", forge(nOff, f.N()-1)},
		{"estimate past n", forge(entry0+8, f.N()+1)},
		// Three estimates of 2^62 wrap an int64 sum back to a small
		// positive slack; the sum must be bounded as it accumulates.
		{"estimates overflow", func() []byte {
			b := []byte(magicFQ)
			for _, v := range []uint64{k, 400, 0, 3, 1, 1 << 62, 2, 1 << 62, 3, 1 << 62} {
				b = binary.LittleEndian.AppendUint64(b, v)
			}
			return b
		}()},
		{"duplicate item", func() []byte {
			b := bytes.Clone(blob)
			copy(b[entry0+16:entry0+24], b[entry0:entry0+8])
			return b
		}()},
	} {
		if _, err := DecodeFrequent(tc.blob); err == nil {
			t.Errorf("%s: forged Frequent blob accepted", tc.name)
		}
	}

	g := NewFrequent(k)
	for i := 0; i < 100; i++ {
		g.Update(core.Item(10+i%5), 1)
	}
	if err := f.Merge(g); err != nil {
		t.Fatal(err)
	}
	merged, _ := f.MarshalBinary()
	dec, err := DecodeFrequent(merged)
	if err != nil {
		t.Fatalf("merged blob rejected: %v", err)
	}
	if err := dec.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCounterRoundTripPreservesMergeability(t *testing.T) {
	a := NewSpaceSavingHeap(16)
	b := NewSpaceSavingHeap(16)
	g, _ := zipf.NewGenerator(100, 1.0, 11, true)
	for i := 0; i < 5000; i++ {
		it := g.Next()
		a.Update(it, 1)
		b.Update(it, 1)
	}
	blob, _ := a.MarshalBinary()
	decoded, err := DecodeSpaceSavingHeap(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.Merge(b); err != nil {
		t.Fatalf("decoded summary not mergeable: %v", err)
	}
	if decoded.N() != a.N()+b.N() {
		t.Errorf("merged N = %d, want %d", decoded.N(), a.N()+b.N())
	}
}

// TestSlabDecodeReleasesOnCorruption: a slab-backed reload of a corrupt
// SS01 blob must hand its block back on every rejection path, so a
// tenant table fed bad blobs keeps its LiveBlocks accounting exact.
func TestSlabDecodeReleasesOnCorruption(t *testing.T) {
	s := NewSpaceSavingHeap(8)
	s.Update(1, 5)
	s.Update(2, 3)
	s.Update(3, 1)
	blob, _ := s.MarshalBinary()
	const entry0 = 4 + 3*8 // magic, k, n, entry count
	corrupt := func(edit func(b []byte) []byte) []byte {
		return edit(append([]byte(nil), blob...))
	}
	cases := map[string][]byte{
		"err above count": corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[entry0+16:], 99)
			return b
		}),
		"duplicate item": corrupt(func(b []byte) []byte {
			copy(b[entry0+24:entry0+32], b[entry0:entry0+8])
			return b
		}),
		"trailing byte": corrupt(func(b []byte) []byte { return append(b, 0) }),
		"truncated":     corrupt(func(b []byte) []byte { return b[:len(b)-1] }),
	}
	sl := NewSlab()
	for name, bad := range cases {
		before := sl.Stats().LiveBlocks
		if _, err := sl.DecodeSpaceSaving(bad); err == nil {
			t.Fatalf("%s: corrupt blob accepted", name)
		}
		if after := sl.Stats().LiveBlocks; after != before {
			t.Fatalf("%s: LiveBlocks %d after a rejected decode, want %d", name, after, before)
		}
	}
	good, err := sl.DecodeSpaceSaving(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Check(); err != nil {
		t.Fatal(err)
	}
	if got := sl.Stats().LiveBlocks; got != 1 {
		t.Fatalf("LiveBlocks = %d after one good decode, want 1", got)
	}
	good.Release()
	if got := sl.Stats().LiveBlocks; got != 0 {
		t.Fatalf("LiveBlocks = %d after Release, want 0", got)
	}
}
