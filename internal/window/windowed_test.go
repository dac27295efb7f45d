package window

import (
	"bytes"
	"encoding/binary"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/zipf"
)

func mustWindowed(t testing.TB, size, blocks, k int) *Windowed {
	t.Helper()
	s, err := NewWindowed(size, blocks, k)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func windowedStream(t testing.TB, n int, seed uint64) []core.Item {
	t.Helper()
	g, err := zipf.NewGenerator(1<<12, 1.1, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	return g.Stream(n)
}

// requireSameWindow asserts two windowed summaries agree on everything
// observable: geometry accounting, point estimates over the probe set,
// and the threshold report item for item.
func requireSameWindow(t *testing.T, label string, got, want *Windowed, threshold int64, probes []core.Item) {
	t.Helper()
	if got.N() != want.N() || got.Live() != want.Live() || got.WindowN() != want.WindowN() {
		t.Fatalf("%s: accounting N/Live/WindowN = %d/%d/%d, want %d/%d/%d",
			label, got.N(), got.Live(), got.WindowN(), want.N(), want.Live(), want.WindowN())
	}
	if got.head != want.head || got.curFill != want.curFill {
		t.Fatalf("%s: ring position head/fill = %d/%d, want %d/%d",
			label, got.head, got.curFill, want.head, want.curFill)
	}
	gq, wq := got.Query(threshold), want.Query(threshold)
	if len(gq) != len(wq) {
		t.Fatalf("%s: Query(%d): %d items vs %d", label, threshold, len(gq), len(wq))
	}
	for i := range wq {
		if gq[i] != wq[i] {
			t.Fatalf("%s: Query(%d)[%d] = %+v, want %+v", label, threshold, i, gq[i], wq[i])
		}
	}
	for _, p := range probes {
		if ge, we := got.Estimate(p), want.Estimate(p); ge != we {
			t.Fatalf("%s: Estimate(%d) = %d, want %d", label, p, ge, we)
		}
	}
}

func marshalWindowed(t *testing.T, s *Windowed) []byte {
	t.Helper()
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// exactLastW returns the exact counts of the last w items of stream.
func exactLastW(stream []core.Item, w int) map[core.Item]int64 {
	if w > len(stream) {
		w = len(stream)
	}
	counts := make(map[core.Item]int64, w)
	for _, it := range stream[len(stream)-w:] {
		counts[it]++
	}
	return counts
}

// TestWindowedBatchBoundarySplitting: whatever batch lengths the stream
// arrives in — including lengths that straddle, exactly hit, and repeat
// within block boundaries — the resulting state lands on the same block
// boundaries as the scalar feed (head/fill/accounting are a pure
// function of the arrival count) and honours the windowed guarantees
// against exact last-W truth: one-sided estimates within Slack, perfect
// recall at the φ·W operating point. Unit-length batches are moreover
// bit-identical to the scalar feed. (Exact per-counter equality across
// batch lengths is deliberately not asserted: like the registry batch
// wall, which of several tied minimum counters holds a churning
// sub-threshold item is not stable under pre-aggregation reordering.)
func TestWindowedBatchBoundarySplitting(t *testing.T) {
	const size, blocks, k = 1200, 4, 60 // blockLen 300
	const phi = 0.05
	stream := windowedStream(t, 10_000, 0xA11CE)

	scalar := mustWindowed(t, size, blocks, k)
	for _, it := range stream {
		scalar.Update(it, 1)
	}

	unit := mustWindowed(t, size, blocks, k)
	for _, it := range stream {
		unit.UpdateBatch([]core.Item{it})
	}
	if !bytes.Equal(marshalWindowed(t, unit), marshalWindowed(t, scalar)) {
		t.Fatal("unit-length batches are not bit-identical to the scalar feed")
	}

	truth := exactLastW(stream, size)
	threshold := int64(phi * float64(size))
	for _, batch := range []int{7, 299, 300, 301, 600, 4096} {
		batched := mustWindowed(t, size, blocks, k)
		rest := stream
		for len(rest) > 0 {
			n := batch
			if n > len(rest) {
				n = len(rest)
			}
			batched.UpdateBatch(rest[:n])
			rest = rest[n:]
		}
		if batched.N() != scalar.N() || batched.Live() != scalar.Live() ||
			batched.WindowN() != scalar.WindowN() ||
			batched.head != scalar.head || batched.curFill != scalar.curFill {
			t.Fatalf("batch=%d: boundary accounting diverged from scalar (N/Live/head/fill %d/%d/%d/%d vs %d/%d/%d/%d)",
				batch, batched.N(), batched.Live(), batched.head, batched.curFill,
				scalar.N(), scalar.Live(), scalar.head, scalar.curFill)
		}
		// One-sided estimates within slack on every true last-W item.
		slack := batched.Slack()
		for it, tru := range truth {
			est := batched.Estimate(it)
			if est < tru {
				t.Fatalf("batch=%d: Estimate(%d) = %d underestimates true last-W count %d", batch, it, est, tru)
			}
			if est > tru+slack {
				t.Fatalf("batch=%d: Estimate(%d) = %d exceeds true %d + slack %d", batch, it, est, tru, slack)
			}
		}
		// Perfect recall at φ·W: block summaries never underestimate.
		reported := map[core.Item]bool{}
		for _, ic := range batched.Query(threshold) {
			reported[ic.Item] = true
		}
		for it, tru := range truth {
			if tru >= threshold && !reported[it] {
				t.Fatalf("batch=%d: item %d with true last-W count %d ≥ %d missing from Query", batch, it, tru, threshold)
			}
		}
	}
}

// TestWindowedBatchDeterminism: the same batch schedule replayed twice
// produces byte-identical state — the property WAL replay (original
// batch boundaries preserved) converts into bit-identical recovery.
func TestWindowedBatchDeterminism(t *testing.T) {
	stream := windowedStream(t, 8_000, 0xBEE)
	sizes := []int{1, 700, 299, 4096, 33}
	feed := func() *Windowed {
		s := mustWindowed(t, 900, 3, 40)
		rest := stream
		for i := 0; len(rest) > 0; i++ {
			n := sizes[i%len(sizes)]
			if n > len(rest) {
				n = len(rest)
			}
			s.UpdateBatch(rest[:n])
			rest = rest[n:]
		}
		return s
	}
	if !bytes.Equal(marshalWindowed(t, feed()), marshalWindowed(t, feed())) {
		t.Fatal("identical batch schedules produced different bytes")
	}
}

// TestWindowedWeightedUpdate: a weighted update is count adjacent unit
// arrivals — it splits across block boundaries exactly where the unit
// loop would rotate, observationally identical to it.
func TestWindowedWeightedUpdate(t *testing.T) {
	const size, blocks, k = 400, 4, 20 // blockLen 100
	weighted := mustWindowed(t, size, blocks, k)
	scalar := mustWindowed(t, size, blocks, k)
	schedule := []struct {
		item  core.Item
		count int64
	}{{1, 30}, {2, 90}, {1, 250}, {3, 1}, {2, 129}, {4, 500}}
	for _, u := range schedule {
		weighted.Update(u.item, u.count)
		for i := int64(0); i < u.count; i++ {
			scalar.Update(u.item, 1)
		}
	}
	requireSameWindow(t, "weighted", weighted, scalar, 10, []core.Item{1, 2, 3, 4, 99})

	defer func() {
		if recover() == nil {
			t.Fatal("non-positive count did not panic")
		}
	}()
	weighted.Update(1, 0)
}

// TestWindowedForgetsThroughSummaryContract: the expiry behaviour of
// the underlying window survives the lift — a formerly hot item decays
// to at most Slack once a full window of other traffic has passed.
func TestWindowedForgetsThroughSummaryContract(t *testing.T) {
	s := mustWindowed(t, 1000, 4, 50)
	hot := core.Item(77)
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			s.Update(hot, 1)
		} else {
			s.Update(core.Item(10_000+i), 1)
		}
	}
	if s.Estimate(hot) < 450 {
		t.Fatalf("hot item estimate %d during its hot phase", s.Estimate(hot))
	}
	batch := make([]core.Item, 1300)
	for i := range batch {
		batch[i] = core.Item(50_000 + i)
	}
	s.UpdateBatch(batch)
	if got := s.Estimate(hot); got > s.Slack() {
		t.Fatalf("expired item estimated at %d, above slack %d", got, s.Slack())
	}
	if s.N() != 2300 {
		t.Fatalf("N = %d, want 2300", s.N())
	}
	if s.WindowN() != 1000 {
		t.Fatalf("WindowN = %d, want the window span 1000", s.WindowN())
	}
	if live := s.Live(); live < 1000 || live > 1250 {
		t.Fatalf("Live = %d, want within [W, W+W/B]", live)
	}
	st := s.WindowStats()
	if st.BoundaryExpired != st.Live-st.WindowN || st.BoundaryExpired < 0 || st.BoundaryExpired > int64(st.BlockLen) {
		t.Fatalf("WindowStats boundary accounting inconsistent: %+v", st)
	}
}

// TestWindowedCloneIndependence: the snapshot contract at the window
// level — a clone freezes the current window; rotations and arrivals on
// either side never leak to the other.
func TestWindowedCloneIndependence(t *testing.T) {
	parent := mustWindowed(t, 600, 3, 30)
	stream := windowedStream(t, 5_000, 0xC10)
	parent.UpdateBatch(stream)
	ref := parent.Clone()
	snap := parent.Clone()
	if !bytes.Equal(marshalWindowed(t, snap), marshalWindowed(t, parent)) {
		t.Fatal("clone does not encode identically to its parent")
	}
	parent.UpdateBatch(stream[:1500]) // several rotations
	if !bytes.Equal(marshalWindowed(t, snap), marshalWindowed(t, ref)) {
		t.Fatal("parent arrivals leaked into the clone")
	}
	snap.UpdateBatch(stream[:700])
	if !bytes.Equal(marshalWindowed(t, parent.Clone()), marshalWindowed(t, parent.Clone())) {
		t.Fatal("clone arrivals corrupted the parent")
	}
}

// TestWindowedMergeRecencyAligned: merging two nodes' windows unions
// their recent traffic — each node's current hot item is reported, each
// node's expired history stays expired, and the accounting (N sums,
// coverage sums, WindowN caps at the union span) holds.
func TestWindowedMergeRecencyAligned(t *testing.T) {
	const size, blocks, k = 1000, 4, 50
	mkNode := func(oldHot, newHot core.Item, seed uint64) *Windowed {
		s := mustWindowed(t, size, blocks, k)
		bg := windowedStream(t, 4_000, seed)
		// Old phase: oldHot is hot, then a full window of background +
		// newHot traffic expires it.
		for i := 0; i < 1500; i++ {
			if i%3 == 0 {
				s.Update(oldHot, 1)
			} else {
				s.Update(bg[i], 1)
			}
		}
		for i := 0; i < 1300; i++ {
			if i%4 == 0 {
				s.Update(newHot, 1)
			} else {
				s.Update(bg[1500+i], 1)
			}
		}
		return s
	}
	a := mkNode(1001, 2001, 7)
	b := mkNode(1002, 2002, 8)
	aN, bN := a.N(), b.N()

	merged := a.Clone()
	if err := merged.Merge(b); err != nil {
		t.Fatal(err)
	}
	if merged.N() != aN+bN {
		t.Fatalf("merged N = %d, want %d", merged.N(), aN+bN)
	}
	if got := merged.WindowStats().Coverage; got != 2*size {
		t.Fatalf("merged coverage = %d, want %d", got, 2*size)
	}
	if wn := merged.WindowN(); wn > 2*size || wn < int64(size) {
		t.Fatalf("merged WindowN = %d, want within (W, 2W]", wn)
	}

	// Each node's recent hot item (≈25% of its last window) must be in
	// the merged report at a 5%-of-union threshold; the estimates never
	// underestimate either node's own windowed estimate floor.
	threshold := merged.WindowN() / 20
	reported := map[core.Item]int64{}
	for _, ic := range merged.Query(threshold) {
		reported[ic.Item] = ic.Count
	}
	for _, hot := range []core.Item{2001, 2002} {
		if _, ok := reported[hot]; !ok {
			t.Fatalf("recent hot item %d missing from merged Query(%d): %v", hot, threshold, reported)
		}
	}
	if est := merged.Estimate(2001); est < a.Estimate(2001) {
		t.Fatalf("merged estimate %d below node A's own %d", est, a.Estimate(2001))
	}
	// The merged slack is the per-side slacks added: one window's slack
	// per window of coverage.
	if got, want := merged.Slack(), 2*a.Slack(); got != want {
		t.Fatalf("merged Slack = %d, want the summed per-side slack %d", got, want)
	}
	// Expired history stays expired: the old hot items decay to at most
	// the merged slack.
	for _, old := range []core.Item{1001, 1002} {
		if est := merged.Estimate(old); est > merged.Slack() {
			t.Fatalf("expired item %d estimated at %d in the merge, above merged slack %d", old, est, merged.Slack())
		}
	}

	// Merge must not mutate its operand.
	if b.N() != bN {
		t.Fatalf("merge mutated its operand: N %d → %d", bN, b.N())
	}

	// Geometry mismatches are refused with ErrIncompatible.
	for _, bad := range []*Windowed{
		mustWindowed(t, 2*size, blocks, k),
		mustWindowed(t, size, 2, k),
		mustWindowed(t, size, blocks, k+1),
	} {
		if err := a.Clone().Merge(bad); err == nil {
			t.Fatalf("geometry-mismatched merge succeeded (%+v)", bad.WindowStats())
		}
	}
	if err := a.Clone().Merge(counters.NewSpaceSavingHeap(k)); err == nil {
		t.Fatal("cross-type merge succeeded")
	}
}

// TestWindowedEncodeValidation: decode rejects forged geometry and
// truncations with errors, and a valid blob round-trips byte-exactly.
func TestWindowedEncodeValidation(t *testing.T) {
	s := mustWindowed(t, 800, 4, 40)
	s.UpdateBatch(windowedStream(t, 3_000, 5))
	blob := marshalWindowed(t, s)

	dec, err := DecodeWindowed(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalWindowed(t, dec), blob) {
		t.Fatal("decode → re-encode is not byte-identical")
	}
	if dec.Live() != s.Live() || dec.WindowN() != s.WindowN() {
		t.Fatalf("decoded accounting Live/WindowN = %d/%d, want %d/%d",
			dec.Live(), dec.WindowN(), s.Live(), s.WindowN())
	}

	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeWindowed(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	if _, err := DecodeWindowed([]byte("SS01")); err == nil {
		t.Fatal("foreign magic decoded")
	}
	// Coverage is a whole number of windows (W per merged stream), the
	// unit Slack scales by: a forged fractional coverage is refused.
	forged := bytes.Clone(blob)
	binary.LittleEndian.PutUint64(forged[4+4*8:], 800+1)
	if _, err := DecodeWindowed(forged); err == nil {
		t.Fatal("coverage that is not a multiple of W decoded")
	}
}
