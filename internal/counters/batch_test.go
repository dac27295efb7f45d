package counters

import (
	"bytes"
	"fmt"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/prng"
)

// batchTestStream is a deterministic skewed stream over a small universe
// so the k-counter summaries run at capacity with steady evictions.
func batchTestStream(n int) []core.Item {
	rng := prng.New(0xBA7C4)
	out := make([]core.Item, n)
	for i := range out {
		// Two-tier mix: half the arrivals from a 16-item head, half from
		// a 4096-item tail.
		if rng.Uint64()&1 == 0 {
			out[i] = core.Item(rng.Uint64n(16))
		} else {
			out[i] = core.Item(1000 + rng.Uint64n(4096))
		}
	}
	return out
}

// entriesEqual compares two descending (item, estimate) reports.
func entriesEqual(a, b []core.ItemCount) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// headThreshold separates the stream's 16-item head tier (counts near
// n/32) from the tail churn zone (counts near the floor n/k): above it,
// batched and scalar ingest must agree bit for bit — head items are
// admitted while slots are free (zero inherited error) and never sink
// to the minimum, so aggregation cannot touch them. Below it sit the
// tied floor counters, whose occupants are not stable under any
// reordering of arrivals (the root-package equivalence test pins the
// same boundary at the φn operating point).
const headThreshold = 600

// checkSpaceSavingBatch compares a batched ingest against its scalar
// twin (exact above headThreshold) and against ground truth (the
// Space-Saving invariants, which hold for every estimate).
func checkSpaceSavingBatch(t *testing.T, label string, scalar, batched core.Summary, stream []core.Item, k int) {
	t.Helper()
	if scalar.N() != batched.N() {
		t.Fatalf("%s: N %d vs %d", label, batched.N(), scalar.N())
	}
	if !entriesEqual(scalar.Query(headThreshold), batched.Query(headThreshold)) {
		t.Fatalf("%s: head reports diverge\nscalar:  %v\nbatched: %v",
			label, scalar.Query(headThreshold), batched.Query(headThreshold))
	}
	truth := make(map[core.Item]int64)
	for _, it := range stream {
		truth[it]++
	}
	floor := batched.N() / int64(k) // Min() ≤ n/k, the replacement-error bound
	for it, true_ := range truth {
		est := batched.Estimate(it)
		if est < true_ {
			t.Fatalf("%s: Estimate(%d) = %d underestimates true %d", label, it, est, true_)
		}
		if est > true_+floor {
			t.Fatalf("%s: Estimate(%d) = %d exceeds true %d + n/k %d", label, it, est, true_, floor)
		}
	}
}

// TestSpaceSavingHeapBatch checks the heap variant's batch path across
// batch lengths that do and do not divide the stream.
func TestSpaceSavingHeapBatch(t *testing.T) {
	stream := batchTestStream(30_000)
	const k = 64
	scalar := NewSpaceSavingHeap(k)
	for _, it := range stream {
		scalar.Update(it, 1)
	}
	truth := make(map[core.Item]int64)
	for _, it := range stream {
		truth[it]++
	}
	for _, batch := range []int{1, 13, 256, 4096} {
		batched := NewSpaceSavingHeap(k)
		core.UpdateBatches(batched, stream, batch)
		label := fmt.Sprintf("SSH/batch=%d", batch)
		checkSpaceSavingBatch(t, label, scalar, batched, stream, k)
		checkSpaceSavingKernel(t, label, batched, truth)
	}
}

// TestSpaceSavingListBatch is the Stream-Summary counterpart, and
// additionally checks the bucket list's structural invariants survive
// weighted bulk application.
func TestSpaceSavingListBatch(t *testing.T) {
	stream := batchTestStream(30_000)
	const k = 64
	scalar := NewSpaceSavingList(k)
	for _, it := range stream {
		scalar.Update(it, 1)
	}
	batched := NewSpaceSavingList(k)
	core.UpdateBatches(batched, stream, 512)
	if !batched.validate() {
		t.Fatal("batched ingest corrupted the Stream-Summary structure")
	}
	checkSpaceSavingBatch(t, "SSL", scalar, batched, stream, k)
}

// TestFrequentBatchWithinDeficit checks the Misra–Gries batch path keeps
// every estimate inside the deterministic deficit envelope of the scalar
// run (MG's decrement schedule is order-sensitive, so bit-equality is
// not the contract — see the package-level equivalence test in the root
// package), and that the n and error accounting stay exact.
func TestFrequentBatchWithinDeficit(t *testing.T) {
	stream := batchTestStream(30_000)
	scalar := NewFrequent(64)
	for _, it := range stream {
		scalar.Update(it, 1)
	}
	batched := NewFrequent(64)
	core.UpdateBatches(batched, stream, 512)
	if scalar.N() != batched.N() {
		t.Fatalf("N %d vs %d", batched.N(), scalar.N())
	}
	// Both runs bound their deficit by n/(k+1); so any two runs' point
	// estimates differ by at most the larger deficit.
	bound := scalar.MaxError()
	if b := batched.MaxError(); b > bound {
		bound = b
	}
	if maxBound := scalar.N() / int64(scalar.K()+1); bound > maxBound {
		t.Fatalf("deficit %d exceeds the n/(k+1) bound %d", bound, maxBound)
	}
	for probe := core.Item(0); probe < 16; probe++ { // the stream's head items
		d := batched.Estimate(probe) - scalar.Estimate(probe)
		if d < 0 {
			d = -d
		}
		if d > bound {
			t.Fatalf("Estimate(%d): batched %d vs scalar %d differ beyond deficit %d",
				probe, batched.Estimate(probe), scalar.Estimate(probe), bound)
		}
	}
}

// TestBatchAggScratchReuse pins the scratch lifecycle: aggregation state
// must not leak between batches or between summaries.
func TestBatchAggScratchReuse(t *testing.T) {
	s := NewSpaceSavingHeap(8)
	s.UpdateBatch([]core.Item{1, 1, 2})
	s.UpdateBatch([]core.Item{1, 3, 3, 3})
	if got := s.Estimate(1); got != 3 {
		t.Fatalf("Estimate(1) = %d, want 3 (stale batch scratch?)", got)
	}
	if got := s.Estimate(3); got != 3 {
		t.Fatalf("Estimate(3) = %d, want 3", got)
	}
	if got := s.N(); got != 7 {
		t.Fatalf("N = %d, want 7", got)
	}
	// Empty batches are no-ops.
	s.UpdateBatch(nil)
	if got := s.N(); got != 7 {
		t.Fatalf("N after empty batch = %d, want 7", got)
	}
}

// checkSpaceSavingKernel asserts what an update-fed SSH must satisfy
// after any mix of scalar and batched ingest: Check(); the two exact
// invariants of replacement (Σcount = N, since a victim's count is
// inherited, and every err ≤ Min(), since an err is the minimum at its
// replacement and the minimum never falls); the one-sided estimate
// envelope true ≤ est ≤ true + Min() against exact counts; and recall
// of every item above N/k.
func checkSpaceSavingKernel(t *testing.T, label string, s *SpaceSavingHeap, truth map[core.Item]int64) {
	t.Helper()
	if err := s.Check(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	min := s.Min()
	var sum int64
	for _, nd := range s.st.nodes {
		sum += nd.count
		if nd.err > min {
			t.Fatalf("%s: item %d carries err %d above Min() %d", label, nd.item, nd.err, min)
		}
	}
	if sum != s.N() {
		t.Fatalf("%s: Σcount = %d, N = %d", label, sum, s.N())
	}
	var n int64
	for it, tru := range truth {
		n += tru
		est := s.Estimate(it)
		if est < tru || est > tru+min {
			t.Fatalf("%s: Estimate(%d) = %d outside [true %d, true + Min() %d]", label, it, est, tru, tru+min)
		}
		if tru > s.N()/int64(s.K()) && s.st.lookup(it) < 0 {
			t.Fatalf("%s: item %d with true count %d > N/k = %d is not tracked", label, it, tru, s.N()/int64(s.K()))
		}
	}
	if n != s.N() {
		t.Fatalf("%s: N = %d, fed %d", label, s.N(), n)
	}
}

// TestSpaceSavingHeapKernelEdges drives the batch kernel's edges: more
// newcomers than tied minimum counters (the minimum rises mid-batch and
// later newcomers evict earlier ones), a newcomer repeated inside its
// batch (a weighted victim that must sift within its subtree), a lone
// newcomer (the root eviction Update does), a few newcomers into a wide
// tie, the degenerate budgets k = 1 and k = 2, and a summary that fills
// up in the middle of a batch.
func TestSpaceSavingHeapKernelEdges(t *testing.T) {
	seq := func(from, n int) []core.Item {
		out := make([]core.Item, n)
		for i := range out {
			out[i] = core.Item(from + i)
		}
		return out
	}
	cases := []struct {
		name    string
		k       int
		batches [][]core.Item
	}{
		// Four counters tied at 1, then ten newcomers: the walk of the
		// tie restarts twice, at minimum 2 and then 3.
		{"exhausted-tie", 4, [][]core.Item{seq(1, 4), seq(5, 10)}},
		// Partial tie: 1 and 2 sit above the minimum; the repeated
		// newcomer 9 takes a tied counter with c = 3.
		{"repeated-newcomer", 6, [][]core.Item{
			{1, 1, 1, 2, 2, 3, 4, 5, 6},
			{9, 7, 9, 8, 9, 10, 1},
		}},
		{"single-newcomer", 5, [][]core.Item{seq(1, 5), {1, 2, 3, 42, 2}}},
		// Three newcomers (one repeated) into a 64-counter tie.
		{"wide-tie", 64, [][]core.Item{seq(1, 64), {100, 101, 100, 102}}},
		{"k=1", 1, [][]core.Item{{1, 2, 2, 3}, {4, 4, 5}, {5}, {6, 7, 8, 6}}},
		{"k=2", 2, [][]core.Item{{1, 2, 3}, {4, 4, 5, 6, 1}, {7}, {8, 9, 8, 9, 10}}},
		// Fills mid-batch: the first five distinct items take free
		// counters, the later ones replace.
		{"fill-mid-batch", 5, [][]core.Item{{1, 2, 1, 3, 4, 3, 5, 6, 7, 6, 8, 1}}},
	}
	for _, c := range cases {
		s := NewSpaceSavingHeap(c.k)
		truth := make(map[core.Item]int64)
		for i, b := range c.batches {
			s.UpdateBatch(append([]core.Item(nil), b...))
			for _, it := range b {
				truth[it]++
			}
			checkSpaceSavingKernel(t, fmt.Sprintf("%s/batch %d", c.name, i), s, truth)
		}
	}

	// The same invariants over a churning stream at every small budget
	// and a spread of batch lengths, mixed with scalar updates.
	stream := batchTestStream(20_000)
	for _, k := range []int{1, 2, 3, 8, 64} {
		for _, batch := range []int{2, 5, 64, 1000} {
			s := NewSpaceSavingHeap(k)
			truth := make(map[core.Item]int64)
			for i := 0; i < len(stream); i += batch {
				b := stream[i:min(i+batch, len(stream))]
				if (i/batch)%3 == 2 {
					for _, it := range b {
						s.Update(it, 1)
					}
				} else {
					s.UpdateBatch(b)
				}
				for _, it := range b {
					truth[it]++
				}
			}
			checkSpaceSavingKernel(t, fmt.Sprintf("stream/k=%d/batch=%d", k, batch), s, truth)
		}
	}
}

// TestSpaceSavingHeapKernelEvictsMinimum: the newcomers of a batch
// evict only counters tied at the minimum m, each victim's newcomer
// takes count m + c and err m, and the counters above m keep theirs,
// in whatever slots the tie leaves happen to sit.
func TestSpaceSavingHeapKernelEvictsMinimum(t *testing.T) {
	s := NewSpaceSavingHeap(6)
	s.UpdateBatch([]core.Item{1, 1, 1, 2, 2, 2, 3, 4, 5, 6}) // 1, 2 at 3; 3..6 tied at 1
	s.UpdateBatch([]core.Item{7, 8, 8, 8, 9})                // three of the four tied counters go
	checkSpaceSavingKernel(t, "evicts-minimum", s, map[core.Item]int64{
		1: 3, 2: 3, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 3, 9: 1})
	want := map[core.Item][2]int64{1: {3, 0}, 2: {3, 0}, 7: {2, 1}, 8: {4, 1}, 9: {2, 1}}
	survivors := 0
	for _, nd := range s.st.nodes {
		if w, ok := want[nd.item]; ok {
			if got := [2]int64{nd.count, nd.err}; got != w {
				t.Fatalf("item %d: (count, err) = %v, want %v", nd.item, got, w)
			}
			delete(want, nd.item)
			continue
		}
		if nd.item < 3 || nd.item > 6 || nd.count != 1 || nd.err != 0 {
			t.Fatalf("unexpected counter %+v", nd)
		}
		survivors++
	}
	if len(want) != 0 || survivors != 1 {
		t.Fatalf("untracked %v, %d of the tied counters survive, want 1", want, survivors)
	}
}

// TestSpaceSavingHeapUnitBatchBitIdentical: a one-item batch is applied
// exactly as Update applies the arrival, so unit-length batches leave
// byte-identical encoded state.
func TestSpaceSavingHeapUnitBatchBitIdentical(t *testing.T) {
	stream := batchTestStream(20_000)
	scalar, unit := NewSpaceSavingHeap(64), NewSpaceSavingHeap(64)
	for _, it := range stream {
		scalar.Update(it, 1)
		unit.UpdateBatch([]core.Item{it})
	}
	a, _ := scalar.MarshalBinary()
	b, _ := unit.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("unit-length batches are not bit-identical to the scalar feed")
	}
}
