package streamfreq

// Semantics-preservation of the batched ingestion pipeline: for every
// registered algorithm, replaying a stream through UpdateBatches (which
// routes through each summary's native BatchUpdater path when it has
// one) must agree with the scalar Update loop on everything observable
// at the frequent-items operating point — the stream length, the
// threshold-query report at φn, and the point estimates of the reported
// and true-heaviest items.
//
// Batch implementations pre-aggregate duplicates, so within a batch an
// item's arrivals are applied together, where it first appears (SSH
// applies its newcomers after the tracked items, to the counters tied
// at the minimum). The comparison is bit-exact for every algorithm
// except Misra–Gries, whose decrement schedule is genuinely
// order-sensitive (see checkEquivalence), and is checked across batch
// lengths that do and do not divide the stream.

import (
	"bytes"
	"fmt"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/exact"
	"streamfreq/internal/hash"
	"streamfreq/internal/sketches"
	"streamfreq/internal/zipf"
)

// equivStreams are the workloads the equivalence property is checked on:
// a skewed stream (many duplicates per batch — the aggregation fast
// path), a flat one (mostly distinct items — the aggregation slow path),
// and a tiny-universe churn stream that keeps every counter summary at
// capacity with constant evictions.
func equivStreams(t testing.TB) map[string][]Item {
	t.Helper()
	mk := func(universe int, z float64, n int, seed uint64) []Item {
		g, err := zipf.NewGenerator(universe, z, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		return g.Stream(n)
	}
	return map[string][]Item{
		"skewed": mk(1<<16, 1.3, 40_000, 7),
		"flat":   mk(1<<16, 0.5, 40_000, 8),
		"churn":  mk(1<<10, 0.8, 40_000, 9),
	}
}

// querySlack returns the count tolerance for one algorithm's batched-
// vs-scalar comparison. It is 0 — bit-exact — for every algorithm except
// Misra–Gries ("F"): the linear sketches are exactly reorder-invariant,
// Space-Saving's batch paths only permute the batch's arrivals and
// choose among counters tied at the minimum (at the εn floor, below
// the φn report), and the fallback algorithms run the identical scalar
// path.
// MG's eviction decrement is min(count, current minimum), so moving an
// item's arrivals relative to the evolving minimum (which aggregation
// does) can shift its decrement total by a few units; both runs still
// satisfy the deterministic deficit bound n/(k+1), which is the slack.
func querySlack(algo string, streamLen int, phi float64) int64 {
	if algo == "F" {
		return int64(phi/2*float64(streamLen)) + 1 // deficit bound n/(k+1) at k = ⌈2/φ⌉
	}
	return 0
}

// checkEquivalence asserts scalar and batched agree: N exactly, the
// φn-threshold report item-for-item (counts within slack, byte-for-byte
// when slack is 0), and point estimates on the reported items plus the
// true top-20 (heavy probes within the algorithm's error envelope —
// which of several tied minimum counters holds a churning sub-threshold
// item is not stable under any reordering, so exact equality of
// noise-floor tail estimates is deliberately not part of the contract).
//
// Summaries are provisioned at ε = φ/2 (the paper's equal-guarantee
// methodology, also how the registry sizes its sketches) and queried at
// φn, which keeps the query threshold strictly above the εn churn floor:
// querying a counter summary exactly at its floor reports whichever tail
// items happen to occupy floor-valued counters, a set no processing
// order stabilizes.
func checkEquivalence(t *testing.T, label string, scalar, batched Summary, stream []Item, phi float64, slack int64) {
	t.Helper()
	for _, s := range []Summary{scalar, batched} {
		checkInvariants(t, label, s)
		checkUpdateFed(t, label, s)
	}
	if got, want := batched.N(), scalar.N(); got != want {
		t.Fatalf("%s: N: batched %d, scalar %d", label, got, want)
	}
	threshold := int64(phi * float64(len(stream)))
	sq, bq := scalar.Query(threshold), batched.Query(threshold)
	if len(sq) != len(bq) {
		t.Fatalf("%s: Query(%d): batched reports %d items, scalar %d\nscalar:  %v\nbatched: %v",
			label, threshold, len(bq), len(sq), sq, bq)
	}
	scalarCounts := make(map[Item]int64, len(sq))
	for _, ic := range sq {
		scalarCounts[ic.Item] = ic.Count
	}
	for i, ic := range bq {
		want, reported := scalarCounts[ic.Item]
		if !reported {
			t.Fatalf("%s: Query(%d)[%d]: batched reports %+v, absent from scalar report", label, threshold, i, ic)
		}
		if d := ic.Count - want; d > slack || d < -slack {
			t.Fatalf("%s: Query(%d): item %d: batched count %d, scalar %d (slack %d)",
				label, threshold, ic.Item, ic.Count, want, slack)
		}
		if slack == 0 && sq[i] != ic {
			t.Fatalf("%s: Query(%d)[%d]: batched %+v, scalar %+v (order must match exactly)",
				label, threshold, i, ic, sq[i])
		}
	}
	for it := range scalarCounts {
		bs, ss := batched.Estimate(it), scalar.Estimate(it)
		if d := bs - ss; d > slack || d < -slack {
			t.Fatalf("%s: Estimate(%d) of reported item: batched %d, scalar %d (slack %d)",
				label, it, bs, ss, slack)
		}
	}
	truth := exact.New()
	for _, it := range stream {
		truth.Update(it, 1)
	}
	envelope := slack
	if envelope == 0 {
		envelope = int64(phi/2*float64(len(stream))) + 1 // the εn error bound at ε = φ/2
	}
	for _, ic := range truth.TopK(20) {
		bs, ss := batched.Estimate(ic.Item), scalar.Estimate(ic.Item)
		if d := bs - ss; d > envelope || d < -envelope {
			t.Fatalf("%s: Estimate(%d) of heavy item: batched %d vs scalar %d exceeds error envelope %d",
				label, ic.Item, bs, ss, envelope)
		}
	}
}

// TestBatchScalarEquivalence is the acceptance property over the full
// registry: batched ingest ≡ scalar ingest for every algorithm, across
// batch lengths including 1, primes, powers of two, and the default.
func TestBatchScalarEquivalence(t *testing.T) {
	const phi = 0.005
	const seed = 42
	streams := equivStreams(t)
	for _, algo := range Algorithms() {
		for streamName, stream := range streams {
			for _, batch := range []int{1, 7, 64, 1024, DefaultBatchSize} {
				label := fmt.Sprintf("%s/%s/batch=%d", algo, streamName, batch)
				scalar := MustNew(algo, phi/2, seed)
				for _, it := range stream {
					scalar.Update(it, 1)
				}
				batched := MustNew(algo, phi/2, seed)
				UpdateBatches(batched, stream, batch)
				checkEquivalence(t, label, scalar, batched, stream, phi,
					querySlack(algo, len(stream), phi))
			}
		}
	}
}

// TestBatchScalarEquivalenceWrappers runs the same property through the
// concurrency wrappers' batch paths (one lock per batch for Concurrent;
// scatter into per-shard staging rings for Pipelined), whose reordering
// must also be invisible: every item maps to one shard and per-shard
// order is preserved. Pipelined is drained before comparing, so reads
// see every staged update.
func TestBatchScalarEquivalenceWrappers(t *testing.T) {
	const phi = 0.005
	const seed = 42
	streams := equivStreams(t)
	wrappers := []struct {
		name string
		wrap func(func() Summary) Summary
	}{
		{"Concurrent", func(f func() Summary) Summary { return NewConcurrent(f()) }},
		{"Pipelined4", func(f func() Summary) Summary {
			p := NewPipelined(4, f)
			t.Cleanup(p.Close)
			return p
		}},
	}
	for _, algo := range []string{"F", "SSH", "SSL", "CM"} {
		for _, w := range wrappers {
			for streamName, stream := range streams {
				label := fmt.Sprintf("%s(%s)/%s", w.name, algo, streamName)
				factory := func() Summary { return MustNew(algo, phi/2, seed) }
				scalar := w.wrap(factory)
				for _, it := range stream {
					scalar.Update(it, 1)
				}
				batched := w.wrap(factory)
				UpdateBatches(batched, stream, 512)
				for _, s := range []Summary{scalar, batched} {
					if d, ok := s.(interface{ Drain() }); ok {
						d.Drain()
					}
				}
				checkEquivalence(t, label, scalar, batched, stream, phi,
					querySlack(algo, len(stream), phi))
			}
		}
	}
}

// TestUpdateAllFallback pins the fallback contract: a summary that does
// not implement BatchUpdater still ingests every item with unit counts.
func TestUpdateAllFallback(t *testing.T) {
	s := MustNew("LC", 0.01, 1) // Lossy Counting has no native batch path
	if _, ok := Summary(s).(BatchUpdater); ok {
		t.Fatal("test premise broken: LC now implements BatchUpdater; pick another fallback algorithm")
	}
	stream := equivStreams(t)["skewed"]
	UpdateAll(s, stream)
	if got, want := s.N(), int64(len(stream)); got != want {
		t.Fatalf("UpdateAll fallback: N = %d, want %d", got, want)
	}
}

// checkInvariants runs the structural invariant check of s — of its
// inner sketch when s is a Tracked wrapper — when it has one.
func checkInvariants(t *testing.T, label string, s Summary) {
	t.Helper()
	if tr, ok := s.(*core.Tracked); ok {
		s = tr.Inner()
	}
	if c, ok := s.(interface{ Check() error }); ok {
		if err := c.Check(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
}

// checkUpdateFed asserts two exact invariants of a Space-Saving summary
// fed only by updates, scalar or batched: a replacement inherits its
// victim's count, so Σcount = N; and an error is the minimum at its
// replacement, which never falls, so every err ≤ Min(). Misra–Gries
// has the matching identity: each decrement of m takes m from k
// counters and from the newcomer, so Σestimates + (k+1)·MaxError = N.
// (A merged summary satisfies none of these, only Check's inequality;
// other summaries are skipped.)
func checkUpdateFed(t *testing.T, label string, s Summary) {
	t.Helper()
	if f, ok := s.(*counters.Frequent); ok {
		sum := int64(f.K()+1) * f.MaxError()
		for _, ic := range f.Entries() {
			sum += ic.Count
		}
		if sum != f.N() {
			t.Fatalf("%s: Σestimates + (k+1)·MaxError = %d, N = %d", label, sum, f.N())
		}
		return
	}
	ss, ok := s.(interface {
		Min() int64
		GuaranteedCount(Item) int64
		Entries() []ItemCount
	})
	if !ok || (s.Name() != "SSH" && s.Name() != "SSL") {
		return
	}
	var sum int64
	for _, ic := range ss.Entries() {
		sum += ic.Count
		if err := ic.Count - ss.GuaranteedCount(ic.Item); err > ss.Min() {
			t.Fatalf("%s: item %d carries err %d above Min() %d", label, ic.Item, err, ss.Min())
		}
	}
	if sum != s.N() {
		t.Fatalf("%s: Σcount = %d, N = %d", label, sum, s.N())
	}
}

// sketchState is the encoded sketch state of s. A Tracked wrapper
// contributes its inner sketch only: its admission heap may legitimately
// differ from scalar replay in the sub-threshold tail (see
// Tracked.UpdateBatch), the sketch may not.
func sketchState(t *testing.T, label string, s Summary) []byte {
	t.Helper()
	if tr, ok := s.(*core.Tracked); ok {
		s = tr.Inner()
	}
	return marshal(t, label, s)
}

// distinctItems returns n distinct scrambled identifiers starting at
// rank from.
func distinctItems(from, n int) []Item {
	out := make([]Item, n)
	for i := range out {
		out[i] = Item(hash.Mix64(uint64(from + i)))
	}
	return out
}

// feedBatches ingests stream through UpdateAll in consecutive batches of
// the given lengths, then in DefaultBatchSize batches.
func feedBatches(s Summary, stream []Item, lens []int) {
	for _, n := range lens {
		n = min(n, len(stream))
		UpdateAll(s, stream[:n])
		stream = stream[n:]
	}
	UpdateBatches(s, stream, DefaultBatchSize)
}

// TestBatchScalarStateIdentical: the linear sketches' batch paths
// collapse each batch to (item, count) pairs, re-collapse a hierarchy's
// coarsest level, and reorder row writes — all exact for an integer-sum
// sketch — so batched and scalar ingest must leave byte-identical
// encoded state, not only equal answers. The cases are the collapse's
// edges: no repeats at all, one item repeated a whole batch, batch
// lengths just past the aggregation table's growth boundary (a table
// sized for a 4096-item batch holds 8192 slots and grows on the
// 4097-item batch after it), and, for the summaries with a universe
// width, items that differ only above the universe bits (they collapse
// as distinct pairs and must land on identical cells).
func TestBatchScalarStateIdentical(t *testing.T) {
	const phi = 0.005
	const seed = 42
	repeated := make([]Item, DefaultBatchSize)
	for i := range repeated {
		repeated[i] = 0xC0FFEE
	}
	cases := []struct {
		name   string
		stream []Item
		lens   []int
	}{
		{"all-distinct", distinctItems(0, DefaultBatchSize), nil},
		{"repeated", repeated, nil},
		{"growth", distinctItems(0, 3*DefaultBatchSize+2), []int{DefaultBatchSize, DefaultBatchSize + 1, 2*DefaultBatchSize + 1}},
		{"skewed", equivStreams(t)["skewed"], []int{1, 7, 1024}},
	}
	check := func(label string, mk func() Summary, stream []Item, lens []int) {
		t.Helper()
		scalar, batched := mk(), mk()
		for _, it := range stream {
			scalar.Update(it, 1)
		}
		feedBatches(batched, stream, lens)
		if got, want := sketchState(t, label, batched), sketchState(t, label, scalar); !bytes.Equal(got, want) {
			t.Fatalf("%s: batched and scalar ingest encode differently (%d vs %d bytes)", label, len(got), len(want))
		}
		checkInvariants(t, label+"/scalar", scalar)
		checkInvariants(t, label+"/batched", batched)
	}
	for _, algo := range []string{"CM", "CS", "CMH", "CSH", "CGT"} {
		for _, c := range cases {
			check(algo+"/"+c.name, func() Summary { return MustNew(algo, phi, seed) }, c.stream, c.lens)
		}
	}

	// Narrow universes: 64 base items, each arriving under many distinct
	// high-bit patterns above bit 20.
	narrow := make([]Item, 5*DefaultBatchSize)
	for i := range narrow {
		narrow[i] = Item(uint64(i%64)<<8 | hash.Mix64(uint64(i))<<20)
	}
	hierarchy := func(build func(sketches.HierarchyConfig) (*sketches.Hierarchical, error)) func() Summary {
		return func() Summary {
			h, err := build(sketches.HierarchyConfig{Depth: 4, Width: 256, Bits: 8, UniverseBits: 20, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
	}
	narrowSummaries := map[string]func() Summary{
		"CMH": hierarchy(sketches.NewCountMinHierarchy),
		"CSH": hierarchy(sketches.NewCountSketchHierarchy),
		"CGT": func() Summary { return sketches.NewCGT(4, 256, 20, seed) },
	}
	for name, mk := range narrowSummaries {
		check(name+"/universe-bits=20", mk, narrow, []int{1, 999})
	}
}
