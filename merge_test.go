package streamfreq

// Merge fidelity across the registry: the distributed-merge service
// rests on Decode(Encode(a)).Merge(Decode(Encode(b))) answering for the
// concatenated stream. For every algorithm with a wire format this
// asserts (1) MergeEncoded is behaviourally identical to merging the
// live summaries — the wire round-trip adds nothing and loses nothing —
// and (2) the merged summary honours the algorithm's documented
// estimate bound at the φn operating point of the union stream, which
// is the guarantee the paper's X2 merge experiment measures.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"streamfreq/internal/exact"
	"streamfreq/internal/zipf"
)

// mergeBounds returns the documented |estimate − true| envelope of one
// merged summary at the φn operating point: under is how far estimates
// may fall below the true union count, over how far above. The registry
// provisions counter summaries at k = ⌈1/φ⌉+1 and ε = φ/2, and sketches
// at width 2/φ, so every deterministic bound lands at or under φn; the
// randomized sketches (CS family) get their variance bound from the
// union stream's second moment with a safety factor — all hash seeds
// are fixed, so the check is deterministic run to run.
func mergeBounds(t *testing.T, algo string, n int64, phi, f2 float64) (under, over int64) {
	t.Helper()
	phiN := int64(phi*float64(n)) + 1
	csBound := int64(4*math.Sqrt(f2*phi/2)) + 1 // 4·sqrt(F2/width), width = 2/φ
	switch algo {
	case "F": // Misra–Gries: underestimates by ≤ n/(k+1)
		return phiN, 0
	case "LC": // observed counts: underestimate ≤ εn, ε = φ/2
		return int64(phi/2*float64(n)) + 1, 0
	case "LCD": // count+Δ upper bounds: overestimate ≤ εn
		return 0, int64(phi/2*float64(n)) + 1
	case "SSL", "SSH": // Space-Saving: overestimate ≤ n/k
		return 0, phiN
	case "CM", "CMH", "CGT": // Count-Min family: overestimate ≤ εn
		return 0, phiN
	case "CS", "CSH": // Count-Sketch: two-sided variance bound
		return csBound, csBound
	}
	t.Fatalf("mergeBounds: unknown algorithm %s — extend the table", algo)
	return 0, 0
}

// mergeStreams builds the two per-node workloads: overlapping Zipf
// streams with different skews and seeds, so hot items appear on both
// sides (merge must add their counts) and each side has mass the other
// never saw.
func mergeStreams(t testing.TB) (a, b []Item) {
	t.Helper()
	ga, err := zipf.NewGenerator(1<<14, 1.2, 21, true)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := zipf.NewGenerator(1<<14, 0.9, 22, true)
	if err != nil {
		t.Fatal(err)
	}
	return ga.Stream(40_000), gb.Stream(25_000)
}

func TestMergeEncodedFidelityRegistry(t *testing.T) {
	const (
		phi  = 0.005
		seed = 42
	)
	streamA, streamB := mergeStreams(t)
	n := int64(len(streamA) + len(streamB))
	threshold := int64(phi * float64(n))

	truth := exact.New()
	for _, it := range streamA {
		truth.Update(it, 1)
	}
	for _, it := range streamB {
		truth.Update(it, 1)
	}
	f2 := truth.SecondMoment()

	for _, algo := range Algorithms() {
		t.Run(algo, func(t *testing.T) {
			feed := func(items []Item) Summary {
				s := MustNew(algo, phi, seed)
				UpdateAll(s, items)
				return s
			}
			a, b := feed(streamA), feed(streamB)
			blobA := marshal(t, algo+"/a", a)
			blobB := marshal(t, algo+"/b", b)

			merged, err := MergeEncoded(blobA, blobB)
			if err != nil {
				t.Fatalf("MergeEncoded: %v", err)
			}
			if merged.N() != n {
				t.Fatalf("merged N = %d, want %d", merged.N(), n)
			}
			checkInvariants(t, algo+"/a", a)
			checkInvariants(t, algo+"/b", b)
			checkUpdateFed(t, algo+"/a", a)
			checkUpdateFed(t, algo+"/b", b)
			checkInvariants(t, algo+"/merged", merged)

			// (1) Wire fidelity: merging through blobs re-encodes to the
			// same bytes as merging the live summaries (Encode is
			// deterministic registry-wide, so bit equality is meaningful).
			direct := feed(streamA)
			if err := direct.(Merger).Merge(feed(streamB)); err != nil {
				t.Fatalf("direct merge: %v", err)
			}
			if got, want := marshal(t, algo+"/merged", merged), marshal(t, algo+"/direct", direct); string(got) != string(want) {
				t.Fatalf("MergeEncoded and live Merge encode differently (%d vs %d bytes)", len(got), len(want))
			}

			// (2) The documented estimate bound at the φn operating point,
			// on every true heavy hitter of the union stream.
			under, over := mergeBounds(t, algo, n, phi, f2)
			for _, ic := range truth.TopK(truth.Distinct()) {
				if ic.Count < threshold {
					break
				}
				est := merged.Estimate(ic.Item)
				if est < ic.Count-under {
					t.Fatalf("item %#x: merged estimate %d below true %d − bound %d",
						uint64(ic.Item), est, ic.Count, under)
				}
				if est > ic.Count+over {
					t.Fatalf("item %#x: merged estimate %d above true %d + bound %d",
						uint64(ic.Item), est, ic.Count, over)
				}
			}

			// Recall over the union: querying at φn + under-slack must
			// return every item whose true count clears the slackened
			// threshold (for never-underestimating algorithms under = 0,
			// i.e. perfect recall at φn exactly).
			report := merged.Query(threshold)
			reported := make(map[Item]bool, len(report))
			for _, ic := range report {
				reported[ic.Item] = true
			}
			for _, ic := range truth.TopK(truth.Distinct()) {
				if ic.Count < threshold+under {
					break
				}
				if !reported[ic.Item] {
					t.Fatalf("item %#x with true count %d ≥ %d missing from merged Query(%d)",
						uint64(ic.Item), ic.Count, threshold+under, threshold)
				}
			}
		})
	}
}

// TestMergeEncodedWindowed extends the merge wall to the windowed
// summary (WN01): merging through blobs is byte-identical to merging
// the live summaries, the union answers for both nodes' recent windows
// (N and coverage sum, recent hot items reported, neither side's
// windowed estimate floor is ever undercut), and geometry mismatches
// come back wrapping ErrIncompatible like any parameter mismatch.
func TestMergeEncodedWindowed(t *testing.T) {
	const size, blocks, k = 2000, 4, 100
	mkFed := func(hot Item, seed uint64) Summary {
		s := mustWindowedSummary(size, blocks, k)
		g, err := zipf.NewGenerator(1<<13, 0.9, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		items := make([]Item, 9000)
		for i := range items {
			if i%4 == 0 {
				items[i] = hot
			} else {
				items[i] = g.Next()
			}
		}
		UpdateBatches(s, items, 512)
		return s
	}
	a, b := mkFed(5001, 91), mkFed(5002, 92)
	blobA, blobB := marshal(t, "SSW/a", a), marshal(t, "SSW/b", b)

	merged, err := MergeEncoded(blobA, blobB)
	if err != nil {
		t.Fatalf("MergeEncoded: %v", err)
	}
	if merged.N() != a.N()+b.N() {
		t.Fatalf("merged N = %d, want %d", merged.N(), a.N()+b.N())
	}

	// Wire fidelity: blob-merge ≡ live-merge, byte for byte.
	direct := mkFed(5001, 91)
	if err := direct.(Merger).Merge(mkFed(5002, 92)); err != nil {
		t.Fatalf("direct merge: %v", err)
	}
	if got, want := marshal(t, "SSW/merged", merged), marshal(t, "SSW/direct", direct); string(got) != string(want) {
		t.Fatalf("MergeEncoded and live Merge encode differently (%d vs %d bytes)", len(got), len(want))
	}

	// Union semantics: both hot items reported at 5% of the union span,
	// and the merged estimate never undercuts either side's own.
	wn := merged.(interface{ WindowN() int64 }).WindowN()
	if wn <= int64(size) || wn > int64(2*size) {
		t.Fatalf("merged WindowN = %d, want within (W, 2W]", wn)
	}
	reported := map[Item]bool{}
	for _, ic := range merged.Query(wn / 20) {
		reported[ic.Item] = true
	}
	for _, hot := range []Item{5001, 5002} {
		if !reported[hot] {
			t.Fatalf("hot item %d missing from merged windowed report", hot)
		}
		if mergedEst, own := merged.Estimate(hot), a.Estimate(hot); hot == 5001 && mergedEst < own {
			t.Fatalf("merged estimate %d undercuts node A's own %d", mergedEst, own)
		}
	}

	// Geometry mismatch: refused, wrapping ErrIncompatible.
	other := mustWindowedSummary(size, 2*blocks, k)
	UpdateAll(other, zipf.Sequential(500))
	if _, err := MergeEncoded(blobA, marshal(t, "SSW/other", other)); err == nil {
		t.Fatal("geometry-mismatched windowed MergeEncoded succeeded")
	} else if !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("mismatch error %q does not name the geometry", err)
	}
	// Cross-family: a windowed blob never merges into a flat one.
	ssh := MustNew("SSH", 0.01, 1)
	UpdateAll(ssh, zipf.Sequential(500))
	if _, err := MergeEncoded(marshal(t, "ssh", ssh), blobA); err == nil {
		t.Fatal("flat+windowed MergeEncoded succeeded")
	}
}

// TestMergeEncodedGK extends the merge wall to the quantile summary
// (GK01): merging through blobs is byte-identical to merging the live
// summaries, the merged summary stays ε₁n₁+ε₂n₂-approximate over the
// union stream's ranks, and ε mismatches (a GK merge requires equal
// error budgets) come back wrapping ErrIncompatible like any parameter
// mismatch.
func TestMergeEncodedGK(t *testing.T) {
	const eps = 0.01
	mkFed := func(seed uint64, n int) Summary {
		s := NewQuantile(eps)
		g, err := zipf.NewGenerator(1<<12, 1.1, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		UpdateBatches(s, g.Stream(n), 777)
		return s
	}
	a, b := mkFed(41, 18000), mkFed(43, 26000)
	blobA, blobB := marshal(t, "GK/a", a), marshal(t, "GK/b", b)

	merged, err := MergeEncoded(blobA, blobB)
	if err != nil {
		t.Fatalf("MergeEncoded: %v", err)
	}
	if merged.N() != a.N()+b.N() {
		t.Fatalf("merged N = %d, want %d", merged.N(), a.N()+b.N())
	}

	// Wire fidelity: blob-merge ≡ live-merge, byte for byte.
	direct := mkFed(41, 18000)
	if err := direct.(Merger).Merge(mkFed(43, 26000)); err != nil {
		t.Fatalf("direct merge: %v", err)
	}
	if got, want := marshal(t, "GK/merged", merged), marshal(t, "GK/direct", direct); string(got) != string(want) {
		t.Fatalf("MergeEncoded and live Merge encode differently (%d vs %d bytes)", len(got), len(want))
	}

	// Union rank accuracy: the merged median's rank over a reference
	// union summary stays within the summed error budgets (checked via
	// the quantile surface both daemons serve).
	q, ok := merged.(interface {
		QuantileQuery(float64) (uint64, error)
	})
	if !ok {
		t.Fatalf("merged %T has no QuantileQuery", merged)
	}
	union := NewQuantile(eps)
	g1, _ := zipf.NewGenerator(1<<12, 1.1, 41, true)
	g2, _ := zipf.NewGenerator(1<<12, 1.1, 43, true)
	UpdateBatches(union, g1.Stream(18000), 777)
	UpdateBatches(union, g2.Stream(26000), 777)
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		mv, err := q.QuantileQuery(frac)
		if err != nil {
			t.Fatal(err)
		}
		uv, err := union.QuantileQuery(frac)
		if err != nil {
			t.Fatal(err)
		}
		// Both values approximate the same rank; their rank gap is
		// bounded by the two summaries' combined ε budgets, so compare
		// through the union summary's rank of each value.
		loM, hiM := union.Rank(float64(mv))
		loU, hiU := union.Rank(float64(uv))
		slack := int64(3*eps*float64(union.N())) + 2
		if loM-hiU > slack || loU-hiM > slack {
			t.Errorf("q=%.1f: merged value %d (rank [%d,%d]) vs union value %d (rank [%d,%d]) beyond ±%d",
				frac, mv, loM, hiM, uv, loU, hiU, slack)
		}
	}

	// ε mismatch: refused, wrapping ErrIncompatible.
	other := NewQuantile(2 * eps)
	UpdateAll(other, zipf.Sequential(500))
	if _, err := MergeEncoded(blobA, marshal(t, "GK/other", other)); err == nil {
		t.Fatal("ε-mismatched GK MergeEncoded succeeded")
	} else if !strings.Contains(err.Error(), "epsilon") {
		t.Fatalf("mismatch error %q does not name the epsilon", err)
	}
	// Cross-family: a quantile blob never merges into a frequency one.
	ssh := MustNew("SSH", 0.01, 1)
	UpdateAll(ssh, zipf.Sequential(500))
	if _, err := MergeEncoded(blobA, marshal(t, "ssh", ssh)); err == nil {
		t.Fatal("GK+SSH MergeEncoded succeeded")
	}
}

// TestMergeEncodedErrors: the coordinator-facing failure modes are
// errors with useful text, never panics.
func TestMergeEncodedErrors(t *testing.T) {
	ssh := MustNew("SSH", 0.01, 1)
	UpdateAll(ssh, zipf.Sequential(500))
	blobSSH := marshal(t, "ssh", ssh)
	f := MustNew("F", 0.01, 1)
	UpdateAll(f, zipf.Sequential(500))
	blobF := marshal(t, "f", f)

	if _, err := MergeEncoded(); err == nil {
		t.Fatal("MergeEncoded() with no blobs succeeded")
	}
	if s, err := MergeEncoded(blobSSH); err != nil || s.N() != 500 {
		t.Fatalf("single-blob MergeEncoded: %v (N=%v)", err, s)
	}
	if _, err := MergeEncoded(blobSSH, blobF); err == nil {
		t.Fatal("mixed-algorithm MergeEncoded succeeded")
	} else if !strings.Contains(err.Error(), "blob 1") {
		t.Fatalf("mixed-algorithm error %q does not name the offending blob", err)
	}
	if _, err := MergeEncoded(blobSSH, []byte("XXXXnot a blob")); err == nil {
		t.Fatal("garbage blob MergeEncoded succeeded")
	}
	if _, err := MergeEncoded([]byte{1}); err == nil {
		t.Fatal("truncated blob MergeEncoded succeeded")
	}

	// Same algorithm, different parameters: the summary's own Merge
	// rejects it, and MergeEncoded forwards that cleanly — for sketches
	// (dimension check) and counter summaries (budget check) alike.
	cmA := MustNew("CM", 0.01, 1)
	cmB := MustNew("CM", 0.001, 1)
	UpdateAll(cmA, zipf.Sequential(100))
	UpdateAll(cmB, zipf.Sequential(100))
	if _, err := MergeEncoded(marshal(t, "cmA", cmA), marshal(t, "cmB", cmB)); err == nil {
		t.Fatal("parameter-mismatched MergeEncoded succeeded")
	}
	sshB := MustNew("SSH", 0.001, 1) // different φ → different counter budget
	UpdateAll(sshB, zipf.Sequential(100))
	if _, err := MergeEncoded(blobSSH, marshal(t, "sshB", sshB)); err == nil {
		t.Fatal("budget-mismatched Space-Saving MergeEncoded succeeded")
	}
}

// TestMergeEncodedManyNodes: the coordinator's actual shape — one blob
// per node, many nodes — folds associatively: N adds exactly and the
// result matches a pairwise fold of the same blobs.
func TestMergeEncodedManyNodes(t *testing.T) {
	const nodes = 8
	g, err := zipf.NewGenerator(1<<12, 1.1, 77, true)
	if err != nil {
		t.Fatal(err)
	}
	items := g.Stream(64_000)
	blobs := make([][]byte, nodes)
	for i := 0; i < nodes; i++ {
		s := MustNew("SSH", 0.01, 1)
		UpdateAll(s, items[i*len(items)/nodes:(i+1)*len(items)/nodes])
		blobs[i] = marshal(t, fmt.Sprintf("node%d", i), s)
	}
	merged, err := MergeEncoded(blobs...)
	if err != nil {
		t.Fatal(err)
	}
	if merged.N() != int64(len(items)) {
		t.Fatalf("merged N = %d, want %d", merged.N(), len(items))
	}
	fold, err := MergeEncoded(blobs[0], blobs[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blobs[2:] {
		next, err := MergeEncoded(marshal(t, "fold", fold), b)
		if err != nil {
			t.Fatal(err)
		}
		fold = next
	}
	if got, want := marshal(t, "flat", merged), marshal(t, "folded", fold); string(got) != string(want) {
		t.Fatal("flat MergeEncoded and pairwise fold disagree")
	}
}
