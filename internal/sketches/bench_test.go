package sketches

// Query-path benchmarks of the hierarchy — the rich query surface's
// CPU cost. HeavyPrefixes is the /v1/hhh handler's whole body, Query
// is /v1/topk's on a CMH node, and RangeEstimate (the greedy dyadic
// cover) is /v1/range's. All are measured over a populated sketch at
// the serving operating point, so the committed BENCH_*.json
// trajectory holds the endpoints' latency, not just ingest throughput.

import (
	"testing"

	"streamfreq/internal/zipf"
)

// benchHierarchy builds the registry geometry (φ=0.001 → width 2000,
// depth 4, byte levels over the full 64-bit universe) loaded with a
// 200k-item Zipf stream — the shape one freqd node serves.
func benchHierarchy(b *testing.B) *Hierarchical {
	b.Helper()
	h, err := NewCountMinHierarchy(HierarchyConfig{Depth: 4, Width: 2000, Bits: 8, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	g, err := zipf.NewGenerator(1<<15, 1.1, 0xBE9C, true)
	if err != nil {
		b.Fatal(err)
	}
	h.UpdateBatch(g.Stream(200_000))
	return h
}

func BenchmarkHHHQuery(b *testing.B) {
	h := benchHierarchy(b)
	threshold := h.N() / 1000 // φ = 0.001, the provisioned operating point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := h.HeavyPrefixes(threshold); len(rep) == 0 {
			b.Fatal("empty HHH report on a loaded sketch")
		}
	}
}

// BenchmarkHierarchyTopK is Query at the same operating point — the
// CMH /v1/topk handler's compute.
func BenchmarkHierarchyTopK(b *testing.B) {
	h := benchHierarchy(b)
	threshold := h.N() / 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if top := h.Query(threshold); len(top) == 0 {
			b.Fatal("empty top-k on a loaded sketch")
		}
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	h := benchHierarchy(b)
	// A wide range: ~2^63 values, the worst case for the dyadic cover
	// (maximal node count at every level).
	const lo, hi = uint64(1) << 8, uint64(1)<<63 + 12345
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.RangeEstimate(lo, hi); err != nil {
			b.Fatal(err)
		}
	}
}
