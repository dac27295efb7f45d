package counters_test

// BenchmarkSlabSpaceSaving quantifies what the slab refactor bought:
// instance churn (create, fill, drop — the lifecycle of an evicted
// tenant) against a standalone flat instance and against the Go-map
// layout the package migrated away from, reconstructed here as a
// bench-only baseline. The update path is measured on the same stream
// for all three, so the numbers separate allocation cost from
// per-update cost.

import (
	"container/heap"
	"fmt"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/zipf"
)

const benchK = 64

func benchStream(b *testing.B, n int) []core.Item {
	b.Helper()
	g, err := zipf.NewGenerator(1<<12, 1.1, 42, true)
	if err != nil {
		b.Fatal(err)
	}
	return g.Stream(n)
}

// mapSS is the pre-slab layout: a Go map of heap-allocated entries
// plus a pointer heap — one allocation per tracked item, pointers for
// the GC to trace. Update semantics match SpaceSavingHeap exactly.
type mapSS struct {
	k       int
	n       int64
	index   map[core.Item]*mapEntry
	minHeap []*mapEntry
}

type mapEntry struct {
	item core.Item
	cnt  int64
	err  int64
	pos  int
}

func newMapSS(k int) *mapSS {
	return &mapSS{k: k, index: make(map[core.Item]*mapEntry, k)}
}

func (m *mapSS) Len() int           { return len(m.minHeap) }
func (m *mapSS) Less(i, j int) bool { return m.minHeap[i].cnt < m.minHeap[j].cnt }
func (m *mapSS) Push(x any)         { m.minHeap = append(m.minHeap, x.(*mapEntry)) }
func (m *mapSS) Pop() any           { panic("unused") }
func (m *mapSS) Swap(i, j int) {
	m.minHeap[i], m.minHeap[j] = m.minHeap[j], m.minHeap[i]
	m.minHeap[i].pos, m.minHeap[j].pos = i, j
}

func (m *mapSS) Update(x core.Item, c int64) {
	m.n += c
	if e, ok := m.index[x]; ok {
		e.cnt += c
		heap.Fix(m, e.pos)
		return
	}
	if len(m.minHeap) < m.k {
		e := &mapEntry{item: x, cnt: c, pos: len(m.minHeap)}
		m.index[x] = e
		heap.Push(m, e)
		heap.Fix(m, e.pos)
		return
	}
	e := m.minHeap[0]
	delete(m.index, e.item)
	e.err = e.cnt
	e.item, e.cnt = x, e.cnt+c
	m.index[x] = e
	heap.Fix(m, 0)
}

func BenchmarkSlabSpaceSaving(b *testing.B) {
	stream := benchStream(b, 4096)

	// churn: the evict/reload lifecycle — how expensive is one tenant
	// instance? The slab recycles one block; the others allocate.
	b.Run("churn/slab", func(b *testing.B) {
		sl := counters.NewSlab()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := sl.NewSpaceSaving(benchK)
			for _, x := range stream[:256] {
				s.Update(x, 1)
			}
			s.Release()
		}
	})
	b.Run("churn/standalone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := counters.NewSpaceSavingHeap(benchK)
			for _, x := range stream[:256] {
				s.Update(x, 1)
			}
		}
	})
	b.Run("churn/map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := newMapSS(benchK)
			for _, x := range stream[:256] {
				s.Update(x, 1)
			}
		}
	})

	// update: steady-state per-item cost on a long-lived instance.
	b.Run("update/slab", func(b *testing.B) {
		sl := counters.NewSlab()
		s := sl.NewSpaceSaving(benchK)
		defer s.Release()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Update(stream[i&4095], 1)
		}
	})
	b.Run("update/map", func(b *testing.B) {
		s := newMapSS(benchK)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Update(stream[i&4095], 1)
		}
	})
}

// BenchmarkSpaceSavingBatchLength sweeps the batch length of SSH ingest
// at the paper's φ = 0.001 (k = 1001) on Zipf z = 1.1 over 2^20 items,
// against the scalar feed. The batch kernel's walk of the tie at the
// minimum costs one descent plus O(1) amortized per newcomer, so short
// batches pay no walk of the whole tie; what a 2-item batch pays above
// the scalar loop is the collapse itself.
func BenchmarkSpaceSavingBatchLength(b *testing.B) {
	g, err := zipf.NewGenerator(1<<20, 1.1, 5, true)
	if err != nil {
		b.Fatal(err)
	}
	stream := g.Stream(1 << 20)
	warm := func() *counters.SpaceSavingHeap {
		s := counters.NewSpaceSavingHeap(1001)
		core.UpdateBatches(s, stream[:200_000], core.DefaultBatchSize)
		return s
	}
	b.Run("scalar", func(b *testing.B) {
		s := warm()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Update(stream[i&(len(stream)-1)], 1)
		}
	})
	for _, n := range []int{2, 8, 64, 512, 4096} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			s := warm()
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += n {
				off := done & (len(stream) - 1)
				s.UpdateBatch(stream[off:min(off+n, len(stream))])
			}
		})
	}
}
