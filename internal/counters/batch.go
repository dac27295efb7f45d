package counters

import (
	"sync"

	"streamfreq/internal/core"
)

// batchAgg is the shared pre-aggregation scratch of the counter
// algorithms' batch paths: a batch of unit arrivals is collapsed to one
// (item, count) pair per distinct item, recorded in first-appearance
// order so the aggregated application replays the batch's item order
// deterministically.
//
// Collapsing duplicates is where the batch win comes from: each distinct
// item costs one summary map lookup and one structure maintenance step
// (heap sift, bucket relink) per batch regardless of how many times it
// repeats, which on skewed streams — the regime the paper's throughput
// plots measure — removes the large majority of the per-arrival work.
// For that trade to pay, the scratch must be much cheaper per arrival
// than the summary's own index map, so it is a flat open-addressed
// table (linear probing, power-of-two capacity, SplitMix64 finalizer
// hash) tuned for probe locality: the hot slot array packs a 32-bit
// hash tag with a 32-bit count in one uint64 — 8 bytes per slot keeps
// the table L1-resident at batch sizes — and the full 64-bit keys live
// in a parallel array touched only on insert and on tag match (to
// confirm, or skip past, the ~2⁻³² per-pair tag collisions). Occupied
// slots are remembered in first-appearance order, so iteration and
// reset touch exactly the distinct items, with no probing and no
// tombstone hazards.
//
// The scratch is pooled across summaries (getAgg/putAgg): a batch
// borrows one table for the duration of applyBatch and returns it, so
// steady-state batch ingestion still allocates nothing, but a million
// idle tenants retain zero scratch — only as many tables exist as
// there are concurrently-applying batches. Like Update itself, using a
// summary concurrently is not safe; wrap with core.Concurrent or
// core.Pipelined.
type batchAgg struct {
	// table[i] holds tag<<32 | count; count 0 marks an empty slot (live
	// counts are ≥ 1, and maxAggChunk keeps counts inside 32 bits).
	table []uint64
	keys  []core.Item
	slots []uint32 // occupied table indices in first-appearance order
	mask  uint64
	shift uint // 64 − log2(capacity): the index is the product's top bits
}

// maxAggChunk bounds one aggregation round. The packed slots hold a
// 32-bit count and the occupancy list holds 32-bit slot indices, so the
// UpdateBatch entry points split anything larger (an 8 GiB+ slice from
// a direct caller — UpdateBatches-driven ingest never gets near this)
// into chunks rather than silently wrapping a count into the tag bits.
const maxAggChunk = 1 << 30

// aggPool shares pre-aggregation tables across all counter summaries.
// A table's capacity grows to the largest batch it has served and is
// kept across uses; the pool bounds the population by the batch
// concurrency of the process rather than by its summary count.
var aggPool = sync.Pool{New: func() any { return new(batchAgg) }}

func getAgg() *batchAgg  { return aggPool.Get().(*batchAgg) }
func putAgg(a *batchAgg) { aggPool.Put(a) }

// grow (re)sizes the table to hold n distinct items below ~50% load.
func (a *batchAgg) grow(n int) {
	capacity := 16
	bits := uint(4)
	for capacity < 2*n {
		capacity *= 2
		bits++
	}
	a.table = make([]uint64, capacity)
	a.keys = make([]core.Item, capacity)
	a.mask = uint64(capacity - 1)
	a.shift = 64 - bits
}

// aggregate collapses items into the scratch and returns the number of
// distinct items. Callers iterate them with pair and must finish with
// release before the next aggregate call.
func (a *batchAgg) aggregate(items []core.Item) int {
	if 2*len(items) > len(a.table) {
		a.grow(len(items))
	}
	for _, x := range items {
		// One Fibonacci-multiply is enough mixing here: the index takes
		// the product's top bits (where a multiplicative hash is
		// strongest, even for sequential identifiers), and a weak tag
		// only costs an extra key compare on the rare false match.
		v := uint64(x) * 0x9E3779B97F4A7C15
		tag := v << 32 // low product bits become the slot tag
		i := v >> a.shift
		for {
			s := a.table[i]
			if s&0xffffffff == 0 {
				a.table[i] = tag | 1
				a.keys[i] = x
				a.slots = append(a.slots, uint32(i))
				break
			}
			if s&(0xffffffff<<32) == tag && a.keys[i] == x {
				a.table[i] = s + 1
				break
			}
			i = (i + 1) & a.mask
		}
	}
	return len(a.slots)
}

// pair returns the i-th distinct item (in first-appearance order) and
// its aggregated count.
func (a *batchAgg) pair(i int) (core.Item, int64) {
	s := a.slots[i]
	return a.keys[s], int64(a.table[s] & 0xffffffff)
}

// release clears the scratch for the next batch, keeping capacity.
func (a *batchAgg) release() {
	for _, s := range a.slots {
		a.table[s] = 0
	}
	a.slots = a.slots[:0]
}
