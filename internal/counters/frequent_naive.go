package counters

import (
	"streamfreq/internal/core"
)

// FrequentNaive is the textbook Misra–Gries implementation: when a new
// item arrives and all k counters are taken, *every* counter is
// decremented — a Θ(k) scan per eviction. It exists as the ablation
// baseline for the offset-trick implementation in Frequent
// (BenchmarkAblationMGOffset): the two are semantically identical — for
// any input stream they hold exactly the same (item, count) set — which
// FuzzFrequentOffset verifies, so the speedup is pure
// implementation.
type FrequentNaive struct {
	k      int
	counts map[core.Item]int64
	n      int64
	decs   int64
}

// NewFrequentNaive returns a textbook Misra–Gries summary with k
// counters.
func NewFrequentNaive(k int) *FrequentNaive {
	if k <= 0 {
		panic("counters: Frequent requires k > 0")
	}
	return &FrequentNaive{k: k, counts: make(map[core.Item]int64, k)}
}

// Name implements core.Summary.
func (f *FrequentNaive) Name() string { return "F-naive" }

// K returns the counter budget.
func (f *FrequentNaive) K() int { return f.k }

// N implements core.Summary.
func (f *FrequentNaive) N() int64 { return f.n }

// MaxError returns the total decrement mass (≤ n/(k+1)).
func (f *FrequentNaive) MaxError() int64 { return f.decs }

// Update processes count arrivals of x. count must be positive.
func (f *FrequentNaive) Update(x core.Item, count int64) {
	mustPositive("Frequent", count)
	f.n += count

	if _, ok := f.counts[x]; ok {
		f.counts[x] += count
		return
	}
	if len(f.counts) < f.k {
		f.counts[x] = count
		return
	}
	// Decrement-all by m = min(count, smallest counter); survivors keep
	// their excess, zeros are evicted, and the new item enters with any
	// remaining mass.
	min := int64(1<<63 - 1)
	for _, c := range f.counts {
		if c < min {
			min = c
		}
	}
	m := count
	if min < m {
		m = min
	}
	f.decs += m
	for it, c := range f.counts {
		if c-m <= 0 {
			delete(f.counts, it)
		} else {
			f.counts[it] = c - m
		}
	}
	if count > m {
		f.counts[x] = count - m
	}
}

// Estimate returns the stored (lower-bound) count, 0 when untracked.
func (f *FrequentNaive) Estimate(x core.Item) int64 { return f.counts[x] }

// Query mirrors Frequent.Query: tracked items whose count may reach
// threshold after compensation.
func (f *FrequentNaive) Query(threshold int64) []core.ItemCount {
	var out []core.ItemCount
	for it, c := range f.counts {
		if c+f.decs >= threshold {
			out = append(out, core.ItemCount{Item: it, Count: c})
		}
	}
	core.SortByCountDesc(out)
	return out
}

// Entries returns all tracked pairs, descending.
func (f *FrequentNaive) Entries() []core.ItemCount {
	out := make([]core.ItemCount, 0, len(f.counts))
	for it, c := range f.counts {
		out = append(out, core.ItemCount{Item: it, Count: c})
	}
	core.SortByCountDesc(out)
	return out
}

// Clone returns an independent deep copy.
func (f *FrequentNaive) Clone() *FrequentNaive {
	nf := &FrequentNaive{k: f.k, n: f.n, decs: f.decs, counts: make(map[core.Item]int64, len(f.counts))}
	for it, c := range f.counts {
		nf.counts[it] = c
	}
	return nf
}

// Snapshot implements core.Snapshotter.
func (f *FrequentNaive) Snapshot() core.Summary { return f.Clone() }

// Bytes implements core.Summary.
func (f *FrequentNaive) Bytes() int { return entryBytes * f.k }
