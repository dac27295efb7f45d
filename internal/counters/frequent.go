// Package counters implements the counter-based frequent-items algorithms
// compared by the paper: Frequent (Misra–Gries), Lossy Counting (LC and
// the LCD variant), and Space-Saving in both its min-heap (SSH) and
// Stream-Summary linked-list (SSL) forms.
//
// All of them maintain a set of at most k (item, counter) pairs and answer
// point and threshold queries from those pairs alone. They process
// insert-only streams; calling Update with a negative count panics.
package counters

import (
	"fmt"

	"streamfreq/internal/core"
)

// mustPositive panics on non-positive counts; the counter-based
// algorithms support only the insert-only (cash-register) stream model,
// and a non-positive count indicates a harness wiring bug.
func mustPositive(name string, count int64) {
	if count <= 0 {
		panic("counters: " + name + " requires positive update counts (insert-only stream model)")
	}
}

// Frequent implements the Misra–Gries algorithm ("F" in the paper), the
// generalization of the Boyer–Moore majority algorithm to k counters.
//
// Invariant: for every item x, true(x) − n/(k+1) ≤ Estimate(x) ≤ true(x).
// Consequently every item with true count > n/(k+1) is present, which with
// k = ⌈1/ε⌉ counters solves the ε-approximate frequent-items problem with
// perfect recall when queries compensate for the deficit (see Query).
//
// The textbook algorithm decrements *all* counters when a new item
// arrives and no slot is free, which is Θ(k) per eviction. This
// implementation uses the standard offset trick to make updates
// O(log k): a global offset δ is added to all logical counts, so
// "decrement everything by m" is just δ += m followed by freeing the
// counters whose stored count has fallen to δ, which sit at the top of
// a min-heap. The counters live in the flat storage Space-Saving uses
// (slab.go); F is the one user that frees counters (popMin).
type Frequent struct {
	k      int
	st     ssStorage
	offset int64 // logical count of a counter is its stored count − offset
	n      int64
	decs   int64 // total decrement mass, for diagnostics and tests
}

// NewFrequent returns a Misra–Gries summary with k counters. k must be
// positive.
func NewFrequent(k int) *Frequent {
	if k <= 0 {
		panic("counters: Frequent requires k > 0")
	}
	return &Frequent{k: k, st: newSSStorage(k)}
}

// Name implements core.Summary.
func (f *Frequent) Name() string { return "F" }

// K returns the counter budget.
func (f *Frequent) K() int { return f.k }

// N implements core.Summary.
func (f *Frequent) N() int64 { return f.n }

// Update processes count arrivals of x. count must be positive.
func (f *Frequent) Update(x core.Item, count int64) {
	mustPositive("Frequent", count)
	f.n += count

	st := &f.st
	if id := st.lookup(x); id >= 0 {
		st.bump(id, count)
		return
	}
	if len(st.heap) < f.k {
		st.fill(x, f.offset+count)
		return
	}
	// All k slots taken: decrement all logical counts by
	// m = min(count, smallest logical count). If the new item's mass
	// survives (count > m), it takes a freed counter.
	m := min(count, st.hcnt[0]-f.offset)
	f.offset += m
	f.decs += m
	// Free the counters whose logical count reached zero.
	freed := false
	for len(st.heap) > 0 && st.hcnt[0] <= f.offset {
		st.popMin()
		freed = true
	}
	if count > m {
		if !freed {
			// Cannot happen: count > m implies m == minLogical, so the
			// minimum counter hit zero and was freed.
			panic("counters: Frequent invariant violated (no slot freed)")
		}
		st.fill(x, f.offset+(count-m))
	}
}

// UpdateBatch implements core.BatchUpdater for unit-count arrivals: the
// batch is pre-aggregated in a scratch table and the merged counts
// applied in first-appearance order, trading per-arrival index lookups
// and heap sifts for one of each per distinct item in the batch. A
// weighted Update(x, c) is equivalent to c consecutive unit updates
// (the min(count, minLogical) decrement rule is the unit rule
// iterated), but aggregation also moves an item's later arrivals to
// its first appearance, which can shift the decrement schedule — so
// individual estimates may differ from the scalar replay by a few
// units, always within the n/(k+1) deficit bound both replays
// guarantee (see querySlack in the root package's batch_test.go).
func (f *Frequent) UpdateBatch(items []core.Item) {
	core.Collapse(items, f.addPairs)
}

// addPairs applies each collapsed (item, count) pair as one weighted
// Update, in first-appearance order.
func (f *Frequent) addPairs(items []core.Item, counts []int64) {
	for k, x := range items {
		f.Update(x, counts[k])
	}
}

// Estimate returns the Misra–Gries lower-bound estimate of x's count
// (0 when x is not tracked). It never overestimates.
func (f *Frequent) Estimate(x core.Item) int64 {
	if id := f.st.lookup(x); id >= 0 {
		return f.st.nodes[id].count - f.offset
	}
	return 0
}

// MaxError returns the maximum amount by which any estimate can fall
// short of the true count: the total decrement mass, itself bounded by
// n/(k+1).
func (f *Frequent) MaxError() int64 { return f.decs }

// Query returns the tracked items whose count *may* reach threshold,
// i.e. Estimate(x) + MaxError() ≥ threshold, in descending estimate
// order. This is the compensation rule that gives Misra–Gries perfect
// recall at threshold φn when k ≥ 1/φ.
func (f *Frequent) Query(threshold int64) []core.ItemCount {
	var out []core.ItemCount
	for i := range f.st.nodes {
		nd := &f.st.nodes[i]
		if est := nd.count - f.offset; est+f.decs >= threshold {
			out = append(out, core.ItemCount{Item: nd.item, Count: est})
		}
	}
	core.SortByCountDesc(out)
	return out
}

// Clone returns an independent deep copy: the flat storage is copied
// wholesale, so the clone keeps the same heap arrangement (and with it
// the same FQ01 encoding).
func (f *Frequent) Clone() *Frequent {
	return &Frequent{k: f.k, st: f.st.clone(f.k), offset: f.offset, n: f.n, decs: f.decs}
}

// Snapshot implements core.Snapshotter.
func (f *Frequent) Snapshot() core.Summary { return f.Clone() }

// Entries returns all tracked (item, estimate) pairs in descending order.
func (f *Frequent) Entries() []core.ItemCount {
	out := make([]core.ItemCount, 0, len(f.st.nodes))
	for i := range f.st.nodes {
		out = append(out, core.ItemCount{Item: f.st.nodes[i].item, Count: f.st.nodes[i].count - f.offset})
	}
	core.SortByCountDesc(out)
	return out
}

// Bytes implements core.Summary: the exact flat-storage footprint, the
// same accounting rule as SpaceSavingHeap. Batch pre-aggregation
// scratch is pooled across summaries (see core.Collapse) and not
// charged per instance.
func (f *Frequent) Bytes() int { return ssBlockBytes(f.k) }

// Merge combines another Frequent summary into this one using the
// Agarwal et al. mergeable-summaries rule: sum matching counters, then
// reduce back to k counters by subtracting the (k+1)-largest combined
// count from everything and dropping non-positive entries. The merged
// summary obeys the Misra–Gries guarantee for the concatenated stream.
func (f *Frequent) Merge(other core.Summary) error {
	o, ok := other.(*Frequent)
	if !ok {
		return core.Incompatible("Frequent: cannot merge %T", other)
	}
	if o.k != f.k {
		// Same reasoning as Space-Saving: a k mismatch is a provisioning
		// (φ) mismatch, and merging would exceed both advertised bounds.
		return core.Incompatible("Frequent: counter budget mismatch (k=%d/%d)", f.k, o.k)
	}
	all := make([]core.ItemCount, 0, len(f.st.nodes)+len(o.st.nodes))
	for i := range f.st.nodes {
		nd := &f.st.nodes[i]
		c := nd.count - f.offset
		if oid := o.st.lookup(nd.item); oid >= 0 {
			c += o.st.nodes[oid].count - o.offset
		}
		all = append(all, core.ItemCount{Item: nd.item, Count: c})
	}
	for i := range o.st.nodes {
		if nd := &o.st.nodes[i]; f.st.lookup(nd.item) < 0 {
			all = append(all, core.ItemCount{Item: nd.item, Count: nd.count - o.offset})
		}
	}
	core.SortByCountDesc(all)

	var sub int64
	if len(all) > f.k {
		sub = all[f.k].Count
	}
	f.st.reset()
	f.offset = 0
	for _, ic := range all[:min(len(all), f.k)] {
		if ic.Count <= sub {
			break
		}
		f.st.fill(ic.Item, ic.Count-sub)
	}
	f.n += o.n
	f.decs += o.decs + sub
	return nil
}

// Check verifies the summary's invariants: the flat storage is
// consistent (heap order, mirrors, index), at most k counters are held,
// every logical count is positive, n and MaxError are non-negative, and
// the decrement accounting balances: Σestimates + (k+1)·MaxError ≤ N.
// Each decrement of m removes m from k counters and m arrivals of the
// newcomer, so the two sides are equal for an update-fed summary; a
// merge's reduction step drops at least as much mass as it charges, so
// the inequality holds after Merge. It returns nil on a consistent
// summary.
func (f *Frequent) Check() error {
	if len(f.st.heap) > f.k {
		return fmt.Errorf("counters: Frequent holds %d counters, budget k=%d", len(f.st.heap), f.k)
	}
	if err := f.st.validateStorage(); err != nil {
		return err
	}
	if f.n < 0 || f.decs < 0 {
		return fmt.Errorf("counters: Frequent has negative accounting (n=%d, MaxError=%d)", f.n, f.decs)
	}
	// Every estimate is positive and their running sum is held to ≤ n,
	// so it cannot overflow; (k+1)·MaxError ≤ rest is tested by
	// division for the same reason.
	var sum int64
	for i := range f.st.nodes {
		est := f.st.nodes[i].count - f.offset
		if est <= 0 {
			return fmt.Errorf("counters: Frequent counter %d (item %d) has logical count %d", i, f.st.nodes[i].item, est)
		}
		if est > f.n-sum {
			return fmt.Errorf("counters: Frequent estimates sum past n=%d", f.n)
		}
		sum += est
	}
	if rest := f.n - sum; f.decs > rest/int64(f.k+1) {
		return fmt.Errorf("counters: Frequent estimates %d + (k+1)·MaxError %d·%d exceed n=%d",
			sum, f.k+1, f.decs, f.n)
	}
	return nil
}
