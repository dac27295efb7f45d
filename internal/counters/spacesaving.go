package counters

import (
	"fmt"
	"sort"

	"streamfreq/internal/core"
)

// SpaceSavingHeap implements the Space-Saving algorithm of Metwally,
// Agrawal & El Abbadi with a min-heap over the counters — the "SSH"
// variant of the paper.
//
// Space-Saving keeps exactly k counters. A new item that does not fit
// *replaces* the minimum counter, inheriting its count (plus the new
// arrival) and recording the inherited count as the entry's maximum
// possible error. Invariants, with min = smallest tracked count:
//
//	true(x) ≤ Estimate(x) ≤ true(x) + min     for tracked x
//	true(x) ≤ min                             for untracked x
//
// so every item with true count > n/k is tracked, and with k = ⌈1/ε⌉
// counters Space-Saving solves the ε-approximate problem with perfect
// recall and counts overestimated by at most εn.
//
// Storage is the flat slab layout of slab.go — counters in one
// pointer-free node slice, an int32 id heap, and an open-addressed
// index — instead of a Go map over heap-allocated entries. The
// structural behavior (heap arrangement, and with it the SS01 wire
// encoding) is identical to the old layout; what changed is that an
// instance is three slice headers over flat memory, cheap enough to
// hold millions of (NewSlab-backed) tenants resident.
type SpaceSavingHeap struct {
	k    int
	n    int64
	st   ssStorage
	slab *Slab // non-nil when st came from a slab (see Release)
}

// NewSpaceSavingHeap returns an SSH summary with k counters, its
// storage allocated standalone. Use (*Slab).NewSpaceSaving to draw the
// storage from a shared arena instead.
func NewSpaceSavingHeap(k int) *SpaceSavingHeap {
	if k <= 0 {
		panic("counters: SpaceSaving requires k > 0")
	}
	return &SpaceSavingHeap{k: k, st: newSSStorage(k)}
}

// Release returns slab-drawn storage to its slab for reuse and leaves
// the summary empty and detached. A released summary must not be used
// again; snapshots taken earlier are unaffected (Clone copies out of
// the block). No-op for standalone instances.
func (s *SpaceSavingHeap) Release() {
	if s.slab != nil {
		s.slab.put(s.k, s.st)
		s.slab = nil
	}
	s.st = ssStorage{}
	s.n = 0
}

// Name implements core.Summary.
func (s *SpaceSavingHeap) Name() string { return "SSH" }

// K returns the counter budget.
func (s *SpaceSavingHeap) K() int { return s.k }

// N implements core.Summary.
func (s *SpaceSavingHeap) N() int64 { return s.n }

// Min returns the smallest tracked count (0 while slots remain), which
// bounds the count of every untracked item.
func (s *SpaceSavingHeap) Min() int64 {
	if len(s.st.heap) < s.k {
		return 0
	}
	return s.st.nodes[s.st.heap[0]].count
}

// Update processes count arrivals of x. count must be positive.
func (s *SpaceSavingHeap) Update(x core.Item, count int64) {
	mustPositive("SpaceSaving", count)
	s.n += count

	if id := s.st.lookup(x); id >= 0 {
		s.st.bump(id, count)
		return
	}
	if len(s.st.heap) < s.k {
		s.st.fill(x, count)
		return
	}
	// Replace the minimum counter: x inherits its count as error.
	s.st.replace(0, x, count)
	s.st.heapFix(0)
}

// UpdateBatch implements core.BatchUpdater for unit-count arrivals: the
// batch is pre-aggregated into (item, count) pairs and applied by
// addPairs, so each distinct item pays one index lookup per batch
// instead of one per arrival, and the newcomers that replace the
// minimum are handed the tied minimum counters bottom-up instead of
// each sifting through the tie from the root. The result is
// Space-Saving — which may evict any counter holding the minimum — run
// on a fixed permutation of the batch's arrivals (tracked items'
// arrivals first, then the newcomers'), so every invariant holds
// exactly as for the scalar feed: no underestimates, per-entry err
// bounds the inherited overcount, every item above n/k tracked, and
// moreover Σcount = n and every err ≤ Min().
func (s *SpaceSavingHeap) UpdateBatch(items []core.Item) {
	core.Collapse(items, s.addPairs)
}

// addPairs applies a collapsed batch in two passes. Pass one, in
// first-appearance order: pairs whose item is already tracked add to
// their counter, and untracked pairs fill free counters while the
// summary is below k. The remaining untracked pairs are compacted to
// the front of the (scratch) slices and replace minimum counters in
// replaceTied.
func (s *SpaceSavingHeap) addPairs(items []core.Item, counts []int64) {
	st := &s.st
	p := 0
	for i, x := range items {
		c := counts[i]
		s.n += c
		if id := st.lookup(x); id >= 0 {
			st.bump(id, c)
		} else if len(st.heap) < s.k {
			st.fill(x, c)
		} else {
			items[p], counts[p] = x, c
			p++
		}
	}
	if p > 0 {
		st.replaceTied(items[:p], counts[:p])
	}
}

// replaceTied hands minimum counters to the pending newcomer pairs.
// Any counter tied at the minimum m may be evicted, and heap order
// makes the tied counters a connected subtree at the root. The pairs
// take that subtree's counters in post-order (nextVictim), so every
// victim's tied children were replaced before it: it takes err = m and
// count = m + c in place, its parent is still tied at m and its
// children hold more than m, so a unit pair needs no sift at all and a
// heavier one sifts down only through its own subtree. Once the root
// goes, the walk restarts at the new minimum. A walk costs one descent
// to its first tie leaf and O(1) amortized per victim after that,
// reading only the contiguous hcnt mirror, where the root
// replace-and-sift that Update pays moves a node at every tied level.
// A single pending pair evicts the root exactly as Update does, which
// keeps unit-length batches bit-identical to the scalar feed.
func (st *ssStorage) replaceTied(items []core.Item, counts []int64) {
	if len(items) == 1 {
		st.replace(0, items[0], counts[0])
		st.heapFix(0)
		return
	}
	h, m := 0, int64(0) // slot 0: start a walk
	for i, x := range items {
		h, m = st.nextVictim(h, m)
		st.replace(h, x, counts[i])
		if counts[i] > 1 {
			st.heapDown(h)
		}
	}
}

// nextVictim returns the heap slot after h in a post-order walk of the
// counters tied at m, and the minimum the walk is at. After a left
// child comes the first tie leaf of its tied sibling's subtree, else
// the parent. The root comes last, so h = 0 (the root was replaced, or
// nothing was yet) starts a walk of the tie at the current minimum
// from its first leaf.
func (st *ssStorage) nextVictim(h int, m int64) (int, int64) {
	switch {
	case h == 0:
		m = st.hcnt[0]
	case h&1 == 1 && h+1 < len(st.hcnt) && st.hcnt[h+1] == m:
		h++
	default:
		return (h - 1) / 2, m
	}
	for n := len(st.hcnt); ; {
		l := 2*h + 1
		switch {
		case l < n && st.hcnt[l] == m:
			h = l
		case l+1 < n && st.hcnt[l+1] == m:
			h = l + 1
		default:
			return h, m
		}
	}
}

// Estimate returns the (over-)estimate for tracked items and the global
// minimum counter for untracked items, the tightest upper bound
// Space-Saving can certify.
func (s *SpaceSavingHeap) Estimate(x core.Item) int64 {
	if id := s.st.lookup(x); id >= 0 {
		return s.st.nodes[id].count
	}
	return s.Min()
}

// GuaranteedCount returns a certified lower bound on x's true count
// (count − err for tracked items, 0 otherwise).
func (s *SpaceSavingHeap) GuaranteedCount(x core.Item) int64 {
	if id := s.st.lookup(x); id >= 0 {
		nd := &s.st.nodes[id]
		return nd.count - nd.err
	}
	return 0
}

// Query returns the tracked items with estimate ≥ threshold in
// descending order. Because Space-Saving never underestimates, this has
// perfect recall at any threshold > n/k.
func (s *SpaceSavingHeap) Query(threshold int64) []core.ItemCount {
	var out []core.ItemCount
	for _, id := range s.st.heap {
		nd := &s.st.nodes[id]
		if nd.count >= threshold {
			out = append(out, core.ItemCount{Item: nd.item, Count: nd.count})
		}
	}
	core.SortByCountDesc(out)
	return out
}

// Clone returns an independent deep copy: the flat storage is copied
// wholesale (same heap arrangement, same index layout) into standalone
// slices, so a clone of a slab-backed tenant survives the tenant's
// eviction.
func (s *SpaceSavingHeap) Clone() *SpaceSavingHeap {
	return &SpaceSavingHeap{k: s.k, n: s.n, st: s.st.clone(s.k)}
}

// Snapshot implements core.Snapshotter.
func (s *SpaceSavingHeap) Snapshot() core.Summary { return s.Clone() }

// Entries returns all tracked (item, estimate) pairs in descending order.
func (s *SpaceSavingHeap) Entries() []core.ItemCount {
	out := make([]core.ItemCount, 0, len(s.st.heap))
	for _, id := range s.st.heap {
		out = append(out, core.ItemCount{Item: s.st.nodes[id].item, Count: s.st.nodes[id].count})
	}
	core.SortByCountDesc(out)
	return out
}

// Bytes implements core.Summary: the exact flat-storage footprint
// (nodes + id heap + index). Batch pre-aggregation scratch is pooled
// across summaries (see core.Collapse) and not charged per instance.
func (s *SpaceSavingHeap) Bytes() int { return ssBlockBytes(s.k) }

// Merge combines another Space-Saving summary into this one following
// the mergeable-summaries construction: counters for the same item are
// summed (errors summed likewise); counters present on one side only are
// inflated by the other side's Min() bound (added to both count and err);
// then the k largest counters are kept. The result satisfies the
// Space-Saving invariants for the concatenated stream.
func (s *SpaceSavingHeap) Merge(other core.Summary) error {
	o, ok := other.(*SpaceSavingHeap)
	if !ok {
		return core.Incompatible("SpaceSaving: cannot merge %T", other)
	}
	if o.k != s.k {
		// Different k means different provisioning (φ): folding the
		// smaller-k side in would silently widen the error bound past
		// what either summary advertises.
		return core.Incompatible("SpaceSaving: counter budget mismatch (k=%d/%d)", s.k, o.k)
	}
	sMin, oMin := s.Min(), o.Min()
	all := make([]ssNode, 0, len(s.st.nodes)+len(o.st.nodes))
	for i := range s.st.nodes {
		nd := s.st.nodes[i]
		if oid := o.st.lookup(nd.item); oid >= 0 {
			nd.count += o.st.nodes[oid].count
			nd.err += o.st.nodes[oid].err
		} else {
			nd.count += oMin
			nd.err += oMin
		}
		all = append(all, nd)
	}
	for i := range o.st.nodes {
		nd := o.st.nodes[i]
		if s.st.lookup(nd.item) >= 0 {
			continue
		}
		nd.count += sMin
		nd.err += sMin
		all = append(all, nd)
	}
	// Keep the k largest counts (ties broken by ascending item,
	// matching core.SortByCountDesc's deterministic order).
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].item < all[j].item
	})
	if len(all) > s.k {
		all = all[:s.k]
	}
	s.st.reset()
	for i := range all {
		id := int32(len(s.st.nodes))
		s.st.nodes = append(s.st.nodes, ssNode{item: all[i].item, count: all[i].count, err: all[i].err})
		s.st.insert(all[i].item, id)
		s.st.heapPush(id)
	}
	s.n += o.n
	return nil
}

// Check verifies the summary's invariants: at most k counters; heap
// order over the counts, with the heapIdx and hcnt mirrors in step;
// every counter reachable through the index under its own item; and
// 0 ≤ err ≤ count on every counter. It returns nil on a consistent
// summary.
func (s *SpaceSavingHeap) Check() error {
	if len(s.st.heap) > s.k {
		return fmt.Errorf("counters: SpaceSaving holds %d counters, budget k=%d", len(s.st.heap), s.k)
	}
	if err := s.st.validateStorage(); err != nil {
		return err
	}
	for i := range s.st.nodes {
		if nd := &s.st.nodes[i]; nd.err < 0 || nd.err > nd.count {
			return fmt.Errorf("counters: SpaceSaving counter %d (item %d) has err %d outside [0, count %d]",
				i, nd.item, nd.err, nd.count)
		}
	}
	return nil
}
