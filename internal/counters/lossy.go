package counters

import (
	"math"

	"streamfreq/internal/core"
)

// LossyCounting implements the Manku–Motwani lossy counting algorithm
// ("LC" in the paper). The stream is conceptually divided into buckets of
// width w = ⌈1/ε⌉. Each tracked entry stores its observed count and Δ,
// the bucket index when it was inserted minus one — an upper bound on how
// many occurrences were missed before tracking began. At every bucket
// boundary, entries whose count + Δ no longer exceeds the current bucket
// index are pruned.
//
// Invariants, with N the stream length:
//
//	true(x) − εN ≤ Estimate(x) ≤ true(x)
//	every item with true(x) ≥ εN is tracked
//
// Space is O((1/ε)·log(εN)) in the worst case — unlike Frequent and
// Space-Saving, the live entry set can exceed 1/ε, which is exactly the
// space overshoot the paper's space plots show for LC at low skew.
//
// The Variant field distinguishes the paper's two flavors:
//
//   - VariantLC reports the observed count (an underestimate); its Query
//     compensates with +Δ so recall is preserved.
//   - VariantLCD reports count + Δ (an upper bound, like Space-Saving),
//     trading precision for one-sided error in the other direction.
type LossyCounting struct {
	epsilon float64
	width   int64 // bucket width w = ceil(1/epsilon)
	bucket  int64 // current bucket id b = ceil(N/w)
	index   map[core.Item]*lcEntry
	n       int64
	variant LCVariant
}

type lcEntry struct {
	count int64
	delta int64
}

// LCVariant selects the reporting flavor.
type LCVariant int

const (
	// VariantLC reports observed counts (underestimates).
	VariantLC LCVariant = iota
	// VariantLCD reports count+Δ upper bounds.
	VariantLCD
)

// NewLossyCounting returns an LC summary with error parameter epsilon in
// (0, 1).
func NewLossyCounting(epsilon float64, variant LCVariant) *LossyCounting {
	if epsilon <= 0 || epsilon >= 1 {
		panic("counters: LossyCounting requires 0 < epsilon < 1")
	}
	return &LossyCounting{
		epsilon: epsilon,
		width:   int64(math.Ceil(1 / epsilon)),
		bucket:  1,
		index:   make(map[core.Item]*lcEntry),
		variant: variant,
	}
}

// Name implements core.Summary.
func (l *LossyCounting) Name() string {
	if l.variant == VariantLCD {
		return "LCD"
	}
	return "LC"
}

// Epsilon returns the configured error parameter.
func (l *LossyCounting) Epsilon() float64 { return l.epsilon }

// N implements core.Summary.
func (l *LossyCounting) N() int64 { return l.n }

// Entries returns the number of live tracked entries (the space plots'
// quantity of interest for LC).
func (l *LossyCounting) EntryCount() int { return len(l.index) }

// Update processes count arrivals of x. count must be positive.
func (l *LossyCounting) Update(x core.Item, count int64) {
	mustPositive("LossyCounting", count)
	if e, ok := l.index[x]; ok {
		e.count += count
	} else {
		l.index[x] = &lcEntry{count: count, delta: l.bucket - 1}
	}
	// Advance the stream position one unit at a time across bucket
	// boundaries; weighted arrivals may span several buckets.
	l.n += count
	newBucket := (l.n + l.width - 1) / l.width // ceil(n/w)
	if newBucket > l.bucket {
		l.bucket = newBucket
		l.prune()
	}
}

// prune removes entries whose upper bound fell below the bucket index.
func (l *LossyCounting) prune() {
	for it, e := range l.index {
		if e.count+e.delta <= l.bucket-1 {
			delete(l.index, it)
		}
	}
}

// Estimate returns the variant-appropriate estimate (0 when untracked).
func (l *LossyCounting) Estimate(x core.Item) int64 {
	e, ok := l.index[x]
	if !ok {
		return 0
	}
	if l.variant == VariantLCD {
		return e.count + e.delta
	}
	return e.count
}

// Query returns items that may reach threshold: count + Δ ≥ threshold,
// reported with the variant's estimate, in descending order. For
// threshold = φN with φ > ε this has perfect recall.
func (l *LossyCounting) Query(threshold int64) []core.ItemCount {
	var out []core.ItemCount
	for it, e := range l.index {
		if e.count+e.delta >= threshold {
			est := e.count
			if l.variant == VariantLCD {
				est = e.count + e.delta
			}
			out = append(out, core.ItemCount{Item: it, Count: est})
		}
	}
	core.SortByCountDesc(out)
	return out
}

// Clone returns an independent deep copy (entries duplicated, parameters
// and bucket position shared by value).
func (l *LossyCounting) Clone() *LossyCounting {
	nl := &LossyCounting{
		epsilon: l.epsilon,
		width:   l.width,
		bucket:  l.bucket,
		n:       l.n,
		variant: l.variant,
		index:   make(map[core.Item]*lcEntry, len(l.index)),
	}
	for it, e := range l.index {
		nl.index[it] = &lcEntry{count: e.count, delta: e.delta}
	}
	return nl
}

// Snapshot implements core.Snapshotter.
func (l *LossyCounting) Snapshot() core.Summary { return l.Clone() }

// entryBytes is the charged size of one (item, count, err, heap-index)
// counter slot held in a Go map, doubled for map/pointer overhead: the
// accounting rule of the map-based summaries (LC here, FrequentNaive).
// The flat-storage summaries report ssBlockBytes instead.
const entryBytes = 2 * (8 + 8 + 8 + 8)

// Bytes charges the live entries at the common accounting rate. LC's
// footprint floats with the data distribution; Bytes reports the current
// footprint, and the harness additionally records the high-water mark.
func (l *LossyCounting) Bytes() int { return entryBytes * len(l.index) }

// Merge combines another LossyCounting summary with identical epsilon and
// variant. Counts add; deltas add (each side's Δ bounds its own missed
// mass, and the bound for the concatenation is the sum); the bucket index
// is recomputed from the combined length and a prune pass restores the
// space bound. The merged summary obeys the LC error bound for the
// concatenated stream.
func (l *LossyCounting) Merge(other core.Summary) error {
	o, ok := other.(*LossyCounting)
	if !ok {
		return core.Incompatible("LossyCounting: cannot merge %T", other)
	}
	if o.epsilon != l.epsilon || o.variant != l.variant {
		return core.Incompatible("LossyCounting: parameter mismatch (ε=%g/%g, variant=%d/%d)",
			l.epsilon, o.epsilon, l.variant, o.variant)
	}
	for it, oe := range o.index {
		if e, ok := l.index[it]; ok {
			e.count += oe.count
			e.delta += oe.delta
		} else {
			l.index[it] = &lcEntry{count: oe.count, delta: oe.delta + l.bucket - 1}
		}
	}
	// Items tracked here but not in o may have been missed by o for up to
	// o's pruning bound; widen their deltas accordingly.
	for it, e := range l.index {
		if _, inO := o.index[it]; !inO && o.n > 0 {
			_ = it
			e.delta += o.bucket - 1
		}
	}
	l.n += o.n
	l.bucket = (l.n + l.width - 1) / l.width
	if l.bucket < 1 {
		l.bucket = 1
	}
	l.prune()
	return nil
}
