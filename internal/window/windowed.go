// Package window provides sliding-window frequent items: heavy hitters
// over the most recent W stream items, not the whole history. This is the
// natural "recent trends" extension the VLDB 2008 study's applications
// call for (queries trending *today*, flows hot *right now*) and a
// standard follow-up to whole-stream summaries.
//
// The construction is block decomposition: the window is covered by B
// fixed-size blocks, each summarized by an independent Space-Saving
// summary. The oldest block is dropped as the window slides; queries
// merge the live blocks. Errors compound from two sources — the per-block
// Space-Saving overestimate (εW/B per block, εW total) and the boundary
// block, whose up-to-W/B expired items may still be counted — both
// bounded and reported via Slack.
package window

import (
	"fmt"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
)

// Windowed summarizes the most recent W items with B blocks of
// Space-Saving summaries, under the repository's full summary contract,
// so sliding-window heavy hitters plug into every layer built on
// core.Summary: the Concurrent wrapper's snapshot serving, the
// registry wire format (WN01), checkpoints and WAL recovery, and the
// cluster merge. It answers the *recent-past* form of the frequent-items
// question — counts over (roughly) the last W arrivals instead of the
// whole stream — which is the operating point of the paper's trending-
// queries and hot-flows applications.
//
// Contracts, layer by layer:
//
//   - Summary: Update accepts weighted arrivals (count consecutive unit
//     arrivals of the same item, split across block boundaries exactly
//     where scalar arrivals would fall); Estimate/Query answer over the
//     live blocks and are one-sided (never below the true last-W count,
//     above it by at most Slack); N is the total stream length ever
//     seen, as everywhere else — the durability layer's stream-position
//     accounting depends on it. The windowed denominator for φ-style
//     thresholds is WindowN.
//   - BatchUpdater: UpdateBatch splits the batch at block boundaries and
//     feeds each segment through the block's own Space-Saving batch
//     path. Block boundaries depend only on the arrival count, so a WAL
//     replay with the original batch boundaries reproduces the live
//     run's state bit for bit.
//   - Snapshotter: Clone deep-copies the ring, so snapshot serving,
//     checkpoints, and /summary shipping work unchanged.
//   - Merger: windows of identical geometry merge block-by-block
//     aligned by recency — the same mergeable-summaries construction
//     the per-block summaries already use — so a coordinator can serve
//     the union of several nodes' recent traffic. See Merge for the
//     exact semantics.
//
// Durability semantics (the expiring-block contract): a checkpoint
// encodes only the live ring — expired blocks are gone from durable
// state, which is what keeps it O(W) however long the server runs — and
// WAL replay reconstructs block boundaries from the batch records the
// log already preserves, because boundaries are a function of stream
// position alone. A recovered window is therefore bit-identical (via
// WN01) to a fresh window fed exactly the durable prefix with the
// original batch boundaries; recovery_test.go pins this.
type Windowed struct {
	size      int
	blocks    int
	blockLen  int
	k         int // counters per block summary
	ring      []*counters.SpaceSavingHeap
	head      int // index of the block currently being filled
	curFill   int
	liveCount int64 // items currently represented (≤ coverage + blockLen)
	n         int64 // total items ever seen
	// coverage is the total window span represented: W for a single
	// stream, summed under Merge (a merged summary covers one window per
	// contributing node). It is the cap WindowN applies to the live item
	// count, and Slack scales with it.
	coverage int64
}

// NewWindowed returns a sliding-window summary over the most recent
// size items, covered by blocks Space-Saving summaries of k counters
// each; size must be a multiple of blocks. The geometry bounds match
// what the WN01 decoder accepts, so any window that can be constructed
// can also be checkpointed and recovered — an over-bound configuration
// fails here, at startup, not at recovery time with an unreadable data
// directory.
func NewWindowed(size, blocks, k int) (*Windowed, error) {
	if size <= 0 || blocks <= 0 || k <= 0 {
		return nil, fmt.Errorf("window: size, blocks, k must be positive")
	}
	if size%blocks != 0 {
		return nil, fmt.Errorf("window: size %d not a multiple of blocks %d", size, blocks)
	}
	if blocks > maxWNBlocks || k > maxWNCounters || int64(size) > maxWNSize {
		return nil, fmt.Errorf("window: geometry out of range (W=%d B=%d k=%d; max %d/%d/%d)",
			size, blocks, k, maxWNSize, maxWNBlocks, maxWNCounters)
	}
	// The ring keeps blocks+1 summaries so the live blocks always cover at
	// least the last W items: B full blocks plus the one being filled.
	// Coverage therefore spans [W, W + W/B] items, which makes windowed
	// estimates one-sided (never below the true last-W count).
	s := &Windowed{
		size:     size,
		blocks:   blocks,
		blockLen: size / blocks,
		k:        k,
		ring:     make([]*counters.SpaceSavingHeap, blocks+1),
		coverage: int64(size),
	}
	s.ring[0] = counters.NewSpaceSavingHeap(k)
	return s, nil
}

// Size returns the window length W.
func (s *Windowed) Size() int { return s.size }

// N returns the total number of items ever observed.
func (s *Windowed) N() int64 { return s.n }

// Live returns the number of items currently represented in the window
// summaries (at most W + W/B during the boundary block, per merged
// window).
func (s *Windowed) Live() int64 { return s.liveCount }

// Slack returns the maximum overestimation of any windowed estimate:
// per window, the sum of per-block Space-Saving slack plus one boundary
// block of expired items. A merged summary adds one window's slack per
// contributing window, so the total scales by coverage/W.
func (s *Windowed) Slack() int64 {
	perWindow := int64(s.blocks+1)*int64(s.blockLen)/int64(s.k) + int64(s.blockLen)
	return perWindow * (s.coverage / int64(s.size))
}

// Name implements core.Summary. "SSW" = Space-Saving, windowed.
func (s *Windowed) Name() string { return "SSW" }

// K returns the per-block counter budget.
func (s *Windowed) K() int { return s.k }

// Blocks returns the block count B.
func (s *Windowed) Blocks() int { return s.blocks }

// WindowN returns the windowed stream length — the denominator for
// φ-style thresholds over recent traffic: the live item count, capped
// at the window span (live counts run up to W + W/B while the boundary
// block drains, and capping keeps φ·WindowN at the φ·W operating point
// there). The serving layer uses it to turn /topk?phi= into a
// recent-traffic threshold instead of a whole-history one.
func (s *Windowed) WindowN() int64 {
	if s.liveCount < s.coverage {
		return s.liveCount
	}
	return s.coverage
}

// fillSegments walks total arrivals through the ring, one segment per
// block-boundary crossing: apply feeds the next m arrivals into the
// current head block, then the shared accounting advances the fill and
// rotates when the block completes. Both ingest paths run through this
// single walk, so the boundary and liveCount rules cannot drift apart —
// which is what the bit-identical WAL-replay contract leans on.
func (s *Windowed) fillSegments(total int64, apply func(m int64)) {
	for total > 0 {
		m := int64(s.blockLen - s.curFill)
		if m > total {
			m = total
		}
		apply(m)
		s.n += m
		s.liveCount += m
		s.curFill += int(m)
		if s.curFill == s.blockLen {
			s.rotate()
		}
		total -= m
	}
}

// rotate advances to the next ring slot once the current block is full:
// the next slot becomes current and whatever it held expires. Block
// boundaries are a pure function of the arrival count, which is what
// makes the windowed state reproducible from any stream prefix (WAL
// replay lands on the same boundaries the live run did).
func (s *Windowed) rotate() {
	s.head = (s.head + 1) % len(s.ring)
	if old := s.ring[s.head]; old != nil {
		s.liveCount -= old.N()
	}
	s.ring[s.head] = counters.NewSpaceSavingHeap(s.k)
	s.curFill = 0
}

// Update implements core.Summary for the insert-only model: count
// consecutive arrivals of x, split across block boundaries exactly as
// count scalar arrivals would be. count must be positive.
func (s *Windowed) Update(x core.Item, count int64) {
	if count <= 0 {
		panic("window: Windowed requires positive update counts (insert-only stream model)")
	}
	s.fillSegments(count, func(m int64) {
		s.ring[s.head].Update(x, m)
	})
}

// UpdateBatch implements core.BatchUpdater: the batch is split at block
// boundaries and each segment ingested through the block summary's own
// batch path, so the amortized Space-Saving costs carry over and the
// resulting state depends only on the stream content and the batch
// boundaries — the exact reproducibility the WAL replay contract needs.
func (s *Windowed) UpdateBatch(items []core.Item) {
	off := 0
	s.fillSegments(int64(len(items)), func(m int64) {
		s.ring[s.head].UpdateBatch(items[off : off+int(m)])
		off += int(m)
	})
}

// Clone returns an independent deep copy: every live block is cloned
// and the ring geometry (head, fill, accounting) copied verbatim, so
// the clone serves exactly the parent's current window and neither side
// ever observes the other's subsequent arrivals.
func (s *Windowed) Clone() *Windowed {
	ns := *s
	ns.ring = make([]*counters.SpaceSavingHeap, len(s.ring))
	for i, b := range s.ring {
		if b != nil {
			ns.ring[i] = b.Clone()
		}
	}
	return &ns
}

// Snapshot implements core.Snapshotter.
func (s *Windowed) Snapshot() core.Summary { return s.Clone() }

// Estimate returns an upper-bound estimate of x's count within the
// current window (plus the boundary block).
func (s *Windowed) Estimate(x core.Item) int64 {
	var total int64
	for _, b := range s.ring {
		if b == nil {
			continue
		}
		if g := b.Estimate(x); g > 0 {
			total += g
		}
	}
	return total
}

// Query returns the items whose windowed estimate reaches threshold,
// descending. Recall guarantee: any item with at least threshold
// occurrences in the current window is reported, because block summaries
// never underestimate.
func (s *Windowed) Query(threshold int64) []core.ItemCount {
	m := counters.NewSpaceSavingHeap(s.k)
	for _, b := range s.ring {
		if b == nil || b.N() == 0 {
			continue
		}
		// Merge never fails between same-typed summaries.
		if err := m.Merge(b); err != nil {
			panic("window: " + err.Error())
		}
	}
	return m.Query(threshold)
}

// Bytes reports the footprint of all live block summaries.
func (s *Windowed) Bytes() int {
	total := 0
	for _, b := range s.ring {
		if b != nil {
			total += b.Bytes()
		}
	}
	return total
}

// Merge combines another windowed summary of identical geometry (same
// W, B, k) into this one, block-by-block aligned by recency: the other
// side's freshest block folds into the receiver's freshest, its second-
// freshest into the second-freshest, and so on, each per-block merge
// being the Space-Saving mergeable-summaries construction. The result
// answers for the union of the two recent windows — every item frequent
// in either node's last W arrivals stays reported, estimates never
// underestimate the union's windowed count, and the per-side slacks
// add. coverage sums (the merged summary spans one window per node), so
// WindowN keeps φ-thresholds meaningful over the union.
//
// The merged summary is a serving artifact: it answers queries and
// re-encodes deterministically (coordinators stack), but block
// boundaries are per-stream, so continuing to *ingest* into a merged
// summary rotates on the receiver's own fill cadence only.
func (s *Windowed) Merge(other core.Summary) error {
	o, ok := other.(*Windowed)
	if !ok {
		return core.Incompatible("Windowed: cannot merge %T", other)
	}
	if o.size != s.size || o.blocks != s.blocks || o.k != s.k {
		return core.Incompatible("Windowed: geometry mismatch (W=%d/%d, B=%d/%d, k=%d/%d)",
			s.size, o.size, s.blocks, o.blocks, s.k, o.k)
	}
	ring := len(s.ring)
	for j := 0; j < ring; j++ {
		ob := o.ring[((o.head-j)%ring+ring)%ring]
		if ob == nil || ob.N() == 0 {
			continue
		}
		si := ((s.head-j)%ring + ring) % ring
		if rb := s.ring[si]; rb != nil {
			if err := rb.Merge(ob); err != nil {
				return err
			}
		} else {
			s.ring[si] = ob.Clone()
		}
	}
	s.n += o.n
	s.coverage += o.coverage
	var live int64
	for _, b := range s.ring {
		if b != nil {
			live += b.N()
		}
	}
	s.liveCount = live
	return nil
}

// Stats is the windowed observability snapshot freqd's /stats surfaces.
type Stats struct {
	// Size is the window length W; Blocks the block count B; BlockLen
	// W/B; K the per-block counter budget.
	Size, Blocks, BlockLen, K int
	// N is the total arrivals ever seen; Live the items currently
	// represented in the ring (up to W + W/B); WindowN the capped
	// φ-threshold denominator; Coverage the summed window span (W per
	// merged stream).
	N, Live, WindowN, Coverage int64
	// Slack bounds the overestimation of any windowed estimate.
	Slack int64
	// BoundaryExpired is how many already-expired items the boundary
	// (oldest) block still counts — Live − WindowN, between 0 and
	// BlockLen for an unmerged window.
	BoundaryExpired int64
}

// WindowStats reports the window's current shape and error accounting.
func (s *Windowed) WindowStats() Stats {
	return Stats{
		Size:            s.size,
		Blocks:          s.blocks,
		BlockLen:        s.blockLen,
		K:               s.k,
		N:               s.n,
		Live:            s.liveCount,
		WindowN:         s.WindowN(),
		Coverage:        s.coverage,
		Slack:           s.Slack(),
		BoundaryExpired: s.liveCount - s.WindowN(),
	}
}
