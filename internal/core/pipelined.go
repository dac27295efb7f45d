package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamfreq/internal/ring"
)

// Pipelined is the lock-free ingest plane: updates are staged into
// per-shard MPSC rings (ring.Ring) by the writers and applied by one
// drainer goroutine per shard, so concurrent writers never contend on
// a summary mutex — the write path is an atomic position claim, a WAL
// append (when persisting), and a scatter into pre-owned ring slots.
//
// Ordering is the whole design. One global cursor allocates positions
// across ALL rings: a claimed position occupies the same slot index in
// every shard's ring (staged empty where the batch has no items for
// that shard), so each drainer applies positions in global claim
// order. Per-shard apply order therefore equals the order a purely
// sequential scatter would produce with the same batch boundaries,
// which keeps the pipelined plane bit-identical to sequential
// UpdateBatch into per-shard summaries (pinned by
// TestPipelinedOrderMatchesSequential and the registry-wide
// TestPipelinedMatchesSequentialRegistry).
//
// Durability keeps the same WAL-append-before-apply contract as
// Concurrent, enforced by a ticket on the claim position: a
// writer that claimed position g waits for walTurn == g, appends,
// then advances walTurn — so log order equals claim order equals
// apply order, and the append happens before the batch is even staged,
// let alone applied. The log can only ever be AHEAD of memory, which
// is the direction crash recovery requires (a torn tail loses
// acknowledged-but-unapplied updates the same way it loses
// acknowledged-but-unsynced ones).
//
// Snapshots, checkpoints, and restores quiesce the plane with a
// barrier: a control payload claimed at one position parks every
// drainer exactly there, so the coordinator observes all shards at a
// single cross-shard stream position — everything claimed before the
// barrier applied, nothing at or after it. With persistence on, the
// barrier also holds the WAL ticket at its position, so the log cut
// it hands to persist.Checkpoint equals the cloned state's N exactly.
//
// Reads without snapshot serving lock the target shard and see the
// applied prefix (which may trail acknowledged claims by in-flight
// ring occupancy); ServeSnapshots reads are epoch snapshots taken at
// barriers and are therefore claim-exact at refresh time. Drain blocks
// until everything acknowledged so far is applied; tests and
// single-writer hand-offs use it as the flush point.
type Pipelined struct {
	shards []Summary
	locks  []sync.Mutex
	rings  []*ring.Ring[Item]
	mask   uint64

	// cursor allocates claim positions (batches, weighted updates, and
	// barriers all claim); claimedN is the acknowledged stream position
	// in items. cursor doubles as the serving snapshot's version: a
	// snapshot taken at barrier position g has version g+1, and the
	// plane is clean iff no claim happened since (cursor still g+1).
	cursor   atomic.Uint64
	claimedN atomic.Int64

	// walTurn is the WAL ticket: the claim position allowed to append
	// next. Only meaningful when persist is set.
	walTurn atomic.Uint64
	persist Persister

	// life gates the staging fast path: writers and barriers hold the
	// read side across claim+stage+publish; Close takes the write side
	// to stop the plane, after which writers fall back to the
	// synchronous path under syncMu.
	life    sync.RWMutex
	stopped bool
	syncMu  sync.Mutex
	wg      sync.WaitGroup

	// Snapshot serving state, mirroring Concurrent.
	serving   bool
	maxStale  time.Duration
	snap      atomic.Pointer[shardedSnapshot]
	refreshMu sync.Mutex
	refreshes atomic.Int64
}

// DefaultRingCapacity is the staging-ring depth per shard: deep enough
// that writers only block when the drainer is a full ring behind,
// shallow enough that the staged backlog stays cache-resident.
const DefaultRingCapacity = 32

// ringShedItems is the per-slot buffer capacity bound: a slot buffer
// grown past two default batches by an outlier is shed on release
// instead of being pooled forever.
const ringShedItems = 2 * DefaultBatchSize

// pipeCtl is a barrier or shutdown control payload staged into every
// ring at one claim position.
type pipeCtl struct {
	stop     bool
	pending  atomic.Int32  // drainers yet to arrive
	quiesced chan struct{} // closed when the last drainer arrives
	release  chan struct{} // closed by the coordinator to resume
}

// shardIndex spreads low-entropy item spaces across shards with the
// SplitMix64 finalizer. Sharding by item (not round-robin) keeps each
// item's entire count in one shard, so per-shard guarantees are global
// guarantees with per-shard error ε_shard = ε.
func shardIndex(x Item, mask uint64) uint64 {
	v := uint64(x)
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	v ^= v >> 31
	return v & mask
}

// shardedSnapshot is an immutable ReadView of the plane: one clone per
// shard, taken at one barrier position, routed by the same item hash,
// so snapshot reads have exactly the semantics of locked reads
// (Estimate routes to the item's shard, Query unions the shard
// reports).
type shardedSnapshot struct {
	views   []Summary
	mask    uint64
	version uint64
	taken   time.Time
}

// Estimate implements ReadView by routing to the item's shard view.
func (v *shardedSnapshot) Estimate(x Item) int64 {
	return v.views[shardIndex(x, v.mask)].Estimate(x)
}

// Query implements ReadView as the union of the shard views' reports.
func (v *shardedSnapshot) Query(threshold int64) []ItemCount {
	var out []ItemCount
	for _, view := range v.views {
		out = append(out, view.Query(threshold)...)
	}
	SortByCountDesc(out)
	return out
}

// N implements ReadView as the sum of the shard views' totals.
func (v *shardedSnapshot) N() int64 {
	var n int64
	for _, view := range v.views {
		n += view.N()
	}
	return n
}

// NewPipelined builds a pipelined ingest plane with shards
// power-of-two shard summaries and starts one drainer goroutine per
// shard. The factory must produce mergeable summaries with identical
// parameters (for sketches, identical seeds). Call Close to stop the
// drainers; a closed plane keeps working through a synchronous
// fallback path.
func NewPipelined(shards int, factory func() Summary) *Pipelined {
	return newPipelined(shards, DefaultRingCapacity, factory)
}

// newPipelined is NewPipelined with the ring depth exposed for tests
// (tiny rings force wrap-around and backpressure).
func newPipelined(shards, ringCap int, factory func() Summary) *Pipelined {
	if shards <= 0 || shards&(shards-1) != 0 {
		panic("core: Pipelined requires a positive power-of-two shard count")
	}
	p := &Pipelined{
		shards: make([]Summary, shards),
		locks:  make([]sync.Mutex, shards),
		rings:  make([]*ring.Ring[Item], shards),
		mask:   uint64(shards - 1),
	}
	for i := range p.shards {
		p.shards[i] = factory()
		p.rings[i] = ring.New[Item](ringCap, ringShedItems)
	}
	p.wg.Add(shards)
	for i := range p.rings {
		go p.drainLoop(i)
	}
	return p
}

// drainLoop is shard i's consumer: it walks claim positions in order,
// applying batch payloads under the shard lock and parking at control
// payloads until the coordinator releases them.
func (p *Pipelined) drainLoop(i int) {
	defer p.wg.Done()
	r := p.rings[i]
	for pos := uint64(0); ; pos++ {
		s := r.Await(pos)
		switch s.Kind {
		case ring.KindBatch:
			p.locks[i].Lock()
			UpdateAll(p.shards[i], s.Items)
			p.locks[i].Unlock()
		case ring.KindWeighted:
			p.locks[i].Lock()
			p.shards[i].Update(s.X, s.Count)
			p.locks[i].Unlock()
		case ring.KindControl:
			ctl := s.Ctl.(*pipeCtl)
			stop := ctl.stop
			if ctl.pending.Add(-1) == 0 {
				close(ctl.quiesced)
			}
			if stop {
				r.Release(pos)
				return
			}
			<-ctl.release
		}
		r.Release(pos)
	}
}

// awaitTurn spins until the WAL ticket reaches pos.
func (p *Pipelined) awaitTurn(pos uint64) {
	for spins := 0; p.walTurn.Load() != pos; spins++ {
		ring.Backoff(spins)
	}
}

// Name implements Summary.
func (p *Pipelined) Name() string { return p.shards[0].Name() + "-pipelined" }

// UpdateBatch implements BatchUpdater: claim a position, append to the
// WAL in claim order (when persisting), scatter the batch into the
// claimed slot of each shard ring in one hashing pass, and publish.
// The batch is acknowledged once staged; Drain (or any barrier) is the
// flush point. items is copied out before return and may be reused by
// the caller, matching Concurrent's contract.
func (p *Pipelined) UpdateBatch(items []Item) {
	if len(items) == 0 {
		return
	}
	p.life.RLock()
	if p.stopped {
		p.life.RUnlock()
		p.syncUpdateBatch(items)
		return
	}
	pos := p.cursor.Add(1) - 1
	p.claimedN.Add(int64(len(items)))
	if p.persist != nil {
		p.awaitTurn(pos)
		p.persist.AppendBatch(items)
		p.walTurn.Store(pos + 1)
	}
	if len(p.rings) == 1 {
		s := p.rings[0].Acquire(pos)
		s.Kind = ring.KindBatch
		s.Items = append(s.Items, items...)
		p.rings[0].Publish(pos)
		p.life.RUnlock()
		return
	}
	// Acquire the position's slot in every ring up front (backpressure
	// happens here, before any item moves), then scatter with a single
	// hash-and-append pass — SlotAt is two loads once the slot is ours.
	for _, r := range p.rings {
		r.Acquire(pos).Kind = ring.KindEmpty
	}
	for _, x := range items {
		s := p.rings[shardIndex(x, p.mask)].SlotAt(pos)
		s.Kind = ring.KindBatch
		s.Items = append(s.Items, x)
	}
	for _, r := range p.rings {
		r.Publish(pos)
	}
	p.life.RUnlock()
}

// Update implements Summary for weighted (turnstile) arrivals. A
// weighted update claims a full position — it must, to keep every
// ring's slot sequence gap-free — so the scalar path is not the fast
// path here.
func (p *Pipelined) Update(x Item, count int64) {
	p.life.RLock()
	if p.stopped {
		p.life.RUnlock()
		p.syncUpdate(x, count)
		return
	}
	pos := p.cursor.Add(1) - 1
	p.claimedN.Add(count)
	if p.persist != nil {
		p.awaitTurn(pos)
		p.persist.AppendUpdate(x, count)
		p.walTurn.Store(pos + 1)
	}
	target := shardIndex(x, p.mask)
	for i, r := range p.rings {
		s := r.Acquire(pos)
		if uint64(i) == target {
			s.Kind = ring.KindWeighted
			s.X = x
			s.Count = count
		} else {
			s.Kind = ring.KindEmpty
		}
	}
	for _, r := range p.rings {
		r.Publish(pos)
	}
	p.life.RUnlock()
}

// syncUpdateBatch is the post-Close fallback: scatter and apply
// synchronously under syncMu (the drainers are gone). cursor is still
// advanced so the serving snapshot's dirtiness check stays exact.
func (p *Pipelined) syncUpdateBatch(items []Item) {
	p.syncMu.Lock()
	defer p.syncMu.Unlock()
	if p.persist != nil {
		p.persist.AppendBatch(items)
	}
	p.cursor.Add(1)
	p.claimedN.Add(int64(len(items)))
	bufs := make([][]Item, len(p.shards))
	for _, x := range items {
		i := shardIndex(x, p.mask)
		bufs[i] = append(bufs[i], x)
	}
	for i, b := range bufs {
		if len(b) == 0 {
			continue
		}
		p.locks[i].Lock()
		UpdateAll(p.shards[i], b)
		p.locks[i].Unlock()
	}
}

func (p *Pipelined) syncUpdate(x Item, count int64) {
	p.syncMu.Lock()
	defer p.syncMu.Unlock()
	if p.persist != nil {
		p.persist.AppendUpdate(x, count)
	}
	p.cursor.Add(1)
	p.claimedN.Add(count)
	i := shardIndex(x, p.mask)
	p.locks[i].Lock()
	p.shards[i].Update(x, count)
	p.locks[i].Unlock()
}

// quiesce claims one position, parks every drainer exactly there, and
// runs f(pos) with the plane frozen: all claims before pos applied,
// none at or after. With persistence on it holds the WAL ticket at pos
// across f, so the log position f observes equals the applied state.
// Returns false (f not run) when the plane is stopped.
func (p *Pipelined) quiesce(f func(pos uint64)) bool {
	p.life.RLock()
	if p.stopped {
		p.life.RUnlock()
		return false
	}
	pos := p.cursor.Add(1) - 1
	if p.persist != nil {
		p.awaitTurn(pos)
	}
	ctl := &pipeCtl{quiesced: make(chan struct{}), release: make(chan struct{})}
	ctl.pending.Store(int32(len(p.rings)))
	for _, r := range p.rings {
		s := r.Acquire(pos)
		s.Kind = ring.KindControl
		s.Ctl = ctl
		r.Publish(pos)
	}
	<-ctl.quiesced
	f(pos)
	if p.persist != nil {
		p.walTurn.Store(pos + 1)
	}
	close(ctl.release)
	p.life.RUnlock()
	return true
}

// Drain blocks until every update acknowledged before the call is
// applied to the shard summaries. On a closed plane it returns
// immediately (Close already drained).
func (p *Pipelined) Drain() {
	p.quiesce(func(uint64) {})
}

// Close stops the drainers after applying everything acknowledged so
// far. Further updates are applied synchronously; further barriers
// observe the final state directly. Close is idempotent.
func (p *Pipelined) Close() {
	p.life.Lock()
	if p.stopped {
		p.life.Unlock()
		return
	}
	pos := p.cursor.Add(1) - 1
	if p.persist != nil {
		p.awaitTurn(pos)
		p.walTurn.Store(pos + 1)
	}
	ctl := &pipeCtl{stop: true, quiesced: make(chan struct{})}
	ctl.pending.Store(int32(len(p.rings)))
	for _, r := range p.rings {
		s := r.Acquire(pos)
		s.Kind = ring.KindControl
		s.Ctl = ctl
		r.Publish(pos)
	}
	p.stopped = true
	p.life.Unlock()
	p.wg.Wait()
}

// PersistTo routes every subsequent update through pr before it is
// staged, in claim order; see Persister. Setup-time only (after
// Recover, before the plane is shared), like Concurrent.PersistTo.
func (p *Pipelined) PersistTo(pr Persister) {
	p.persist = pr
	p.walTurn.Store(p.cursor.Load())
}

// SnapshotBarrier clones every shard at one quiesced cross-shard
// position and hands the clones' total stream position to cut; see
// Concurrent.SnapshotBarrier. The WAL ticket is held across the cut,
// so cut's n equals the log's position exactly. cut may be nil.
func (p *Pipelined) SnapshotBarrier(cut func(n int64)) []Summary {
	var views []Summary
	clone := func(uint64) {
		views = make([]Summary, len(p.shards))
		var n int64
		for i, sh := range p.shards {
			views[i] = mustSnapshot(sh)
			n += views[i].N()
		}
		if cut != nil {
			cut(n)
		}
	}
	if !p.quiesce(clone) {
		// Stopped: writers go through syncMu, so holding it freezes the
		// plane just as completely as a barrier did.
		p.syncMu.Lock()
		defer p.syncMu.Unlock()
		clone(0)
	}
	return views
}

// RestoreState replaces each shard's summary with the corresponding
// recovered shard and resets the acknowledged stream position to the
// restored state's. The count must match the plane's shard count: a
// checkpoint taken at -shards 8 cannot restore into -shards 4 (per-item
// shard residency would change under the recovered counters — the
// operator re-shards by restarting with the original count).
// Setup-time only (startup recovery, before concurrent writers).
func (p *Pipelined) RestoreState(shards []Summary) error {
	if len(shards) != len(p.shards) {
		return fmt.Errorf("core: Pipelined restore needs %d shards, got %d (restart with the checkpoint's shard count)",
			len(p.shards), len(shards))
	}
	swap := func(uint64) {
		var n int64
		for i, sum := range shards {
			p.locks[i].Lock()
			p.shards[i] = sum
			p.locks[i].Unlock()
			n += sum.N()
		}
		p.claimedN.Store(n)
	}
	if !p.quiesce(swap) {
		p.syncMu.Lock()
		swap(0)
		p.syncMu.Unlock()
	}
	if p.serving {
		p.RefreshSnapshot()
	}
	return nil
}

// LiveN reports the acknowledged (claimed) stream position — the
// position recovery's continuity accounting checks — which may lead
// the applied position by the in-flight ring occupancy.
func (p *Pipelined) LiveN() int64 { return p.claimedN.Load() }

// ServeSnapshots enables snapshot-based reads with bounded staleness,
// mirroring Concurrent.ServeSnapshots; refreshes quiesce the plane, so a
// refreshed view is exact as of every previously acknowledged update.
// Call before the plane is shared. Returns p for chaining.
func (p *Pipelined) ServeSnapshots(maxStale time.Duration) *Pipelined {
	p.serving = true
	p.maxStale = maxStale
	p.snap.Store(p.barrierClone())
	p.refreshes.Add(1)
	return p
}

// barrierClone takes a quiesced per-shard snapshot set. The version is
// the cursor value right after the barrier's claim: the plane is clean
// exactly while no further position has been claimed.
func (p *Pipelined) barrierClone() *shardedSnapshot {
	var ns *shardedSnapshot
	clone := func(pos uint64) {
		views := make([]Summary, len(p.shards))
		for i, sh := range p.shards {
			views[i] = mustSnapshot(sh)
		}
		ns = &shardedSnapshot{views: views, mask: p.mask, version: pos + 1, taken: time.Now()}
	}
	if !p.quiesce(clone) {
		p.syncMu.Lock()
		defer p.syncMu.Unlock()
		clone(p.cursor.Load() - 1)
	}
	return ns
}

// reader returns the snapshot view reads are answered from, refreshing
// when it is both dirty and past the staleness bound; nil when
// snapshot serving is off. Same protocol as Concurrent.reader, with
// the claim cursor as the version clock.
func (p *Pipelined) reader() *shardedSnapshot {
	if !p.serving {
		return nil
	}
	v := p.snap.Load()
	if v.version == p.cursor.Load() || time.Since(v.taken) <= p.maxStale {
		return v
	}
	return p.refresh()
}

// refresh serializes refreshers on refreshMu (double-checked, so a
// read storm pays one barrier) and publishes a fresh quiesced view.
func (p *Pipelined) refresh() *shardedSnapshot {
	p.refreshMu.Lock()
	defer p.refreshMu.Unlock()
	if cur := p.snap.Load(); cur.version == p.cursor.Load() {
		return cur
	}
	ns := p.barrierClone()
	p.snap.Store(ns)
	p.refreshes.Add(1)
	return ns
}

// RefreshSnapshot forces a fresh quiesced serving view and returns it;
// nil when serving is not enabled. Same contract as
// Concurrent.RefreshSnapshot — freqd's POST /refresh lands here.
func (p *Pipelined) RefreshSnapshot() ReadView {
	if !p.serving {
		return nil
	}
	p.refreshMu.Lock()
	defer p.refreshMu.Unlock()
	ns := p.barrierClone()
	p.snap.Store(ns)
	p.refreshes.Add(1)
	return ns
}

// ServingView returns the current serving epoch as an immutable
// ReadView, or nil when snapshot serving is not enabled.
func (p *Pipelined) ServingView() ReadView {
	if v := p.reader(); v != nil {
		return v
	}
	return nil
}

// SnapshotStats reports the serving view's freshness; all zero when
// serving is not enabled.
func (p *Pipelined) SnapshotStats() SnapshotStats {
	if !p.serving {
		return SnapshotStats{}
	}
	v := p.snap.Load()
	return SnapshotStats{
		Serving:   true,
		AsOfN:     v.N(),
		Age:       time.Since(v.taken),
		Refreshes: p.refreshes.Load(),
		MaxStale:  p.maxStale,
	}
}

// Snapshot implements Snapshotter by merging a quiesced per-shard
// clone set into one summary: a single independent summary of the
// whole stream, suitable for serialization or cross-node merging. It
// panics unless the factory's summaries implement Snapshotter and
// Merger.
func (p *Pipelined) Snapshot() Summary {
	views := p.SnapshotBarrier(nil)
	merged := views[0]
	if len(views) == 1 {
		return merged
	}
	m, ok := merged.(Merger)
	if !ok {
		panic("core: Pipelined.Snapshot requires a Merger inner summary, " + merged.Name() + " is not")
	}
	for _, v := range views[1:] {
		if err := m.Merge(v); err != nil {
			panic("core: Pipelined.Snapshot merge failed: " + err.Error())
		}
	}
	return merged
}

// Estimate queries the item's shard — through the serving snapshot
// when enabled. Locked reads see the applied prefix; use a barrier
// (Drain, RefreshSnapshot) first when claim-exactness matters.
func (p *Pipelined) Estimate(x Item) int64 {
	if v := p.reader(); v != nil {
		return v.Estimate(x)
	}
	i := shardIndex(x, p.mask)
	p.locks[i].Lock()
	defer p.locks[i].Unlock()
	return p.shards[i].Estimate(x)
}

// Query gathers every shard's report (the snapshot views' when
// serving); see Estimate for the applied-prefix caveat.
func (p *Pipelined) Query(threshold int64) []ItemCount {
	if v := p.reader(); v != nil {
		return v.Query(threshold)
	}
	var out []ItemCount
	for i := range p.shards {
		p.locks[i].Lock()
		out = append(out, p.shards[i].Query(threshold)...)
		p.locks[i].Unlock()
	}
	SortByCountDesc(out)
	return out
}

// N sums the shard totals (snapshot totals when serving) — the applied
// stream position; LiveN reports the acknowledged one.
func (p *Pipelined) N() int64 {
	if v := p.reader(); v != nil {
		return v.N()
	}
	return p.appliedN()
}

func (p *Pipelined) appliedN() int64 {
	var n int64
	for i := range p.shards {
		p.locks[i].Lock()
		n += p.shards[i].N()
		p.locks[i].Unlock()
	}
	return n
}

// Bytes sums the shard footprints, the staging rings' retained buffer
// capacity, and — when serving — the retained snapshot views.
func (p *Pipelined) Bytes() int {
	var total int
	for i := range p.shards {
		p.locks[i].Lock()
		total += p.shards[i].Bytes()
		p.locks[i].Unlock()
	}
	for _, r := range p.rings {
		total += int(r.Retained()) * 8 // Item is 8 bytes
	}
	if p.serving {
		for _, view := range p.snap.Load().views {
			total += view.Bytes()
		}
	}
	return total
}

// PipelineStats describes the ingest plane's live state; freqd /stats
// reports it.
type PipelineStats struct {
	// Shards is the shard (and drainer) count; RingCapacity the
	// staging-ring depth per shard.
	Shards       int
	RingCapacity int
	// ClaimedN is the acknowledged stream position, AppliedN the
	// position the shard summaries have reached; the difference is the
	// staged in-flight backlog.
	ClaimedN int64
	AppliedN int64
	// RingBytes is the staging rings' retained buffer capacity.
	RingBytes int
	// RingOccupancy is the total in-flight slot count across rings —
	// positions claimed by writers and not yet released by drainers
	// (the drainer lag in positions); ShardOccupancy breaks it out per
	// shard.
	RingOccupancy  int64
	ShardOccupancy []int64
}

// PipelineStats reports the plane's claimed/applied positions and
// staging footprint.
func (p *Pipelined) PipelineStats() PipelineStats {
	st := PipelineStats{
		Shards:         len(p.shards),
		RingCapacity:   p.rings[0].Cap(),
		ClaimedN:       p.claimedN.Load(),
		AppliedN:       p.appliedN(),
		ShardOccupancy: make([]int64, len(p.rings)),
	}
	cursor := p.cursor.Load()
	for i, r := range p.rings {
		st.RingBytes += int(r.Retained()) * 8
		// Reads race benignly: the gauge wants a recent value, not a
		// barrier. Clamp at zero in case released advanced past the
		// cursor snapshot between the two loads.
		occ := int64(cursor) - int64(r.Released())
		if occ < 0 {
			occ = 0
		}
		st.ShardOccupancy[i] = occ
		st.RingOccupancy += occ
	}
	return st
}
