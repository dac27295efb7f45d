package counters

import (
	"fmt"
	"sync"

	"streamfreq/internal/core"
)

// The flat counter storage shared by Space-Saving (SSH) and Frequent
// (F), and its slab allocator. A multi-tenant daemon holds millions of
// small instances, and the dominant cost of a pointer layout is not the
// counters — it is the per-instance Go map and the per-entry heap
// pointers: three heap objects and a map bucket chain per counter, each
// a GC-visible pointer. The flat layout replaces all of it with a few
// slices per instance:
//
//	nodes []ssNode — the counters themselves (item, count, err, heap
//	                 position), node id = position, kept dense;
//	heap  []int32  — a min-heap of node ids ordered by count;
//	index []int32  — an open-addressed hash table item → node id.
//
// Space-Saving never frees a counter (replacement overwrites the
// victim's item in place), so its node ids are stable for the
// instance's lifetime and its only index deletions are the
// one-out-one-in pairs of replacement. Frequent frees the counters its
// decrements zero (popMin), which moves the last node into the freed id
// so the node slice stays dense. Deletions leave tombstones, with an
// O(k) rebuild when they accumulate. The layout is pointer-free below
// the slice headers, so a million instances cost the GC a million
// objects, not a hundred million.
//
// A Slab carves those slices out of per-k chunk arenas and recycles
// whole blocks through a free list, so tenant churn (lazy instantiation
// + idle eviction) allocates nothing in steady state and the per-tenant
// footprint is exactly blockBytes(k) — the bound the multi-tenant
// benchmark reports. Standalone instances (NewSpaceSavingHeap) use the
// same layout with directly allocated slices; the Slab is an allocator,
// not a semantic change.

// ssNode is one Space-Saving counter in the flat layout: 32 bytes,
// pointer-free. heapIdx mirrors the node's position in the heap slice,
// maintained by the heap operations exactly as entry.idx was.
type ssNode struct {
	item    core.Item
	count   int64
	err     int64
	heapIdx int32
}

// ssStorage is the storage of one SpaceSavingHeap. index slots hold
// node id + 1; 0 is empty, ssTombstone marks a deleted slot that probes
// must walk through.
type ssStorage struct {
	nodes []ssNode
	heap  []int32
	// hcnt mirrors each heap slot's count (hcnt[i] ==
	// nodes[heap[i]].count): sift comparisons read one contiguous
	// array instead of chasing heap[i] through the node table, which
	// is where a φ-provisioned summary's update time goes.
	hcnt  []int64
	index []int32
	tombs int32 // live tombstones in index
	shift uint  // 64 − log2(len(index)): hash top bits pick the slot
}

const ssTombstone = int32(-1)

// ssIndexCap returns the index capacity for k counters: the smallest
// power of two holding k live entries at ≤ 50% load (minimum 8 slots,
// so tiny k still probes sanely).
func ssIndexCap(k int) (capacity int, shift uint) {
	capacity = 8
	bits := uint(3)
	for capacity < 2*k {
		capacity *= 2
		bits++
	}
	return capacity, 64 - bits
}

// newSSStorage allocates standalone storage for k counters. Slices are
// capped at exactly k so appends never reallocate out of a slab block
// (the same code path serves both allocators).
func newSSStorage(k int) ssStorage {
	capacity, shift := ssIndexCap(k)
	return ssStorage{
		nodes: make([]ssNode, 0, k),
		heap:  make([]int32, 0, k),
		hcnt:  make([]int64, 0, k),
		index: make([]int32, capacity),
		shift: shift,
	}
}

// ssBlockBytes is the exact per-instance storage footprint for k
// counters under the flat layout; Bytes reports it and the slab's
// accounting sums it.
func ssBlockBytes(k int) int {
	capacity, _ := ssIndexCap(k)
	return 32*k + 4*k + 8*k + 4*capacity
}

// ssHash spreads an item over the index: one Fibonacci multiply with
// the slot taken from the product's top bits, the same mixing the batch
// pre-aggregation scratch uses (strong top bits even for sequential
// identifiers).
func ssHash(x core.Item) uint64 { return uint64(x) * 0x9E3779B97F4A7C15 }

// lookup returns the node id tracking x, or -1.
func (st *ssStorage) lookup(x core.Item) int32 {
	mask := uint64(len(st.index) - 1)
	i := ssHash(x) >> st.shift
	for {
		s := st.index[i]
		if s == 0 {
			return -1
		}
		if s != ssTombstone && st.nodes[s-1].item == x {
			return s - 1
		}
		i = (i + 1) & mask
	}
}

// insert records x → id. x must not be present, so the first free slot
// on its probe path — a tombstone, reused to keep the table dense under
// the replacement churn of a full summary, or else an empty slot — is
// taken without probing on.
func (st *ssStorage) insert(x core.Item, id int32) {
	mask := uint64(len(st.index) - 1)
	i := ssHash(x) >> st.shift
	for {
		switch st.index[i] {
		case ssTombstone:
			st.tombs--
			fallthrough
		case 0:
			st.index[i] = id + 1
			return
		}
		i = (i + 1) & mask
	}
}

// slot returns the index position of tracked item x.
func (st *ssStorage) slot(x core.Item) uint64 {
	mask := uint64(len(st.index) - 1)
	i := ssHash(x) >> st.shift
	for {
		s := st.index[i]
		if s == 0 {
			panic("counters: index slot of an untracked item")
		}
		if s != ssTombstone && st.nodes[s-1].item == x {
			return i
		}
		i = (i + 1) & mask
	}
}

// remove deletes x's slot, leaving a tombstone; when tombstones exceed
// a quarter of the table the index is rebuilt from the nodes (O(k)),
// which bounds probe lengths: ≤ 1/2 live + ≤ 1/4 tombstones keeps
// occupancy under 3/4 at all times.
func (st *ssStorage) remove(x core.Item) {
	mask := uint64(len(st.index) - 1)
	i := ssHash(x) >> st.shift
	for {
		s := st.index[i]
		if s == 0 {
			return // absent; callers only remove tracked items
		}
		if s != ssTombstone && st.nodes[s-1].item == x {
			st.index[i] = ssTombstone
			st.tombs++
			if int(st.tombs) > len(st.index)/4 {
				st.rebuildIndex()
			}
			return
		}
		i = (i + 1) & mask
	}
}

// rebuildIndex re-inserts every node into a cleared table, discarding
// tombstones.
func (st *ssStorage) rebuildIndex() {
	clear(st.index)
	st.tombs = 0
	for id := range st.nodes {
		st.insert(st.nodes[id].item, int32(id))
	}
}

// reset empties the storage for reuse, keeping capacity.
func (st *ssStorage) reset() {
	st.nodes = st.nodes[:0]
	st.heap = st.heap[:0]
	st.hcnt = st.hcnt[:0]
	clear(st.index)
	st.tombs = 0
}

// clone returns an independent deep copy with standalone slices (a
// snapshot must outlive its source's slab block).
func (st *ssStorage) clone(k int) ssStorage {
	ns := ssStorage{
		nodes: make([]ssNode, len(st.nodes), k),
		heap:  make([]int32, len(st.heap), k),
		hcnt:  make([]int64, len(st.hcnt), k),
		index: make([]int32, len(st.index)),
		tombs: st.tombs,
		shift: st.shift,
	}
	copy(ns.nodes, st.nodes)
	copy(ns.heap, st.heap)
	copy(ns.hcnt, st.hcnt)
	copy(ns.index, st.index)
	return ns
}

// The heap operations are those of a textbook indexed binary min-heap
// — comparison on count only, no tie-break; push sifts up, pop moves
// the last slot to the root and sifts it down — and the SS01 and FQ01
// wire encodings write counters in heap-structural order, so the heap
// arrangement is part of the wire format (golden_test.go pins it).

func (st *ssStorage) heapLess(i, j int) bool {
	return st.hcnt[i] < st.hcnt[j]
}

func (st *ssStorage) heapPush(id int32) {
	st.nodes[id].heapIdx = int32(len(st.heap))
	st.heap = append(st.heap, id)
	st.hcnt = append(st.hcnt, st.nodes[id].count)
	st.heapUp(len(st.heap) - 1)
}

func (st *ssStorage) heapFix(i int) {
	if !st.heapDown(i) {
		st.heapUp(i)
	}
}

// bump adds c to tracked node id and restores heap order.
func (st *ssStorage) bump(id int32, c int64) {
	nd := &st.nodes[id]
	nd.count += c
	st.hcnt[nd.heapIdx] = nd.count
	st.heapFix(int(nd.heapIdx))
}

// fill admits x with count c into a free counter.
func (st *ssStorage) fill(x core.Item, c int64) {
	id := int32(len(st.nodes))
	st.nodes = append(st.nodes, ssNode{item: x, count: c})
	st.insert(x, id)
	st.heapPush(id)
}

// popMin frees the minimum counter. The heap root is popped as a
// binary heap pops it: the last slot moves to the root, the heap
// shrinks, and the root sifts down. The item leaves the index, and the
// last node moves into the freed id, so node ids stay dense
// (len(nodes) == len(heap)) and fill can append.
func (st *ssStorage) popMin() {
	id, last := st.heap[0], len(st.heap)-1
	st.heap[0], st.hcnt[0] = st.heap[last], st.hcnt[last]
	st.nodes[st.heap[0]].heapIdx = 0
	st.heap, st.hcnt = st.heap[:last], st.hcnt[:last]
	if last > 0 {
		st.heapDown(0)
	}
	// Both index slots are found before the nodes move, while every
	// node still resolves under its own item.
	freed := st.slot(st.nodes[id].item)
	if mv := int32(last); mv != id {
		st.index[st.slot(st.nodes[mv].item)] = id + 1
		st.nodes[id] = st.nodes[mv]
		st.heap[st.nodes[id].heapIdx] = id
	}
	st.nodes = st.nodes[:last]
	// Tombstone the freed slot under remove's rebuild rule.
	st.index[freed] = ssTombstone
	st.tombs++
	if int(st.tombs) > len(st.index)/4 {
		st.rebuildIndex()
	}
}

// replace hands the counter at heap slot h to x: x inherits the
// victim's count as its error and adds c. The caller restores heap
// order below h.
func (st *ssStorage) replace(h int, x core.Item, c int64) {
	id := st.heap[h]
	nd := &st.nodes[id]
	st.remove(nd.item)
	nd.err = nd.count
	nd.count += c
	nd.item = x
	st.insert(x, id)
	st.hcnt[h] = nd.count
}

// heapUp and heapDown sift hole-style: the moving slot is held in
// registers while lighter/heavier slots shift one level, and written
// exactly once at its final position — the arrangement is identical to
// pairwise-swap sifting (so the SS01 heap-structural encoding is
// unchanged), with half the stores per level.

func (st *ssStorage) heapUp(i int) {
	start := i
	id, cnt := st.heap[i], st.hcnt[i]
	for i > 0 {
		parent := (i - 1) / 2
		if st.hcnt[parent] <= cnt {
			break
		}
		st.heap[i], st.hcnt[i] = st.heap[parent], st.hcnt[parent]
		st.nodes[st.heap[i]].heapIdx = int32(i)
		i = parent
	}
	if i != start {
		st.heap[i], st.hcnt[i] = id, cnt
		st.nodes[id].heapIdx = int32(i)
	}
}

func (st *ssStorage) heapDown(i int) bool {
	start := i
	n := len(st.heap)
	id, cnt := st.heap[i], st.hcnt[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small, sc := l, st.hcnt[l]
		if r := l + 1; r < n && st.hcnt[r] < sc {
			small, sc = r, st.hcnt[r]
		}
		if sc >= cnt {
			break
		}
		st.heap[i], st.hcnt[i] = st.heap[small], sc
		st.nodes[st.heap[i]].heapIdx = int32(i)
		i = small
	}
	if i != start {
		st.heap[i], st.hcnt[i] = id, cnt
		st.nodes[id].heapIdx = int32(i)
	}
	return i != start
}

// validateStorage checks the structural invariants (heap order, heapIdx
// and hcnt mirrors, index consistency), naming the first violation.
func (st *ssStorage) validateStorage() error {
	if len(st.nodes) != len(st.heap) || len(st.hcnt) != len(st.heap) {
		return fmt.Errorf("counters: SpaceSaving storage lengths differ (nodes %d, heap %d, hcnt %d)",
			len(st.nodes), len(st.heap), len(st.hcnt))
	}
	for i, id := range st.heap {
		if id < 0 || int(id) >= len(st.nodes) || st.nodes[id].heapIdx != int32(i) {
			return fmt.Errorf("counters: SpaceSaving heap slot %d holds node %d whose heapIdx disagrees", i, id)
		}
		if st.hcnt[i] != st.nodes[id].count {
			return fmt.Errorf("counters: SpaceSaving heap slot %d mirrors count %d, node holds %d", i, st.hcnt[i], st.nodes[id].count)
		}
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(st.heap) && st.heapLess(c, i) {
				return fmt.Errorf("counters: SpaceSaving heap order broken at slot %d (child %d)", i, c)
			}
		}
	}
	for id := range st.nodes {
		if st.lookup(st.nodes[id].item) != int32(id) {
			return fmt.Errorf("counters: SpaceSaving index does not resolve item %d to node %d", st.nodes[id].item, id)
		}
	}
	return nil
}

// Slab is a shared allocator of SpaceSavingHeap storage: per-k size
// classes, chunked arenas (a block's slices never move once carved, so
// handed-out storage stays valid as the slab grows), and a free list of
// released blocks. Safe for concurrent use; the instances it hands out
// are not (same contract as every summary — wrap or lock above).
type Slab struct {
	mu      sync.Mutex
	classes map[int]*slabClass
	chunkB  int64 // cumulative chunk bytes, for accounting
	live    int64 // blocks currently handed out
	freeN   int64 // blocks parked on free lists
}

type slabClass struct {
	free []ssStorage
	// remainder of the current chunk, carved front-to-back
	nodes []ssNode
	heap  []int32
	hcnt  []int64
	index []int32
}

// NewSlab returns an empty slab.
func NewSlab() *Slab {
	return &Slab{classes: make(map[int]*slabClass)}
}

// slabChunkBlocks sizes a chunk: ~1 MiB of nodes per chunk, between 8
// and 4096 blocks, so tiny-k tenants amortize allocation without huge-k
// classes over-reserving.
func slabChunkBlocks(k int) int {
	b := (1 << 20) / (32 * k)
	if b < 8 {
		b = 8
	}
	if b > 4096 {
		b = 4096
	}
	return b
}

// get hands out reset storage for k counters.
func (sl *Slab) get(k int) ssStorage {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	c := sl.classes[k]
	if c == nil {
		c = &slabClass{}
		sl.classes[k] = c
	}
	if n := len(c.free); n > 0 {
		st := c.free[n-1]
		c.free[n-1] = ssStorage{}
		c.free = c.free[:n-1]
		st.reset()
		sl.freeN--
		sl.live++
		return st
	}
	capacity, shift := ssIndexCap(k)
	if len(c.nodes) < k {
		blocks := slabChunkBlocks(k)
		c.nodes = make([]ssNode, blocks*k)
		c.heap = make([]int32, blocks*k)
		c.hcnt = make([]int64, blocks*k)
		c.index = make([]int32, blocks*capacity)
		sl.chunkB += int64(blocks) * int64(ssBlockBytes(k))
	}
	st := ssStorage{
		nodes: c.nodes[:0:k],
		heap:  c.heap[:0:k],
		hcnt:  c.hcnt[:0:k],
		index: c.index[:capacity:capacity],
		shift: shift,
	}
	c.nodes = c.nodes[k:]
	c.heap = c.heap[k:]
	c.hcnt = c.hcnt[k:]
	c.index = c.index[capacity:]
	sl.live++
	return st
}

// put parks a released block on its class free list.
func (sl *Slab) put(k int, st ssStorage) {
	if cap(st.nodes) == 0 {
		return
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	c := sl.classes[k]
	if c == nil {
		c = &slabClass{}
		sl.classes[k] = c
	}
	c.free = append(c.free, st)
	sl.live--
	sl.freeN++
}

// NewSpaceSaving returns an SSH summary whose storage comes from the
// slab. Release it when the instance is dropped so the block recycles.
func (sl *Slab) NewSpaceSaving(k int) *SpaceSavingHeap {
	if k <= 0 {
		panic("counters: SpaceSaving requires k > 0")
	}
	return &SpaceSavingHeap{k: k, st: sl.get(k), slab: sl}
}

// SlabStats is the slab's accounting snapshot.
type SlabStats struct {
	ChunkBytes int64 `json:"chunk_bytes"` // bytes reserved in chunk arenas
	LiveBlocks int64 `json:"live_blocks"` // blocks handed out and not released
	FreeBlocks int64 `json:"free_blocks"` // blocks parked for reuse
}

// Stats reports the slab's footprint.
func (sl *Slab) Stats() SlabStats {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return SlabStats{ChunkBytes: sl.chunkB, LiveBlocks: sl.live, FreeBlocks: sl.freeN}
}

// BlockBytes reports the exact per-instance storage footprint for k
// counters — the documented bytes/tenant bound of the multi-tenant
// table (nodes + heap + index, all flat).
func BlockBytes(k int) int { return ssBlockBytes(k) }
