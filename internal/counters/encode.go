package counters

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"streamfreq/internal/core"
)

// Binary serialization for counter-based summaries, used when shipping
// per-shard summaries to a coordinator for merging. Formats are versioned
// by a 4-byte magic and little-endian throughout.

const (
	magicFQ = "FQ01"
	magicSS = "SS01"
	magicLC = "LC01"
	magicSL = "SL01"
)

// maxEntries bounds decoded entry counts against corrupt headers.
const maxEntries = 1 << 22

type entWriter struct{ buf bytes.Buffer }

func (w *entWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.buf.Write(b[:])
}

func (w *entWriter) i64(v int64) { w.u64(uint64(v)) }

type entReader struct {
	data []byte
	pos  int
	err  error
}

func (r *entReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.data) {
		r.err = fmt.Errorf("counters: truncated payload at offset %d", r.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

func (r *entReader) i64() int64 { return int64(r.u64()) }

func (r *entReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("counters: %d trailing bytes", len(r.data)-r.pos)
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler. Logical counts are
// stored (the offset is folded in), so the decoded summary is logically
// identical with offset zero. Entries are written in heap-structural
// order, like SS01.
func (f *Frequent) MarshalBinary() ([]byte, error) {
	var w entWriter
	w.buf.WriteString(magicFQ)
	w.u64(uint64(f.k))
	w.i64(f.n)
	w.i64(f.decs)
	w.u64(uint64(len(f.st.heap)))
	for _, id := range f.st.heap {
		nd := &f.st.nodes[id]
		w.u64(uint64(nd.item))
		w.i64(nd.count - f.offset)
	}
	return w.buf.Bytes(), nil
}

// DecodeFrequent parses a summary produced by (*Frequent).MarshalBinary.
// The decoded summary must pass Check, so a blob with negative
// accounting, or estimates its decrement mass cannot account for, is
// rejected rather than served.
func DecodeFrequent(data []byte) (*Frequent, error) {
	if len(data) < 4 || string(data[:4]) != magicFQ {
		return nil, fmt.Errorf("counters: not a Frequent blob")
	}
	r := entReader{data: data[4:]}
	k := r.u64()
	n := r.i64()
	decs := r.i64()
	cnt := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if k == 0 || k > maxEntries || cnt > k {
		return nil, fmt.Errorf("counters: implausible Frequent header (k=%d, entries=%d)", k, cnt)
	}
	// Validate the payload length before allocating k-sized structures.
	if remaining := len(r.data) - r.pos; uint64(remaining) != cnt*16 {
		return nil, fmt.Errorf("counters: Frequent payload %d bytes, want %d", remaining, cnt*16)
	}
	f := NewFrequent(int(k))
	f.n = n
	f.decs = decs
	for i := uint64(0); i < cnt; i++ {
		item := core.Item(r.u64())
		count := r.i64()
		if count <= 0 {
			return nil, fmt.Errorf("counters: non-positive stored count %d", count)
		}
		if f.st.lookup(item) >= 0 {
			return nil, fmt.Errorf("counters: duplicate items in Frequent blob")
		}
		f.st.fill(item, count)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if err := f.Check(); err != nil {
		return nil, err
	}
	return f, nil
}

// MarshalBinary implements encoding.BinaryMarshaler. Entries are
// written in heap-structural order; the flat storage's heap evolves
// exactly as the old pointer heap did, so blobs stay byte-identical
// across the slab refactor (the crash-recovery walls compare on this).
func (s *SpaceSavingHeap) MarshalBinary() ([]byte, error) {
	var w entWriter
	w.buf.WriteString(magicSS)
	w.u64(uint64(s.k))
	w.i64(s.n)
	w.u64(uint64(len(s.st.heap)))
	for _, id := range s.st.heap {
		nd := &s.st.nodes[id]
		w.u64(uint64(nd.item))
		w.i64(nd.count)
		w.i64(nd.err)
	}
	return w.buf.Bytes(), nil
}

// DecodeSpaceSavingHeap parses a summary produced by
// (*SpaceSavingHeap).MarshalBinary.
func DecodeSpaceSavingHeap(data []byte) (*SpaceSavingHeap, error) {
	return decodeSpaceSavingHeap(data, nil)
}

// DecodeSpaceSaving parses an SS01 blob into slab-drawn storage — the
// reload half of the multi-tenant table's evict/reload cycle, so a
// tenant coming back from its compact blob lands in the same arena it
// left.
func (sl *Slab) DecodeSpaceSaving(data []byte) (*SpaceSavingHeap, error) {
	return decodeSpaceSavingHeap(data, sl)
}

func decodeSpaceSavingHeap(data []byte, sl *Slab) (*SpaceSavingHeap, error) {
	if len(data) < 4 || string(data[:4]) != magicSS {
		return nil, fmt.Errorf("counters: not a SpaceSaving blob")
	}
	r := entReader{data: data[4:]}
	k := r.u64()
	n := r.i64()
	cnt := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if k == 0 || k > maxEntries || cnt > k {
		return nil, fmt.Errorf("counters: implausible SpaceSaving header (k=%d, entries=%d)", k, cnt)
	}
	if remaining := len(r.data) - r.pos; uint64(remaining) != cnt*24 {
		return nil, fmt.Errorf("counters: SpaceSaving payload %d bytes, want %d", remaining, cnt*24)
	}
	var s *SpaceSavingHeap
	if sl != nil {
		s = sl.NewSpaceSaving(int(k))
	} else {
		s = NewSpaceSavingHeap(int(k))
	}
	s.n = n
	if err := s.decodeEntries(&r, cnt); err != nil {
		// Every rejection returns a slab-drawn block, so a corrupt
		// blob cannot leak it.
		s.Release()
		return nil, err
	}
	return s, nil
}

// decodeEntries fills s with the cnt SS01 entries left in r.
func (s *SpaceSavingHeap) decodeEntries(r *entReader, cnt uint64) error {
	for i := uint64(0); i < cnt; i++ {
		item := core.Item(r.u64())
		count := r.i64()
		errv := r.i64()
		if count < 0 || errv < 0 || errv > count {
			return fmt.Errorf("counters: invalid SpaceSaving entry (count=%d err=%d)", count, errv)
		}
		if s.st.lookup(item) >= 0 {
			return fmt.Errorf("counters: duplicate items in SpaceSaving blob")
		}
		id := int32(len(s.st.nodes))
		s.st.nodes = append(s.st.nodes, ssNode{item: item, count: count, err: errv})
		s.st.insert(item, id)
		s.st.heapPush(id)
	}
	return r.done()
}

// MarshalBinary implements encoding.BinaryMarshaler. Entries are written
// in ascending item order — the index map has no inherent order, and a
// canonical layout makes the encoding deterministic: logically equal
// summaries produce byte-equal blobs, the property the crash-recovery
// tests (and any content-addressed checkpoint store) compare on.
func (l *LossyCounting) MarshalBinary() ([]byte, error) {
	var w entWriter
	w.buf.WriteString(magicLC)
	w.u64(math.Float64bits(l.epsilon))
	w.u64(uint64(l.variant))
	w.i64(l.n)
	w.u64(uint64(len(l.index)))
	items := make([]core.Item, 0, len(l.index))
	for it := range l.index {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	for _, it := range items {
		e := l.index[it]
		w.u64(uint64(it))
		w.i64(e.count)
		w.i64(e.delta)
	}
	return w.buf.Bytes(), nil
}

// DecodeLossyCounting parses a summary produced by
// (*LossyCounting).MarshalBinary.
func DecodeLossyCounting(data []byte) (*LossyCounting, error) {
	if len(data) < 4 || string(data[:4]) != magicLC {
		return nil, fmt.Errorf("counters: not a LossyCounting blob")
	}
	r := entReader{data: data[4:]}
	eps := math.Float64frombits(r.u64())
	variant := r.u64()
	n := r.i64()
	cnt := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if !(eps > 0 && eps < 1) || variant > 1 || cnt > maxEntries {
		return nil, fmt.Errorf("counters: implausible LossyCounting header (ε=%v variant=%d entries=%d)", eps, variant, cnt)
	}
	if remaining := len(r.data) - r.pos; uint64(remaining) != cnt*24 {
		return nil, fmt.Errorf("counters: LossyCounting payload %d bytes, want %d", remaining, cnt*24)
	}
	l := NewLossyCounting(eps, LCVariant(variant))
	l.n = n
	l.bucket = (n + l.width - 1) / l.width
	if l.bucket < 1 {
		l.bucket = 1
	}
	for i := uint64(0); i < cnt; i++ {
		item := core.Item(r.u64())
		count := r.i64()
		delta := r.i64()
		if count <= 0 || delta < 0 {
			return nil, fmt.Errorf("counters: invalid LossyCounting entry (count=%d Δ=%d)", count, delta)
		}
		if _, dup := l.index[item]; dup {
			return nil, fmt.Errorf("counters: duplicate item in LossyCounting blob")
		}
		l.index[item] = &lcEntry{count: count, delta: delta}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return l, nil
}

// MarshalBinary implements encoding.BinaryMarshaler for the
// Stream-Summary variant. Entries are written in structural order —
// buckets ascending by count, entries within a bucket from the head —
// and DecodeSpaceSavingList rebuilds exactly that linkage, so
// encode→decode→encode is byte-identical and the decoded structure is
// validate-clean like a Clone.
func (s *SpaceSavingList) MarshalBinary() ([]byte, error) {
	var w entWriter
	w.buf.WriteString(magicSL)
	w.u64(uint64(s.k))
	w.i64(s.n)
	w.u64(uint64(s.size))
	for b := s.min; b != nil; b = b.next {
		for e := b.head; e != nil; e = e.next {
			w.u64(uint64(e.item))
			w.i64(b.count)
			w.i64(e.err)
		}
	}
	return w.buf.Bytes(), nil
}

// DecodeSpaceSavingList parses a summary produced by
// (*SpaceSavingList).MarshalBinary, reconstructing the bucket list
// directly: consecutive entries sharing a count share a bucket, and
// counts must be non-decreasing (the structural order MarshalBinary
// emits), so a shuffled or hand-forged blob is rejected.
func DecodeSpaceSavingList(data []byte) (*SpaceSavingList, error) {
	if len(data) < 4 || string(data[:4]) != magicSL {
		return nil, fmt.Errorf("counters: not a SpaceSavingList blob")
	}
	r := entReader{data: data[4:]}
	k := r.u64()
	n := r.i64()
	cnt := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if k == 0 || k > maxEntries || cnt > k {
		return nil, fmt.Errorf("counters: implausible SpaceSavingList header (k=%d, entries=%d)", k, cnt)
	}
	if remaining := len(r.data) - r.pos; uint64(remaining) != cnt*24 {
		return nil, fmt.Errorf("counters: SpaceSavingList payload %d bytes, want %d", remaining, cnt*24)
	}
	s := NewSpaceSavingList(int(k))
	s.n = n
	s.size = int(cnt)
	var curB *ssBucket
	var lastE *ssEntry
	for i := uint64(0); i < cnt; i++ {
		item := core.Item(r.u64())
		count := r.i64()
		errv := r.i64()
		if count <= 0 || errv < 0 || errv > count {
			return nil, fmt.Errorf("counters: invalid SpaceSavingList entry (count=%d err=%d)", count, errv)
		}
		if curB == nil || count != curB.count {
			if curB != nil && count < curB.count {
				return nil, fmt.Errorf("counters: SpaceSavingList blob buckets out of order (%d after %d)", count, curB.count)
			}
			nb := &ssBucket{count: count, prev: curB}
			if curB != nil {
				curB.next = nb
			} else {
				s.min = nb
			}
			curB, lastE = nb, nil
		}
		if _, dup := s.index[item]; dup {
			return nil, fmt.Errorf("counters: duplicate item in SpaceSavingList blob")
		}
		e := &ssEntry{item: item, err: errv, bucket: curB, prev: lastE}
		if lastE != nil {
			lastE.next = e
		} else {
			curB.head = e
		}
		s.index[item] = e
		lastE = e
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}
