package window

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"streamfreq/internal/counters"
)

// WN01 is the windowed summary's wire format, used by checkpoints, the
// /summary endpoint, and the cluster merge exactly like the flat
// formats. Layout, little-endian after the 4-byte magic:
//
//	u64 size | u64 blocks | u64 k | u64 n | u64 coverage
//	u64 head | u64 curFill
//	u64 liveBlocks
//	per live block, ascending ring index:
//	  u64 ring index | u64 blob length | SS01 blob
//
// Only the live ring is framed — expired blocks are not durable state —
// and the block blobs are the per-block summaries' own SS01 encoding,
// whose decode reproduces the exact heap layout, so encode → decode →
// encode is byte-identical and "bit-identical via Encode" covers the
// windowed summary the way it covers the flat ones. liveCount is
// recomputed from the decoded blocks rather than trusted from the wire.

const (
	magicWN = "WN01"
	// maxWNBlocks/maxWNCounters/maxWNSize bound a corrupt header's
	// allocations. NewWindowed enforces the same bounds at
	// construction, so the decoder never rejects a blob MarshalBinary
	// legally produced; real configurations use tens of blocks and
	// thousands of counters.
	maxWNBlocks   = 1 << 16
	maxWNCounters = 1 << 22 // counters.maxEntries, the per-block decode cap
	maxWNSize     = int64(1) << 40
	// maxWNBlob bounds one block blob against a corrupt length field.
	maxWNBlob = 1 << 28
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Windowed) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(magicWN)
	var b8 [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		buf.Write(b8[:])
	}
	u64(uint64(s.size))
	u64(uint64(s.blocks))
	u64(uint64(s.k))
	u64(uint64(s.n))
	u64(uint64(s.coverage))
	u64(uint64(s.head))
	u64(uint64(s.curFill))
	live := 0
	for _, b := range s.ring {
		if b != nil {
			live++
		}
	}
	u64(uint64(live))
	for i, b := range s.ring {
		if b == nil {
			continue
		}
		blob, err := b.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("window: encoding block %d: %w", i, err)
		}
		u64(uint64(i))
		u64(uint64(len(blob)))
		buf.Write(blob)
	}
	return buf.Bytes(), nil
}

// DecodeWindowed parses a summary produced by (*Windowed).MarshalBinary,
// validating the geometry and every block blob so a forged or corrupt
// header comes back as an error, never a panic or a runaway allocation.
func DecodeWindowed(data []byte) (*Windowed, error) {
	if len(data) < 4 || string(data[:4]) != magicWN {
		return nil, fmt.Errorf("window: not a Windowed blob")
	}
	rest := data[4:]
	pos := 0
	u64 := func() (uint64, error) {
		if pos+8 > len(rest) {
			return 0, fmt.Errorf("window: truncated blob at offset %d", pos)
		}
		v := binary.LittleEndian.Uint64(rest[pos:])
		pos += 8
		return v, nil
	}
	var hdr [8]uint64
	for i := range hdr {
		v, err := u64()
		if err != nil {
			return nil, err
		}
		hdr[i] = v
	}
	size, blocks, k := hdr[0], hdr[1], hdr[2]
	n, coverage := int64(hdr[3]), int64(hdr[4])
	head, curFill, liveBlocks := hdr[5], hdr[6], hdr[7]
	if size == 0 || blocks == 0 || blocks > maxWNBlocks || size%blocks != 0 ||
		k == 0 || k > maxWNCounters || int64(size) < 0 || int64(size) > maxWNSize {
		return nil, fmt.Errorf("window: implausible geometry (W=%d B=%d k=%d)", size, blocks, k)
	}
	blockLen := size / blocks
	ringLen := blocks + 1 // uint64 arithmetic; cast below once validated
	if head >= ringLen || curFill >= blockLen || liveBlocks == 0 || liveBlocks > ringLen {
		return nil, fmt.Errorf("window: implausible ring state (head=%d fill=%d live=%d)", head, curFill, liveBlocks)
	}
	if n < 0 || coverage < int64(size) || coverage%int64(size) != 0 {
		return nil, fmt.Errorf("window: implausible accounting (n=%d coverage=%d)", n, coverage)
	}
	w := &Windowed{
		size:     int(size),
		blocks:   int(blocks),
		blockLen: int(blockLen),
		k:        int(k),
		ring:     make([]*counters.SpaceSavingHeap, int(ringLen)),
		head:     int(head),
		curFill:  int(curFill),
		n:        n,
		coverage: coverage,
	}
	prev := -1
	for i := uint64(0); i < liveBlocks; i++ {
		idx, err := u64()
		if err != nil {
			return nil, err
		}
		blobLen, err := u64()
		if err != nil {
			return nil, err
		}
		if idx >= ringLen || int(idx) <= prev {
			return nil, fmt.Errorf("window: block indices out of order (index %d after %d)", idx, prev)
		}
		prev = int(idx)
		if blobLen > maxWNBlob || pos+int(blobLen) > len(rest) {
			return nil, fmt.Errorf("window: implausible block blob length %d (block %d)", blobLen, idx)
		}
		ss, err := counters.DecodeSpaceSavingHeap(rest[pos : pos+int(blobLen)])
		if err != nil {
			return nil, fmt.Errorf("window: block %d: %w", idx, err)
		}
		pos += int(blobLen)
		if ss.K() != int(k) {
			return nil, fmt.Errorf("window: block %d has k=%d, header says %d", idx, ss.K(), k)
		}
		if ss.N() < 0 {
			return nil, fmt.Errorf("window: block %d has negative N", idx)
		}
		w.ring[idx] = ss
		w.liveCount += ss.N()
	}
	if pos != len(rest) {
		return nil, fmt.Errorf("window: %d trailing bytes", len(rest)-pos)
	}
	if w.ring[w.head] == nil {
		return nil, fmt.Errorf("window: current block (ring %d) missing from blob", w.head)
	}
	if n < w.liveCount {
		return nil, fmt.Errorf("window: stream length %d below live count %d", n, w.liveCount)
	}
	return w, nil
}
