package sketches

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Binary serialization for sketches. Sketches are the summaries a
// distributed deployment ships between nodes (they merge by addition), so
// they get a compact, versioned, little-endian wire format:
//
//	[4]byte magic   ("CM01", "CS01", "CG01", "HI01")
//	header fields   (type-specific, fixed width)
//	counter payload (8 bytes per cell)
//
// Decoding validates the magic, bounds-checks all dimensions before
// allocating, and re-derives the hash functions from the stored seed, so
// a decoded sketch is bit-identical in behaviour to the original.

const (
	magicCM = "CM01"
	magicCS = "CS01"
	magicCG = "CG01"
	magicHI = "HI01"
)

// maxDim bounds decoded sketch dimensions to catch corrupt headers before
// a huge allocation: 2^28 cells is 2 GiB of counters.
const maxDim = 1 << 28

type cellWriter struct {
	buf bytes.Buffer
}

func (w *cellWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.buf.Write(b[:])
}

func (w *cellWriter) i64(v int64) { w.u64(uint64(v)) }

type cellReader struct {
	data []byte
	pos  int
	err  error
}

func (r *cellReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.data) {
		r.err = fmt.Errorf("sketches: truncated payload at offset %d", r.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

func (r *cellReader) i64() int64 { return int64(r.u64()) }

func (r *cellReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("sketches: %d trailing bytes", len(r.data)-r.pos)
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *CountMin) MarshalBinary() ([]byte, error) {
	var w cellWriter
	w.buf.WriteString(magicCM)
	flags := uint64(0)
	if c.neg {
		flags |= 1
	}
	if c.conservative {
		flags |= 2
	}
	w.u64(flags)
	w.u64(uint64(c.depth))
	w.u64(uint64(c.width))
	w.u64(c.family.Seed())
	w.i64(c.n)
	for i := range c.rows {
		for _, v := range c.rows[i] {
			w.i64(v)
		}
	}
	return w.buf.Bytes(), nil
}

// DecodeCountMin parses a sketch produced by (*CountMin).MarshalBinary.
func DecodeCountMin(data []byte) (*CountMin, error) {
	if len(data) < 4 || string(data[:4]) != magicCM {
		return nil, fmt.Errorf("sketches: not a Count-Min blob")
	}
	r := cellReader{data: data[4:]}
	flags := r.u64()
	depth := r.u64()
	width := r.u64()
	seed := r.u64()
	n := r.i64()
	if r.err != nil {
		return nil, r.err
	}
	if depth == 0 || width == 0 || depth > maxDim/width {
		return nil, fmt.Errorf("sketches: implausible Count-Min dimensions %d×%d", depth, width)
	}
	// Validate the payload length before allocating the counter array, so
	// corrupt headers fail fast instead of triggering huge allocations.
	if remaining := len(r.data) - r.pos; uint64(remaining) != depth*width*8 {
		return nil, fmt.Errorf("sketches: Count-Min payload %d bytes, want %d", remaining, depth*width*8)
	}
	c := newCountMin(int(depth), int(width), seed, flags&2 != 0)
	c.neg = flags&1 != 0
	c.n = n
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] = r.i64()
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return c, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *CountSketch) MarshalBinary() ([]byte, error) {
	var w cellWriter
	w.buf.WriteString(magicCS)
	w.u64(uint64(c.depth))
	w.u64(uint64(c.width))
	w.u64(c.family.Seed())
	w.i64(c.n)
	for i := range c.rows {
		for _, v := range c.rows[i] {
			w.i64(v)
		}
	}
	return w.buf.Bytes(), nil
}

// DecodeCountSketch parses a sketch produced by
// (*CountSketch).MarshalBinary.
func DecodeCountSketch(data []byte) (*CountSketch, error) {
	if len(data) < 4 || string(data[:4]) != magicCS {
		return nil, fmt.Errorf("sketches: not a Count-Sketch blob")
	}
	r := cellReader{data: data[4:]}
	depth := r.u64()
	width := r.u64()
	seed := r.u64()
	n := r.i64()
	if r.err != nil {
		return nil, r.err
	}
	if depth == 0 || width == 0 || depth > maxDim/width {
		return nil, fmt.Errorf("sketches: implausible Count-Sketch dimensions %d×%d", depth, width)
	}
	if remaining := len(r.data) - r.pos; uint64(remaining) != depth*width*8 {
		return nil, fmt.Errorf("sketches: Count-Sketch payload %d bytes, want %d", remaining, depth*width*8)
	}
	c := NewCountSketch(int(depth), int(width), seed)
	c.n = n
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] = r.i64()
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return c, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *CGT) MarshalBinary() ([]byte, error) {
	var w cellWriter
	w.buf.WriteString(magicCG)
	flags := uint64(0)
	if c.neg {
		flags |= 1
	}
	w.u64(flags)
	w.u64(uint64(c.depth))
	w.u64(uint64(c.width))
	w.u64(uint64(c.universeBits))
	w.u64(c.family.Seed())
	w.i64(c.n)
	for _, v := range c.cells {
		w.i64(v)
	}
	return w.buf.Bytes(), nil
}

// DecodeCGT parses a sketch produced by (*CGT).MarshalBinary.
func DecodeCGT(data []byte) (*CGT, error) {
	if len(data) < 4 || string(data[:4]) != magicCG {
		return nil, fmt.Errorf("sketches: not a CGT blob")
	}
	r := cellReader{data: data[4:]}
	flags := r.u64()
	depth := r.u64()
	width := r.u64()
	ubits := r.u64()
	seed := r.u64()
	n := r.i64()
	if r.err != nil {
		return nil, r.err
	}
	if depth == 0 || width == 0 || ubits == 0 || ubits > 64 || depth > maxDim/(width*(1+ubits)) {
		return nil, fmt.Errorf("sketches: implausible CGT dimensions %d×%d×%d", depth, width, ubits)
	}
	if remaining := len(r.data) - r.pos; uint64(remaining) != depth*width*(1+ubits)*8 {
		return nil, fmt.Errorf("sketches: CGT payload %d bytes, want %d", remaining, depth*width*(1+ubits)*8)
	}
	c := NewCGT(int(depth), int(width), uint(ubits), seed)
	c.neg = flags&1 != 0
	c.n = n
	for i := range c.cells {
		c.cells[i] = r.i64()
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return c, nil
}

// MarshalBinary implements encoding.BinaryMarshaler. Each level sketch is
// nested as a length-prefixed blob.
func (h *Hierarchical) MarshalBinary() ([]byte, error) {
	var w cellWriter
	w.buf.WriteString(magicHI)
	var kind uint64
	switch h.name {
	case "CMH":
		kind = 0
	case "CSH":
		kind = 1
	default:
		return nil, fmt.Errorf("sketches: unknown hierarchy kind %q", h.name)
	}
	w.u64(kind)
	w.u64(uint64(h.bits))
	w.u64(uint64(h.universeBits))
	w.i64(h.n)
	w.u64(uint64(len(h.levels)))
	for _, s := range h.levels {
		m, ok := s.(interface{ MarshalBinary() ([]byte, error) })
		if !ok {
			return nil, fmt.Errorf("sketches: level sketch %T not marshalable", s)
		}
		blob, err := m.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.u64(uint64(len(blob)))
		w.buf.Write(blob)
	}
	return w.buf.Bytes(), nil
}

// DecodeHierarchical parses a blob produced by
// (*Hierarchical).MarshalBinary.
func DecodeHierarchical(data []byte) (*Hierarchical, error) {
	if len(data) < 4 || string(data[:4]) != magicHI {
		return nil, fmt.Errorf("sketches: not a hierarchy blob")
	}
	r := cellReader{data: data[4:]}
	kind := r.u64()
	bits := r.u64()
	ubits := r.u64()
	n := r.i64()
	nlevels := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if bits == 0 || bits > 16 || ubits == 0 || ubits > 64 || nlevels == 0 || nlevels > 64 {
		return nil, fmt.Errorf("sketches: implausible hierarchy header")
	}
	h := &Hierarchical{
		bits:          uint(bits),
		universeBits:  uint(ubits),
		n:             n,
		maxCandidates: 1 << 20,
	}
	switch kind {
	case 0:
		h.name = "CMH"
	case 1:
		h.name = "CSH"
	default:
		return nil, fmt.Errorf("sketches: unknown hierarchy kind %d", kind)
	}
	for l := uint64(0); l < nlevels; l++ {
		blen := r.u64()
		if r.err != nil {
			return nil, r.err
		}
		if r.pos+int(blen) > len(r.data) {
			return nil, fmt.Errorf("sketches: truncated hierarchy level %d", l)
		}
		blob := r.data[r.pos : r.pos+int(blen)]
		r.pos += int(blen)
		var (
			s   pointSketch
			err error
		)
		if h.name == "CMH" {
			var cm *CountMin
			cm, err = DecodeCountMin(blob)
			if err == nil && cm.conservative {
				// The hierarchy's batch path collapses duplicates, which
				// is exact only for linear levels; no constructor builds
				// a conservative one.
				err = fmt.Errorf("conservative Count-Min level")
			}
			s = cm
		} else {
			s, err = DecodeCountSketch(blob)
		}
		if err != nil {
			return nil, fmt.Errorf("sketches: hierarchy level %d: %w", l, err)
		}
		h.levels = append(h.levels, s)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return h, nil
}
