// Package stream defines the stream data model shared by the generators,
// the algorithms, and the command-line tools, together with a compact
// binary on-disk format so workloads can be generated once (freqgen) and
// replayed many times (freqtop, the harness).
//
// File format (little-endian):
//
//	offset  size  field
//	0       8     magic "SFSTRM01"
//	8       8     item count n (uint64)
//	16      8     metadata length m (uint64)
//	24      m     metadata (UTF-8, free-form description)
//	24+m    8n    items (uint64 each)
package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"streamfreq/internal/core"
)

// Magic identifies a stream file.
const Magic = "SFSTRM01"

// Source yields stream items one at a time. All workload generators in
// internal/zipf and internal/trace satisfy Source.
type Source interface {
	Next() core.Item
}

// BatchSource yields stream items many at a time into a caller-owned
// buffer, the read-side counterpart of core.BatchUpdater: a replay loop
// that couples NextBatch to core.UpdateAll moves items from disk (or a
// materialized slice) into a summary with no per-item interface calls
// and no allocation. NextBatch fills up to len(buf) items into buf and
// returns how many it wrote; 0 means the source is exhausted.
type BatchSource interface {
	NextBatch(buf []core.Item) int
}

// SliceSource adapts a materialized []core.Item to a Source; it panics
// when exhausted, so callers must respect its length.
type SliceSource struct {
	items []core.Item
	pos   int
}

// NewSliceSource wraps items.
func NewSliceSource(items []core.Item) *SliceSource {
	return &SliceSource{items: items}
}

// Next returns the next item.
func (s *SliceSource) Next() core.Item {
	it := s.items[s.pos]
	s.pos++
	return it
}

// NextBatch implements BatchSource by copying the next run of items into
// buf. Unlike Next it does not panic at exhaustion; it returns 0.
func (s *SliceSource) NextBatch(buf []core.Item) int {
	n := copy(buf, s.items[s.pos:])
	s.pos += n
	return n
}

// Remaining returns how many items are left.
func (s *SliceSource) Remaining() int { return len(s.items) - s.pos }

// Write writes a stream file containing items with the given metadata.
func Write(w io.Writer, meta string, items []core.Item) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(Magic); err != nil {
		return fmt.Errorf("stream: writing magic: %w", err)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(len(items)))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(meta)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("stream: writing header: %w", err)
	}
	if _, err := bw.WriteString(meta); err != nil {
		return fmt.Errorf("stream: writing metadata: %w", err)
	}
	var buf [8]byte
	for _, it := range items {
		binary.LittleEndian.PutUint64(buf[:], uint64(it))
		if _, err := bw.Write(buf[:]); err != nil {
			return fmt.Errorf("stream: writing items: %w", err)
		}
	}
	return bw.Flush()
}

// Reader decodes a stream file incrementally. It validates the header on
// construction and then serves items through NextBatch, decoding into a
// reused byte buffer sized to the caller's batch — so replaying a stream
// file costs O(batch) memory however long the file is. It implements
// BatchSource and Source.
type Reader struct {
	br        *bufio.Reader
	meta      string
	total     uint64
	remaining uint64
	raw       []byte // reused little-endian staging buffer
	readErr   error  // first decode failure, surfaced by Err
	one       [1]core.Item
}

// NewReader parses the header of a stream file produced by Write,
// bounds-checking the metadata length against sane limits before
// allocating, and returns a Reader positioned at the first item.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("stream: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("stream: bad magic %q (not a stream file?)", magic)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("stream: reading header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[0:8])
	m := binary.LittleEndian.Uint64(hdr[8:16])
	const maxMeta = 1 << 20
	if m > maxMeta {
		return nil, fmt.Errorf("stream: metadata length %d exceeds limit %d", m, maxMeta)
	}
	const maxItems = 1 << 33 // 64 GiB of items; guards corrupt headers
	if n > maxItems {
		return nil, fmt.Errorf("stream: item count %d exceeds limit %d", n, maxItems)
	}
	mb := make([]byte, m)
	if _, err := io.ReadFull(br, mb); err != nil {
		return nil, fmt.Errorf("stream: reading metadata: %w", err)
	}
	return &Reader{br: br, meta: string(mb), total: n, remaining: n}, nil
}

// Meta returns the file's free-form metadata string.
func (r *Reader) Meta() string { return r.meta }

// Len returns the total number of items the file declares.
func (r *Reader) Len() int { return int(r.total) }

// Remaining returns how many items have not yet been read.
func (r *Reader) Remaining() int { return int(r.remaining) }

// err records a decode failure and halts the reader.
func (r *Reader) err(e error) {
	r.readErr = e
	r.remaining = 0
}

// NextBatch implements BatchSource, decoding up to len(buf) items into
// buf. It returns 0 at end of file. On a short or failing read it
// returns the whole items decoded before the failure (possibly 0) and
// the error surfaces through Err; subsequent calls return 0, so replay
// loops stay a two-line for loop.
//
// The staging buffer is capped (see readItems): however large buf is,
// the Reader never holds more than maxStage items' worth of raw bytes,
// so a caller that drains a whole file into one slice still reads at
// O(maxStage) extra memory.
func (r *Reader) NextBatch(buf []core.Item) int {
	want := uint64(len(buf))
	if want > r.remaining {
		want = r.remaining
	}
	if want == 0 {
		return 0
	}
	n, e := readItems(r.br, &r.raw, buf[:want])
	if e != nil {
		if e == io.EOF {
			e = io.ErrUnexpectedEOF // the header declared more items
		}
		r.err(fmt.Errorf("stream: reading item %d of %d: %w",
			r.total-r.remaining+uint64(n), r.total, e))
		return n
	}
	r.remaining -= want
	return n
}

// maxStage caps one raw read at 8Ki items: a decoder never stages more
// than 64 KiB of raw bytes, however large the caller's buf is.
const maxStage = 1 << 13

// readItems fills buf with little-endian items read from r — the one
// item decoder of both binary wire formats. It reads whole runs of up
// to maxStage items into the reused staging buffer *raw (grown on
// demand) and decodes each run in one loop. It returns the number of
// whole items decoded and, when r ran out or failed before buf filled,
// why: io.EOF when r ended on an item boundary, io.ErrUnexpectedEOF
// when it ended mid-item (the partial item is dropped), or r's own
// error.
func readItems(r io.Reader, raw *[]byte, buf []core.Item) (int, error) {
	done := 0
	for done < len(buf) {
		need := 8 * min(len(buf)-done, maxStage)
		if cap(*raw) < need {
			*raw = make([]byte, need)
		}
		b := (*raw)[:need]
		got, err := io.ReadFull(r, b)
		out := buf[done : done+got/8]
		for i := range out {
			out[i] = core.Item(binary.LittleEndian.Uint64(b[8*i:]))
		}
		done += len(out)
		if err != nil {
			if err == io.ErrUnexpectedEOF && got%8 == 0 {
				err = io.EOF
			}
			return done, err
		}
	}
	return done, nil
}

// Next implements Source for compatibility with scalar consumers. It
// panics past end of file, like SliceSource.
func (r *Reader) Next() core.Item {
	if r.NextBatch(r.one[:]) != 1 {
		panic("stream: Next past end of stream file")
	}
	return r.one[0]
}

// Err returns the first item-decoding error encountered by NextBatch,
// if any. A Reader that was drained cleanly returns nil.
func (r *Reader) Err() error { return r.readErr }

// Read parses a whole stream file produced by Write, materializing every
// item. It is NewReader + a full drain; callers that can process the
// stream incrementally should use NewReader and NextBatch instead.
func Read(r io.Reader) (meta string, items []core.Item, err error) {
	sr, err := NewReader(r)
	if err != nil {
		return "", nil, err
	}
	items = make([]core.Item, sr.Len())
	got := 0
	for got < len(items) {
		n := sr.NextBatch(items[got:])
		if n == 0 {
			break
		}
		got += n
	}
	if err := sr.Err(); err != nil {
		return "", nil, err
	}
	return sr.Meta(), items, nil
}

// Feed pushes n items from src into each of the summaries with unit
// counts, fanning a single generated stream to many algorithms so all
// see identical input. The stream is staged through a bounded batch
// buffer — filled with one NextBatch call when src is a BatchSource —
// and delivered through core.UpdateAll, so summaries with a native batch
// path ingest at batch speed. A source that cannot supply n items is a
// caller bug (or a corrupt file) and panics, exactly like the scalar
// Next contract it replaces; Feed never silently under-feeds.
func Feed(src Source, n int, summaries ...core.Summary) {
	buf := make([]core.Item, core.DefaultBatchSize)
	bs, batched := src.(BatchSource)
	for n > 0 {
		want := len(buf)
		if want > n {
			want = n
		}
		var got int
		if batched {
			got = bs.NextBatch(buf[:want])
			if got == 0 {
				if e, ok := src.(interface{ Err() error }); ok && e.Err() != nil {
					panic("stream: Feed: source failed: " + e.Err().Error())
				}
				panic("stream: Feed: source exhausted with items still requested")
			}
		} else {
			for i := 0; i < want; i++ {
				buf[i] = src.Next()
			}
			got = want
		}
		for _, s := range summaries {
			core.UpdateAll(s, buf[:got])
		}
		n -= got
	}
}

// FeedSlice pushes every item of items into each summary with unit
// counts, in bounded batches via each summary's fastest ingest path.
func FeedSlice(items []core.Item, summaries ...core.Summary) {
	for _, s := range summaries {
		core.UpdateBatches(s, items, 0)
	}
}
