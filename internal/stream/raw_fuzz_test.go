package stream

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/iotest"

	"streamfreq/internal/core"
)

// FuzzRawSource pins the raw ingest decoder (the application/
// octet-stream body of OpenIngest) on arbitrary bytes, arbitrary batch
// lengths, and readers that deliver the body whole, one byte at a time,
// in halves, or with EOF riding on the last data: the items are exactly
// the first ⌊len/8⌋ little-endian words, and Err is non-nil exactly
// when a torn item (len % 8 ≠ 0) ends the body.
func FuzzRawSource(f *testing.F) {
	f.Add([]byte{}, uint16(1))
	f.Add(AppendRaw(nil, []core.Item{1, 2, 3}), uint16(2))
	f.Add(append(AppendRaw(nil, []core.Item{7, 8}), 1, 2, 3), uint16(64))
	f.Add(bytes.Repeat([]byte{0xff}, 8*300+5), uint16(299))
	f.Fuzz(func(t *testing.T, data []byte, bufLen uint16) {
		want := make([]core.Item, len(data)/8)
		for i := range want {
			want[i] = core.Item(binary.LittleEndian.Uint64(data[8*i:]))
		}
		readers := map[string]func() io.Reader{
			"whole":    func() io.Reader { return bytes.NewReader(data) },
			"one-byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
			"half":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) },
			"data-err": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) },
		}
		for name, mk := range readers {
			src := NewRawSource(mk())
			buf := make([]core.Item, int(bufLen)%1024+1)
			var got []core.Item
			for {
				n := src.NextBatch(buf)
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/buf=%d: %d items, want %d", name, len(buf), len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/buf=%d: item[%d] = %#x, want %#x", name, len(buf), i, uint64(got[i]), uint64(want[i]))
				}
			}
			if torn := len(data)%8 != 0; (src.Err() != nil) != torn {
				t.Fatalf("%s/buf=%d: Err() = %v with %d trailing bytes", name, len(buf), src.Err(), len(data)%8)
			}
		}
	})
}
