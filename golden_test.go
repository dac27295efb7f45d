package streamfreq

// Wire-byte golden pins: the SHA-256 of the FQ01, SS01 and WN01
// encodings after a fixed Zipf stream, fed scalar and in uneven
// batches. encode_roundtrip_test.go checks that one build encodes
// deterministically; these pins check that the bytes do not move
// across changes to the counter storage. A pin changes only with a
// deliberate wire-format or algorithm change, never with a refactor.

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"

	"streamfreq/internal/prng"
)

// goldenStream is an exact Zipf(1) stream over 3000 ranks, drawn with
// integer arithmetic only (rank r has weight ⌊2^20/r⌋), so it is the
// same on every platform. Ranks map to scattered item identifiers.
func goldenStream() []Item {
	const ranks = 3000
	cum := make([]uint64, ranks)
	var total uint64
	for r := range cum {
		total += (1 << 20) / uint64(r+1)
		cum[r] = total
	}
	rng := prng.New(0x601DE7)
	out := make([]Item, 40_000)
	for i := range out {
		u := rng.Uint64n(total)
		r := sort.Search(ranks, func(j int) bool { return cum[j] > u })
		out[i] = Item(uint64(r+1) * 0x9E3779B97F4A7C15 >> 20)
	}
	return out
}

// goldenBatches splits s into uneven batches, unit batches included.
func goldenBatches(s []Item) [][]Item {
	sizes := []int{1, 997, 4096, 2, 63, 3000, 1, 511}
	var out [][]Item
	for i := 0; len(s) > 0; i++ {
		n := min(sizes[i%len(sizes)], len(s))
		out = append(out, s[:n])
		s = s[n:]
	}
	return out
}

func TestWireGoldenPins(t *testing.T) {
	stream := goldenStream()
	newWindowed := func() Summary { return mustWindowedSummary(12_000, 6, 150) }
	cases := []struct {
		name string
		make func() Summary
		want [3]string // scalar feed, batched feed, merged halves
	}{
		{"F/k=150", func() Summary { return NewFrequent(150) }, [3]string{
			"9a239b01bcd7469e5d35642d92bb9ecba570c938649c869c6cd8e9e334eaa95d",
			"7fadd388e3783ace172480d319778095479d4e1d2f9d8e2f1b7e5fda76c5bcb0",
			"8917ef1c52cbc587f245950fd321676f1ae5512968450ab68f57a1827a309995",
		}},
		{"F/k=1000", func() Summary { return NewFrequent(1000) }, [3]string{
			"018875096dac2b3a9f041c5ba3c750a3f396dd0171e0cbb4293bf446cae142e8",
			"7ad04ccc67ea8134fbfec1b25736ccc2df0d9272a74a720751b1ac7ef7121789",
			"00a90c7e643044389e770a4c03e660018ac4f6335fcd72d2f915dfd8a29d90a7",
		}},
		{"SSH/k=150", func() Summary { return NewSpaceSaving(150) }, [3]string{
			"a643675e3c7f6780cbe52f54e94165ff1341044b74909e39d69d7f4bf0bc9713",
			"e5976805ce15f4894a3e342d36d79ed29c5be5e428444118626ac01ca5665772",
			"cc1c57f07ee652c2c070ef14de55f7b8583dfd0a10490d078dbc175cbff594a5",
		}},
		{"SSW/W=12000,B=6,k=150", newWindowed, [3]string{
			"a5703be2fbc47cbd39ef2f6b90e0882f7c865d7b401ef0613d40c52dab8af180",
			"af1a245f9fad268a03cb9a414518f7515f9fc4ba130a801a43186f533854b58c",
			"2763f5cb927e5d9d4105af1848c5878b563fa55c3254e248cc60bd725f26b42d",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scalar := tc.make()
			for _, x := range stream {
				scalar.Update(x, 1)
			}
			batched := tc.make()
			for _, b := range goldenBatches(stream) {
				UpdateAll(batched, b)
			}
			// The merged feed folds a batched second half into a
			// scalar-fed first half.
			merged, second := tc.make(), tc.make()
			half := len(stream) / 2
			for _, x := range stream[:half] {
				merged.Update(x, 1)
			}
			for _, b := range goldenBatches(stream[half:]) {
				UpdateAll(second, b)
			}
			if err := merged.(Merger).Merge(second); err != nil {
				t.Fatal(err)
			}
			for i, s := range []Summary{scalar, batched, merged} {
				sum := sha256.Sum256(marshal(t, tc.name, s))
				if got := hex.EncodeToString(sum[:]); got != tc.want[i] {
					t.Errorf("%s feed %d: sha256 %s, pinned %s", tc.name, i, got, tc.want[i])
				}
			}
		})
	}
}
