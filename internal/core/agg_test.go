package core

import (
	"testing"

	"streamfreq/internal/prng"
)

// TestBatchAggCollapse checks one table across batch lengths on both
// sides of its growth boundaries (a table holds a batch of up to half
// its slot count): every batch collapses to its distinct items in
// first-appearance order with their multiplicities, and release leaves
// nothing behind for the next batch.
func TestBatchAggCollapse(t *testing.T) {
	rng := prng.New(0xA66)
	a := new(batchAgg)
	for _, n := range []int{1, 8, 9, 16, 17, 300, 4096, 4097, 8193, 5} {
		items := make([]Item, n)
		for i := range items {
			// Half the arrivals repeat a 32-item head; item 0 hashes to
			// tag 0 in slot 0 and must still count as occupied.
			if rng.Uint64()&1 == 0 {
				items[i] = Item(rng.Uint64n(32))
			} else {
				items[i] = Item(rng.Uint64())
			}
		}
		var order []Item
		want := make(map[Item]int64)
		for _, x := range items {
			if want[x] == 0 {
				order = append(order, x)
			}
			want[x]++
		}
		a.aggregate(items)
		keys, counts := a.pairs()
		if len(keys) != len(order) {
			t.Fatalf("n=%d: %d distinct, want %d", n, len(keys), len(order))
		}
		for i, x := range order {
			if keys[i] != x || counts[i] != want[x] {
				t.Fatalf("n=%d: pair %d = (%d, %d), want (%d, %d)", n, i, keys[i], counts[i], x, want[x])
			}
		}
		a.release()
		for i, s := range a.table {
			if s != 0 {
				t.Fatalf("n=%d: slot %d = %#x after Release", n, i, s)
			}
		}
	}
}
