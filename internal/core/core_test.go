package core

import (
	"errors"
	"sort"
	"testing"
)

func TestSortByCountDesc(t *testing.T) {
	s := []ItemCount{{3, 5}, {1, 10}, {2, 5}, {4, 7}}
	SortByCountDesc(s)
	want := []ItemCount{{1, 10}, {4, 7}, {2, 5}, {3, 5}}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("position %d: got %+v, want %+v", i, s[i], want[i])
		}
	}
}

func TestTopKCopies(t *testing.T) {
	s := []ItemCount{{1, 1}, {2, 9}, {3, 5}}
	top := TopK(s, 2)
	if len(top) != 2 || top[0].Item != 2 || top[1].Item != 3 {
		t.Errorf("TopK = %+v", top)
	}
	// Original must be untouched.
	if s[0].Item != 1 || s[1].Item != 2 {
		t.Error("TopK modified its input")
	}
	if got := TopK(s, 10); len(got) != 3 {
		t.Errorf("TopK(10) length = %d", len(got))
	}
}

func TestIncompatibleWraps(t *testing.T) {
	err := Incompatible("because %d", 7)
	if !errors.Is(err, ErrIncompatible) {
		t.Error("Incompatible error does not wrap ErrIncompatible")
	}
}

// mapSummary is a minimal exact Summary used to exercise the wrappers
// without importing internal/exact (which would create an import cycle
// in tests).
type mapSummary struct {
	m map[Item]int64
	n int64
}

func newMapSummary() *mapSummary { return &mapSummary{m: map[Item]int64{}} }

func (s *mapSummary) Update(x Item, c int64) { s.m[x] += c; s.n += c }
func (s *mapSummary) Estimate(x Item) int64  { return s.m[x] }
func (s *mapSummary) N() int64               { return s.n }
func (s *mapSummary) Bytes() int             { return 32 * len(s.m) }
func (s *mapSummary) Name() string           { return "map" }

func (s *mapSummary) Query(threshold int64) []ItemCount {
	var out []ItemCount
	for it, c := range s.m {
		if c >= threshold {
			out = append(out, ItemCount{it, c})
		}
	}
	SortByCountDesc(out)
	return out
}

func (s *mapSummary) Merge(other Summary) error {
	o, ok := other.(*mapSummary)
	if !ok {
		return Incompatible("mapSummary: %T", other)
	}
	for it, c := range o.m {
		s.m[it] += c
	}
	s.n += o.n
	return nil
}

func TestTrackedAdmitsHeavyItems(t *testing.T) {
	tr := NewTracked(newMapSummary(), 3)
	// Feed counts so items 1,2,3 are heavy and 4..10 are light.
	for i := 0; i < 100; i++ {
		tr.Update(1, 1)
	}
	for i := 0; i < 80; i++ {
		tr.Update(2, 1)
	}
	for i := 0; i < 60; i++ {
		tr.Update(3, 1)
	}
	for it := Item(4); it <= 10; it++ {
		tr.Update(it, 1)
	}
	top := tr.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK length %d", len(top))
	}
	wantItems := map[Item]bool{1: true, 2: true, 3: true}
	for _, ic := range top {
		if !wantItems[ic.Item] {
			t.Errorf("unexpected tracked item %+v", ic)
		}
	}
	if top[0].Item != 1 || top[0].Count != 100 {
		t.Errorf("top item = %+v", top[0])
	}
}

func TestTrackedEvictsLightForHeavy(t *testing.T) {
	tr := NewTracked(newMapSummary(), 2)
	tr.Update(1, 1) // light, admitted (capacity)
	tr.Update(2, 1) // light, admitted (capacity)
	for i := 0; i < 50; i++ {
		tr.Update(3, 1) // heavy, must evict a light item
	}
	q := tr.Query(50)
	if len(q) != 1 || q[0].Item != 3 {
		t.Errorf("Query(50) = %+v, want item 3", q)
	}
}

func TestTrackedQueryReestimates(t *testing.T) {
	inner := newMapSummary()
	tr := NewTracked(inner, 4)
	tr.Update(5, 10)
	// Mutate the inner summary behind the tracker's back; Query must
	// reflect the inner state, not the stale heap estimate.
	inner.Update(5, 90)
	q := tr.Query(100)
	if len(q) != 1 || q[0].Count != 100 {
		t.Errorf("Query = %+v, want re-estimated count 100", q)
	}
}

func TestTrackedMerge(t *testing.T) {
	a := NewTracked(newMapSummary(), 2)
	b := NewTracked(newMapSummary(), 2)
	a.Update(1, 10)
	a.Update(2, 5)
	b.Update(3, 20)
	b.Update(1, 7)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	top := a.TopK(2)
	if top[0].Item != 3 || top[0].Count != 20 {
		t.Errorf("top after merge = %+v", top[0])
	}
	if top[1].Item != 1 || top[1].Count != 17 {
		t.Errorf("second after merge = %+v", top[1])
	}
}

func TestTrackedPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTracked(newMapSummary(), 0)
}

func TestConcurrentSummaryRace(t *testing.T) {
	c := NewConcurrent(newMapSummary())
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				c.Update(Item(i%10), 1)
				_ = c.Estimate(Item(i % 10))
				if i%100 == 0 {
					_ = c.Query(1)
					_ = c.N()
					_ = c.Bytes()
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.N() != 8000 {
		t.Errorf("N = %d, want 8000", c.N())
	}
}

// TestShardedPartitionsByItem pins the sharded plane's partitioning:
// every item lives wholly in one shard, so the union of shard reports
// has no duplicates and every per-item count is exact.
func TestShardedPartitionsByItem(t *testing.T) {
	s := NewPipelined(4, newMapSummaryFactory())
	defer s.Close()
	for i := 0; i < 1000; i++ {
		s.Update(Item(i%50), 1)
	}
	s.Drain()
	if s.N() != 1000 {
		t.Errorf("N = %d", s.N())
	}
	for i := 0; i < 50; i++ {
		if got := s.Estimate(Item(i)); got != 20 {
			t.Errorf("item %d estimate %d, want 20", i, got)
		}
	}
	q := s.Query(20)
	if len(q) != 50 {
		t.Errorf("Query returned %d items, want 50", len(q))
	}
	// No duplicates across shards.
	items := map[Item]bool{}
	for _, ic := range q {
		if items[ic.Item] {
			t.Errorf("item %d reported by two shards", ic.Item)
		}
		items[ic.Item] = true
	}
}

// TestShardedConcurrentIngest drives the sharded plane's weighted
// (scalar) path from 8 writers; every claim must land exactly once.
func TestShardedConcurrentIngest(t *testing.T) {
	s := NewPipelined(8, newMapSummaryFactory())
	defer s.Close()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 5000; i++ {
				s.Update(Item(i%100), 1)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	s.Drain()
	if s.N() != 40000 {
		t.Errorf("N = %d, want 40000", s.N())
	}
	for i := 0; i < 100; i++ {
		if got := s.Estimate(Item(i)); got != 400 {
			t.Fatalf("item %d estimate %d, want 400", i, got)
		}
	}
}

func TestSortStability(t *testing.T) {
	// Deterministic order: equal counts sort by ascending item.
	s := []ItemCount{{9, 1}, {3, 1}, {7, 1}, {1, 1}}
	SortByCountDesc(s)
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].Item < s[j].Item }) {
		t.Errorf("tie order not ascending by item: %+v", s)
	}
}
