package window

import (
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/zipf"
)

func TestNewValidation(t *testing.T) {
	cases := [][3]int{
		{0, 4, 10}, {100, 0, 10}, {100, 4, 0}, {100, 3, 10},
		// Over the wire-format geometry bounds: rejected at construction
		// so no legally-built window can write an undecodable checkpoint.
		{100, 10, maxWNCounters + 1},
		{1 << 17, 1 << 17, 1},
	}
	for _, c := range cases {
		if _, err := NewWindowed(c[0], c[1], c[2]); err == nil {
			t.Errorf("NewWindowed(%v) accepted", c)
		}
	}
}

func TestWindowForgetsOldItems(t *testing.T) {
	w, err := NewWindowed(1000, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: item 1 is hot.
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			w.Update(1, 1)
		} else {
			w.Update(core.Item(1000+i), 1)
		}
	}
	if w.Estimate(1) < 450 {
		t.Fatalf("hot item estimate %d during phase 1", w.Estimate(1))
	}
	// Phase 2: item 1 vanishes; after > W + block new items its counts
	// must be fully expired.
	for i := 0; i < 1300; i++ {
		w.Update(core.Item(5000+i), 1)
	}
	// All of item 1's mass expired; only the Space-Saving min-counter
	// slack for untracked items may remain.
	if got := w.Estimate(1); got > w.Slack() {
		t.Errorf("expired item estimated at %d, above slack %d", got, w.Slack())
	}
}

func TestWindowRecall(t *testing.T) {
	// An item occupying 10% of the current window must always be
	// reported at a 5% threshold.
	w, _ := NewWindowed(2000, 4, 100)
	g, _ := zipf.NewGenerator(1<<14, 0.8, 3, true)
	hot := core.Item(12345)
	for i := 0; i < 10000; i++ {
		if i%10 == 0 {
			w.Update(hot, 1)
		} else {
			w.Update(g.Next(), 1)
		}
		if i > 2000 && i%500 == 0 {
			threshold := int64(0.05 * float64(w.Size()))
			found := false
			for _, ic := range w.Query(threshold) {
				if ic.Item == hot {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("step %d: hot item missing from window query", i)
			}
		}
	}
}

func TestWindowLiveBounded(t *testing.T) {
	w, _ := NewWindowed(1000, 4, 20)
	for i := 0; i < 50000; i++ {
		w.Update(core.Item(i), 1)
	}
	if w.Live() > int64(w.Size())+int64(w.Size()/4) {
		t.Errorf("live count %d exceeds W + block", w.Live())
	}
	if w.N() != 50000 {
		t.Errorf("N = %d", w.N())
	}
}

func TestWindowEstimateWithinSlack(t *testing.T) {
	w, _ := NewWindowed(4000, 8, 200)
	g, _ := zipf.NewGenerator(1<<12, 1.2, 9, true)
	recent := make([]core.Item, 0, 4000)
	for i := 0; i < 20000; i++ {
		it := g.Next()
		w.Update(it, 1)
		recent = append(recent, it)
		if len(recent) > 4000 {
			recent = recent[1:]
		}
	}
	// Exact windowed counts.
	exactWin := map[core.Item]int64{}
	for _, it := range recent {
		exactWin[it]++
	}
	slack := w.Slack()
	for r := 1; r <= 100; r++ {
		it := g.ItemOfRank(r)
		est := w.Estimate(it)
		tru := exactWin[it]
		if est < tru {
			t.Fatalf("rank %d: windowed estimate %d underestimates true %d", r, est, tru)
		}
		if est > tru+slack {
			t.Fatalf("rank %d: windowed estimate %d exceeds true %d + slack %d", r, est, tru, slack)
		}
	}
}

func TestWindowBytesBounded(t *testing.T) {
	w, _ := NewWindowed(10000, 10, 50)
	for i := 0; i < 100000; i++ {
		w.Update(core.Item(i%1000), 1)
	}
	// At most `blocks` live summaries of k counters each.
	if w.Bytes() > 10*50*64*2 {
		t.Errorf("window footprint %d bytes implausibly large", w.Bytes())
	}
}
