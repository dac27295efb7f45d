package counters

import (
	"encoding/binary"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/prng"
	"streamfreq/internal/zipf"
)

// FuzzFrequentOffset is the ablation correctness proof: the
// offset-trick Frequent and the textbook decrement-all FrequentNaive
// must hold identical summaries on any stream. Each byte pair is one
// weighted arrival from a 64-item universe, so small k sees constant
// eviction, and the flat storage's counter-freeing path (popMin) runs
// on every decrement; Check runs after every update. The seeds run as
// ordinary tier-1 cases.
func FuzzFrequentOffset(f *testing.F) {
	f.Add([]byte(nil), uint8(0))
	f.Add([]byte{1, 0, 2, 0, 1, 0, 3, 0}, uint8(1))
	rng := prng.New(0xF0F5E7)
	for i := 0; i < 64; i++ {
		data := make([]byte, 2*(1+rng.Uint64n(400)))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		f.Add(data, uint8(rng.Uint64()))
	}
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		k := int(kRaw%20) + 1
		fast := NewFrequent(k)
		slow := NewFrequentNaive(k)
		for i := 0; i+1 < len(data); i += 2 {
			raw := binary.LittleEndian.Uint16(data[i:])
			it := core.Item(raw % 64)
			w := int64(raw%3) + 1
			fast.Update(it, w)
			slow.Update(it, w)
			if err := fast.Check(); err != nil {
				t.Fatalf("after arrival %d: %v", i/2, err)
			}
		}
		if fast.MaxError() != slow.MaxError() {
			t.Fatalf("MaxError %d, naive %d", fast.MaxError(), slow.MaxError())
		}
		fe, se := fast.Entries(), slow.Entries()
		if len(fe) != len(se) {
			t.Fatalf("%d entries, naive %d", len(fe), len(se))
		}
		for i := range fe {
			if fe[i] != se[i] {
				t.Fatalf("entry %d = %+v, naive %+v", i, fe[i], se[i])
			}
		}
		for v := core.Item(0); v < 64; v++ {
			if fast.Estimate(v) != slow.Estimate(v) {
				t.Fatalf("Estimate(%d) = %d, naive %d", v, fast.Estimate(v), slow.Estimate(v))
			}
		}
	})
}

func TestFrequentOffsetEquivalenceZipf(t *testing.T) {
	// Same check on a realistic stream at realistic k.
	g, err := zipf.NewGenerator(5000, 1.0, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	const k = 100
	fast := NewFrequent(k)
	slow := NewFrequentNaive(k)
	for i := 0; i < 50000; i++ {
		it := g.Next()
		fast.Update(it, 1)
		slow.Update(it, 1)
	}
	fe, se := fast.Entries(), slow.Entries()
	if len(fe) != len(se) {
		t.Fatalf("entry counts differ: %d vs %d", len(fe), len(se))
	}
	for i := range fe {
		if fe[i] != se[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, fe[i], se[i])
		}
	}
	if fast.MaxError() != slow.MaxError() {
		t.Errorf("decrement mass differs: %d vs %d", fast.MaxError(), slow.MaxError())
	}
}

func TestFrequentNaiveGuarantee(t *testing.T) {
	g, _ := zipf.NewGenerator(1000, 1.1, 7, true)
	f := NewFrequentNaive(50)
	total := int64(0)
	truth := map[core.Item]int64{}
	for i := 0; i < 30000; i++ {
		it := g.Next()
		f.Update(it, 1)
		truth[it]++
		total++
	}
	slack := total / int64(f.K()+1)
	for it, tru := range truth {
		est := f.Estimate(it)
		if est > tru || est < tru-slack {
			t.Fatalf("item %d: estimate %d outside [true−slack, true] = [%d, %d]", it, est, tru-slack, tru)
		}
	}
}
