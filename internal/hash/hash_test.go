package hash

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulmodMatchesBigInt(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime)
	f := func(a, b uint64) bool {
		a %= MersennePrime
		b %= MersennePrime
		got := mulmod(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		return got == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestMulmodEdgeCases(t *testing.T) {
	max := uint64(MersennePrime - 1)
	cases := [][2]uint64{
		{0, 0}, {1, 1}, {max, max}, {max, 1}, {0, max}, {max, 2},
	}
	p := new(big.Int).SetUint64(MersennePrime)
	for _, c := range cases {
		want := new(big.Int).Mul(new(big.Int).SetUint64(c[0]), new(big.Int).SetUint64(c[1]))
		want.Mod(want, p)
		if got := mulmod(c[0], c[1]); got != want.Uint64() {
			t.Errorf("mulmod(%d,%d) = %d, want %d", c[0], c[1], got, want.Uint64())
		}
	}
}

func TestAddmodAndReduce(t *testing.T) {
	if got := addmod(MersennePrime-1, 1); got != 0 {
		t.Errorf("addmod(p-1,1) = %d, want 0", got)
	}
	if got := reduce(math.MaxUint64); got >= MersennePrime {
		t.Errorf("reduce(MaxUint64) = %d not in field", got)
	}
	// reduce must be the identity on field elements.
	for _, v := range []uint64{0, 1, 12345, MersennePrime - 1} {
		if reduce(v) != v {
			t.Errorf("reduce(%d) != identity", v)
		}
	}
}

func TestPolyDeterministicAndSeedSensitive(t *testing.T) {
	a := NewPoly(2, 11)
	b := NewPoly(2, 11)
	c := NewPoly(2, 12)
	diff := false
	for x := uint64(0); x < 100; x++ {
		if a.Hash(x) != b.Hash(x) {
			t.Fatal("same seed, different hashes")
		}
		if a.Hash(x) != c.Hash(x) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical hash functions")
	}
}

func TestPolyRejectsK1(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k < 2")
		}
	}()
	NewPoly(1, 0)
}

func TestBucketRange(t *testing.T) {
	for _, w := range []int{1, 2, 7, 100, 1 << 16} {
		b := NewBucket(2, w, 99)
		for x := uint64(0); x < 5000; x++ {
			h := b.Hash(x)
			if h < 0 || h >= w {
				t.Fatalf("bucket hash %d out of [0,%d)", h, w)
			}
		}
		if b.Width() != w {
			t.Fatalf("Width() = %d, want %d", b.Width(), w)
		}
	}
}

func TestBucketUniformity(t *testing.T) {
	const w, n = 64, 1 << 17
	b := NewBucket(2, w, 123)
	counts := make([]int, w)
	for x := uint64(0); x < n; x++ {
		counts[b.Hash(Mix64(x))]++
	}
	expected := float64(n) / w
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 6*math.Sqrt(expected) {
			t.Errorf("bucket %d count %d deviates from %.0f", i, c, expected)
		}
	}
}

func TestPairwiseIndependenceCollisions(t *testing.T) {
	// For a pairwise-independent family onto w buckets, Pr[h(x)=h(y)] ≈ 1/w
	// for x ≠ y. Estimate the collision rate over many function draws.
	const w = 16
	const trials = 4000
	collisions := 0
	for s := uint64(0); s < trials; s++ {
		b := NewBucket(2, w, s)
		if b.Hash(1) == b.Hash(2) {
			collisions++
		}
	}
	rate := float64(collisions) / trials
	want := 1.0 / w
	if math.Abs(rate-want) > 0.02 {
		t.Errorf("collision rate %.4f not ≈ %.4f", rate, want)
	}
}

func TestSignBalance(t *testing.T) {
	s := NewSign(2, 7)
	var sum int64
	const n = 1 << 16
	for x := uint64(0); x < n; x++ {
		v := s.Hash(Mix64(x))
		if v != 1 && v != -1 {
			t.Fatalf("sign hash returned %d", v)
		}
		sum += v
	}
	// Balanced within ~4 standard deviations (σ = √n = 256).
	if math.Abs(float64(sum)) > 4*math.Sqrt(n) {
		t.Errorf("sign sum %d too far from 0", sum)
	}
}

func TestSignDeterministic(t *testing.T) {
	a, b := NewSign(2, 5), NewSign(2, 5)
	for x := uint64(0); x < 1000; x++ {
		if a.Hash(x) != b.Hash(x) {
			t.Fatal("same-seed sign hashes diverge")
		}
	}
}

func TestMix64InjectiveOnSample(t *testing.T) {
	seen := make(map[uint64]uint64, 1<<16)
	for x := uint64(0); x < 1<<16; x++ {
		m := Mix64(x)
		if prev, ok := seen[m]; ok {
			t.Fatalf("Mix64 collision: %d and %d -> %d", prev, x, m)
		}
		seen[m] = x
	}
}

func TestFamilyCompatible(t *testing.T) {
	a := NewFamily(4, 128, 2, 9)
	b := NewFamily(4, 128, 2, 9)
	if err := a.Compatible(b); err != nil {
		t.Errorf("identical families incompatible: %v", err)
	}
	cases := []*Family{
		NewFamily(4, 128, 2, 10), // seed differs
		NewFamily(5, 128, 2, 9),  // depth differs
		NewFamily(4, 256, 2, 9),  // width differs
		NewFamily(4, 128, 4, 9),  // independence differs
	}
	for i, c := range cases {
		if err := a.Compatible(c); err == nil {
			t.Errorf("case %d: expected incompatibility", i)
		}
	}
	if err := a.Compatible(nil); err == nil {
		t.Error("nil family should be incompatible")
	}
}

func TestFamilyRowsIndependentlySeeded(t *testing.T) {
	f := NewFamily(3, 1024, 2, 21)
	// Rows must not be identical functions.
	same01, same12 := true, true
	for x := uint64(0); x < 200; x++ {
		if f.Buckets[0].Hash(x) != f.Buckets[1].Hash(x) {
			same01 = false
		}
		if f.Buckets[1].Hash(x) != f.Buckets[2].Hash(x) {
			same12 = false
		}
	}
	if same01 || same12 {
		t.Error("family rows are identical hash functions")
	}
}

func Test4WisePolyStillUniform(t *testing.T) {
	const w, n = 32, 1 << 16
	b := NewBucket(4, w, 77)
	counts := make([]int, w)
	for x := uint64(0); x < n; x++ {
		counts[b.Hash(Mix64(x))]++
	}
	expected := float64(n) / w
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 6*math.Sqrt(expected) {
			t.Errorf("bucket %d count %d deviates from %.0f", i, c, expected)
		}
	}
}

// checkSweep asserts Sweep(x0, out) equals Hash element by element.
func checkSweep(t *testing.T, b Bucket, x0 uint64, n int) {
	t.Helper()
	out := make([]int, n)
	b.Sweep(x0, out)
	for i, got := range out {
		if want := b.Hash(x0 + uint64(i)); got != want {
			t.Fatalf("k=%d width=%d: Sweep(%d)[%d] = %d, Hash = %d", b.p.K(), b.width, x0, i, got, want)
		}
	}
}

// TestSweepMatchesHash is the equivalence wall behind the sketches'
// swept descent: Barrett reduction and the stepped polynomial must give
// exactly Hash's bucket for every element of a run, at every width.
func TestSweepMatchesHash(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	widths := []int{1, 2, 3, 7, 255, 256, 2000, 1<<16 - 1, 1 << 16, 1<<20 - 1, 1 << 20}
	for i := 0; i < 40; i++ {
		widths = append(widths, 1+r.Intn(1<<20))
	}
	starts := []uint64{
		0,
		MersennePrime - 100, // crosses p: x mod p wraps to 0 mid-run
		2*MersennePrime - 1,
		math.MaxUint64 - 299, // ends at MaxUint64, crossing 8p = 2^64−8
	}
	for _, w := range widths {
		seed := r.Uint64()
		b := NewBucket(2, w, seed)
		for _, x0 := range append(starts, r.Uint64()>>1, uint64(r.Uint32())<<8) {
			checkSweep(t, b, x0, 300)
		}
	}
	// Property check over random seeds, widths and starts.
	f := func(seed, x0 uint64, w uint32, n uint16) bool {
		width := 1 + int(w%(1<<20))
		b := NewBucket(2, width, seed)
		if x0 > math.MaxUint64-uint64(n) {
			x0 = math.MaxUint64 - uint64(n)
		}
		out := make([]int, int(n%1024))
		b.Sweep(x0, out)
		for i, got := range out {
			if got != b.Hash(x0+uint64(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestSweepFallbackAndEdges(t *testing.T) {
	// k≠2 takes the per-element Hash fallback.
	for _, w := range []int{1, 97, 1 << 20} {
		checkSweep(t, NewBucket(4, w, 5), math.MaxUint64-511, 512)
		checkSweep(t, NewBucket(4, w, 5), MersennePrime-3, 64)
	}
	// A hand-built polynomial whose step lands exactly on p: the wrap
	// must take it to 0 (random draws hit this with probability ~2^-61).
	const a, x0 = uint64(12345), uint64(1000)
	c := addmod(MersennePrime-a, MersennePrime-mulmod(a, x0)) // h(x0) = p − a
	for _, w := range []int{1, 2000, 1 << 20} {
		b := NewBucket(2, w, 1)
		b.p = Poly{coeff: []uint64{c, a}}
		if b.p.Hash(x0+1) != 0 {
			t.Fatal("crafted polynomial does not reach 0 at x0+1")
		}
		checkSweep(t, b, x0, 16)
	}
	// A single-element run ending at MaxUint64, and an empty run.
	b := NewBucket(2, 2000, 3)
	checkSweep(t, b, math.MaxUint64, 1)
	b.Sweep(0, nil)
}
