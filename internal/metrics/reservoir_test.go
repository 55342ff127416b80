package metrics

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// draws counts the RNG steps that take before to after, or -1 if more
// than limit.
func draws(before, after rand.PCG, limit int) int {
	for i := 0; i <= limit; i++ {
		if before == after {
			return i
		}
		before.Uint64()
	}
	return -1
}

// TestReservoirAddNMatchesAdd: AddN(d, n) and n sequential Add(d) calls
// leave the same retained sample and RNG state for every seed, so AddN
// retains as many copies as the Adds do — in distribution and per seed.
// The mean retained copy count also matches its expectation under a
// uniform sample: cap·n/seen.
func TestReservoirAddNMatchesAdd(t *testing.T) {
	const (
		cap    = 16
		prefix = 100 // distinct observations before the batch
		n      = 300
		seeds  = 2000
		marker = time.Duration(-1)
	)
	total := 0
	for seed := int64(0); seed < seeds; seed++ {
		a, b := NewReservoir(cap, seed), NewReservoir(cap, seed)
		for i := range prefix {
			a.Add(time.Duration(i))
			b.Add(time.Duration(i))
		}
		a.AddN(marker, n)
		for range n {
			b.Add(marker)
		}
		if !slices.Equal(a.Samples(), b.Samples()) || a.rng != b.rng || a.Seen() != b.Seen() {
			t.Fatalf("seed %d: AddN diverged from %d Adds:\n%v\n%v", seed, n, a.Samples(), b.Samples())
		}
		for _, d := range a.Samples() {
			if d == marker {
				total++
			}
		}
	}
	mean := float64(total) / seeds
	want := float64(cap) * n / (prefix + n)
	if math.Abs(mean-want) > 0.05*want {
		t.Fatalf("mean retained copies %.3f, want %.3f", mean, want)
	}
}

// TestReservoirAddNFill: a batch that straddles the fill boundary keeps
// every observation up to capacity, exactly as single Adds would.
func TestReservoirAddNFill(t *testing.T) {
	for _, n := range []int64{1, 5, 9, 10, 11, 1000} {
		a, b := NewReservoir(10, 3), NewReservoir(10, 3)
		a.Add(7)
		b.Add(7)
		a.AddN(5, n)
		for range n {
			b.Add(5)
		}
		if !slices.Equal(a.Samples(), b.Samples()) || a.rng != b.rng || a.Seen() != 1+n {
			t.Fatalf("n=%d: AddN %v (seen %d), Adds %v", n, a.Samples(), a.Seen(), b.Samples())
		}
	}
}

// TestReservoirAddNBoundedDraws: a billion-observation batch on a full
// reservoir finishes after O(cap·log(n/cap)) RNG draws — three per
// replacement — never one per observation.
func TestReservoirAddNBoundedDraws(t *testing.T) {
	const cap, n = 512, int64(1e9)
	r := NewReservoir(cap, 11)
	r.AddN(1, cap)
	before := r.rng
	r.AddN(2, n)
	if r.Seen() != cap+n {
		t.Fatalf("seen %d, want %d", r.Seen(), cap+n)
	}
	// Expected replacements: Σ cap/i over the batch ≈ cap·ln(seen/cap).
	expected := cap * math.Log(float64(cap+n)/cap)
	limit := int(3 * 1.25 * expected)
	got := draws(before, r.rng, limit)
	if got < 0 {
		t.Fatalf("more than %d RNG draws for one AddN", limit)
	}
	if got < int(3*0.75*expected) {
		t.Fatalf("%d RNG draws, far below the %.0f replacements expected", got, expected)
	}
}

// TestReservoirDrawsOnlyWhenKeeping: between kept indices Add draws no
// randomness at all; a kept observation draws three numbers (its slot,
// the weight, the next gap), and the fill's last observation two.
func TestReservoirDrawsOnlyWhenKeeping(t *testing.T) {
	const cap = 8
	r := NewReservoir(cap, 5)
	kept := 0
	for i := int64(1); i <= 100000; i++ {
		before, next := r.rng, r.next
		r.Add(time.Duration(i))
		want := 0
		switch {
		case i == cap:
			want = 2
		case i > cap && i == next:
			want = 3
			kept++
		}
		if got := draws(before, r.rng, 3); got != want {
			t.Fatalf("observation %d (next %d): %d draws, want %d", i, next, got, want)
		}
	}
	// cap·ln(n/cap) replacements expected: about 75 here.
	if kept < 40 || kept > 120 {
		t.Fatalf("%d replacements over 100000 observations", kept)
	}
}

// TestReservoirSize: the reservoir stays one 64-byte allocation, so the
// per-entity distributions of a lock cost no more memory than before.
func TestReservoirSize(t *testing.T) {
	if s := unsafe.Sizeof(Reservoir{}); s > 64 {
		t.Fatalf("Reservoir is %d bytes, want <= 64", s)
	}
}

func BenchmarkReservoirAdd(b *testing.B) {
	r := NewReservoir(512, 1)
	r.AddN(0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		r.Add(time.Duration(i))
	}
}

// BenchmarkReservoirAddN is the lock fast-path fold: each op books a
// batch of 64 identical observations.
func BenchmarkReservoirAddN(b *testing.B) {
	r := NewReservoir(512, 1)
	r.AddN(0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		r.AddN(time.Duration(i), 64)
	}
}
