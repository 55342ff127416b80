package metrics

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"time"
)

// Reservoir keeps a bounded uniform sample of an unbounded stream of
// durations (Li's Algorithm L) so long simulations can record latency
// distributions without unbounded memory. Once the reservoir is full,
// Algorithm L draws the gap to the next kept observation directly, so
// the observations in between cost a counter increment and no random
// draw: O(cap·log(n/cap)) draws over a stream of n, not one per
// observation. The RNG is caller-seeded, keeping simulations
// deterministic.
type Reservoir struct {
	samples []time.Duration
	seen    int64 // observations offered
	// next is the 1-based stream index of the next observation that
	// draws randomness: while filling, the capacity (the draw that opens
	// the sampling phase); once full, the next observation kept. Keeping
	// the capacity here rather than in its own field holds the struct to
	// 64 bytes, so a lock's per-entity stats cost no more memory.
	next int64
	w    float64 // Algorithm L's running weight; 0 while filling
	rng  rand.PCG
}

// NewReservoir returns a reservoir holding at most cap samples, drawing
// replacement decisions from the given seed.
func NewReservoir(cap int, seed int64) *Reservoir {
	if cap <= 0 {
		cap = 1
	}
	r := &Reservoir{next: int64(cap)}
	r.rng.Seed(uint64(seed), 0x9e3779b97f4a7c15) // fixed second seed word
	return r
}

// Add offers one observation to the reservoir.
func (r *Reservoir) Add(d time.Duration) {
	r.seen++
	switch {
	case r.seen == r.next:
		r.keep(d)
	case r.w == 0:
		r.samples = append(r.samples, d)
	}
}

// AddN offers n identical observations in one step. It is exactly n
// sequential Add calls — same retained sample, same RNG state — but
// costs O(1) per gap between kept observations instead of O(n): whole
// gaps are skipped arithmetically, and randomness is drawn only for a
// replacement that falls inside the batch. Batch accounting paths (lock
// fast-path folds) use this to record thousands of uniform observations
// per fold cheaply.
func (r *Reservoir) AddN(d time.Duration, n int64) {
	for n > 0 {
		// The observations before next: appended while filling,
		// skipped once full.
		skip := min(n, r.next-r.seen-1)
		if r.w == 0 {
			for range skip {
				r.samples = append(r.samples, d)
			}
		}
		r.seen += skip
		if n -= skip; n > 0 {
			r.seen++
			n--
			r.keep(d)
		}
	}
}

// keep stores the observation at index next — the last fill slot, or a
// uniformly chosen slot once full — and draws the gap to the following
// kept observation: the weight shrinks by U^(1/cap), and the gap is
// geometric in it (Li 1994, Algorithm L).
func (r *Reservoir) keep(d time.Duration) {
	if r.w == 0 {
		r.samples = append(r.samples, d)
		r.w = 1
	} else {
		hi, _ := bits.Mul64(r.rng.Uint64(), uint64(len(r.samples)))
		r.samples[hi] = d
	}
	r.w *= math.Exp(math.Log(r.uniform()) / float64(len(r.samples)))
	gap := math.Log(r.uniform()) / math.Log1p(-r.w)
	r.next += int64(min(gap, 1<<62)) + 1
}

// uniform draws from the open interval (0, 1), safe to take the log of.
func (r *Reservoir) uniform() float64 {
	return (float64(r.rng.Uint64()>>11) + 0.5) / (1 << 53)
}

// Seen reports how many observations were offered in total.
func (r *Reservoir) Seen() int64 { return r.seen }

// Samples returns the retained sample. The returned slice is owned by the
// reservoir; callers must not modify it while still adding.
func (r *Reservoir) Samples() []time.Duration { return r.samples }

// Summary summarizes the retained sample.
func (r *Reservoir) Summary() Summary { return Summarize(r.samples) }
