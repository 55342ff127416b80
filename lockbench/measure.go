package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// reservoir keeps a uniform sample of at most cap values (Algorithm R)
// in memory allocated up front.
type reservoir struct {
	vals []int64
	n    uint64
	rng  uint64
}

func newReservoir(n int, seed uint64) reservoir {
	return reservoir{vals: make([]int64, 0, n), rng: seed | 1}
}

func (r *reservoir) add(v int64) {
	r.n++
	if len(r.vals) < cap(r.vals) {
		r.vals = append(r.vals, v)
		return
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % r.n; j < uint64(len(r.vals)) {
		r.vals[j] = v
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for no samples. It sorts a copy.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	f := pos - float64(i)
	return float64(s[i])*(1-f) + float64(s[i+1])*f
}

// jain is Jain's fairness index (Σx)²/(n·Σx²); 1 is perfectly even.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// cpuTime is the process's user plus system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(RUSAGE_SELF): %v", err)) // fails only on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sample is the state read at a window boundary: the clients' published
// op counts and process-wide CPU, allocation and GC counters. It reads
// runtime/metrics, which does not stop the world.
type sample struct {
	at    time.Time
	ops   int64
	cpu   time.Duration
	alloc uint64
	gcs   uint64
}

func takeSample(cs []*client) sample {
	s := sample{at: time.Now(), cpu: cpuTime()}
	for _, c := range cs {
		s.ops += c.pub.Load()
	}
	rs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(rs)
	s.alloc, s.gcs = rs[0].Value.Uint64(), rs[1].Value.Uint64()
	return s
}

func perOp(x, ops float64) float64 {
	if ops == 0 {
		return 0
	}
	return x / ops
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
