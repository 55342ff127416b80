package scl

import (
	"testing"
	"time"

	"scl/internal/check"
	"scl/trace"
)

// TestClockReadsPerOp pins the clock-read budget of each lock path
// (DESIGN.md §3.8). Under an installed check scheduler every monotime
// call goes through check.Now, which the scheduler counts, so the
// budget is exact and independent of the machine. Each path runs on
// one managed goroutine: a warm-up op (registration, first slice,
// materialization), then ops whose reads are counted. The virtual clock
// only moves when every goroutine is blocked, so a lone goroutine sees
// no slice end mid-measurement.
func TestClockReadsPerOp(t *testing.T) {
	const ops = 64
	cases := []struct {
		name string
		want int64
		// setup builds the lock and returns one op (acquire + release).
		setup func() func()
	}{
		{"k-SCL Lock+Unlock", 2, func() func() {
			h := NewMutex(Options{Slice: -1}).Register()
			return func() { h.Lock(); h.Unlock() }
		}},
		{"uncontended k-SCL Do", 2, func() func() {
			h := NewMutex(Options{Slice: -1}).Register()
			return func() { h.Do(func() {}) }
		}},
		{"u-SCL owner reacquire", 0, func() func() {
			h := NewMutex(Options{Slice: time.Hour}).Register()
			return func() { h.Lock(); h.Unlock() }
		}},
		{"traced RW RLock+RUnlock", 2, func() func() {
			l := NewRWLock(1, 1, time.Hour)
			l.SetTracer(tracerFunc(func(trace.Event) {}))
			return func() { l.RLock(); l.RUnlock() }
		}},
		{"traced RW WLock+WUnlock", 2, func() func() {
			l := NewRWLock(1, 1, time.Hour)
			l.SetTracer(tracerFunc(func(trace.Event) {}))
			return func() { l.WLock(); l.WUnlock() }
		}},
		{"Manager hot-key grant", 3, func() func() {
			tn := NewManager(ManagerOptions{Lock: Options{Slice: time.Hour}}).Tenant("hot", 1)
			return func() { tn.Lock("k").Unlock() }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := check.NewSched(check.NewRandomChooser(1), 0)
			check.Install(s)
			defer check.Uninstall(s)
			var reads int64
			s.Go("op", func() {
				check.Sleep(time.Millisecond) // off the zero instant
				op := c.setup()
				op()
				before := s.ClockReads()
				for range ops {
					op()
				}
				reads = s.ClockReads() - before
			})
			if res := s.Run(); res.Failure != nil {
				t.Fatalf("checker failure: %v", res.Failure)
			}
			if reads != c.want*ops {
				t.Fatalf("%d clock reads over %d ops (%.2f/op), want %d/op",
					reads, ops, float64(reads)/ops, c.want)
			}
		})
	}
}
