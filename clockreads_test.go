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
// no slice end mid-measurement; the two rows that need time to pass (a
// served ban, a handoff) are exact all the same, because the virtual
// clock and the seeded schedule make every run of them identical.
func TestClockReadsPerOp(t *testing.T) {
	const ops = 64
	cases := []struct {
		name string
		want int64
		// setup builds the lock and returns one op (acquire + release); it
		// may start helper goroutines on s.
		setup func(s *check.Sched) func()
	}{
		{"k-SCL Lock+Unlock", 2, func(*check.Sched) func() {
			h := NewMutex(Options{Slice: -1}).Register()
			return func() { h.Lock(); h.Unlock() }
		}},
		{"uncontended k-SCL Do", 2, func(*check.Sched) func() {
			h := NewMutex(Options{Slice: -1}).Register()
			return func() { h.Do(func() {}) }
		}},
		{"k-SCL TryLock+Unlock", 2, func(*check.Sched) func() {
			h := NewMutex(Options{Slice: -1}).Register()
			return func() {
				if !h.TryLock() {
					panic("TryLock failed on a free lock")
				}
				h.Unlock()
			}
		}},
		{"banned k-SCL Lock+Unlock", 3, func(*check.Sched) func() {
			// An idle peer holds half the share, so every hold of h draws a
			// ban and every Lock sleeps it out first.
			m := NewMutex(Options{Slice: -1})
			h := m.Register()
			m.Register()
			return func() {
				h.Lock()
				check.Sleep(time.Millisecond)
				h.Unlock()
			}
		}},
		{"contended k-SCL handoff", 5, func(s *check.Sched) func() {
			// One op is a round: a holds while b queues behind it (serveBan,
			// park), a's release grants b (unlockSlow), b takes the grant
			// (takeGrant) and releases. No virtual time passes inside a
			// round, so no usage accrues and no ban is drawn.
			m := NewMutex(Options{Slice: -1})
			a, b := m.Register(), m.Register()
			var rounds, served int
			s.Go("waiter", func() {
				for range ops + 1 {
					check.WaitOrDone("round", func() bool { return served < rounds }, nil)
					b.Lock()
					b.Unlock()
					served++
				}
			})
			return func() {
				a.Lock()
				rounds++
				check.WaitOrDone("queued", func() bool { return m.word.Load()&wordWaiters != 0 }, nil)
				a.Unlock()
				check.WaitOrDone("served", func() bool { return served == rounds }, nil)
			}
		}},
		{"u-SCL owner reacquire", 0, func(*check.Sched) func() {
			h := NewMutex(Options{Slice: time.Hour}).Register()
			return func() { h.Lock(); h.Unlock() }
		}},
		{"traced RW RLock+RUnlock", 2, func(*check.Sched) func() {
			l := NewRWLock(1, 1, time.Hour)
			l.SetTracer(tracerFunc(func(trace.Event) {}))
			return func() { l.RLock(); l.RUnlock() }
		}},
		{"traced RW WLock+WUnlock", 2, func(*check.Sched) func() {
			l := NewRWLock(1, 1, time.Hour)
			l.SetTracer(tracerFunc(func(trace.Event) {}))
			return func() { l.WLock(); l.WUnlock() }
		}},
		{"Manager hot-key grant", 3, func(*check.Sched) func() {
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
				op := c.setup(s)
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
