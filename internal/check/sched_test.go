package check

import (
	"sync"
	"testing"
	"time"
)

// runUnder is a test helper: build a Sched with ch, install it,
// register via setup, run, uninstall.
func runUnder(t *testing.T, ch Chooser, setup func(s *Sched)) Result {
	t.Helper()
	s := NewSched(ch, 0)
	Install(s)
	defer Uninstall(s)
	setup(s)
	return s.Run()
}

// TestSerialExecution: two goroutines incrementing a plain (unsynchronized)
// counter through schedule points never race, because execution is serial.
func TestSerialExecution(t *testing.T) {
	counter := 0
	res := runUnder(t, NewRandomChooser(1), func(s *Sched) {
		for i := 0; i < 2; i++ {
			s.Go("inc", func() {
				for j := 0; j < 10; j++ {
					v := counter
					Point("between-load-and-store")
					counter = v + 1
				}
			})
		}
	})
	if res.Failure != nil {
		t.Fatalf("unexpected failure: %v", res.Failure)
	}
	// Lost updates are expected (that's the point of the race window);
	// the counter must be between 10 and 20.
	if counter < 10 || counter > 20 {
		t.Fatalf("counter = %d, want in [10, 20]", counter)
	}
}

// TestLostUpdateFound: the explorer must find the interleaving where the
// unsynchronized increment loses an update — proof it explores schedules
// that differ observably.
func TestLostUpdateFound(t *testing.T) {
	w := Workload{
		Name: "lost-update",
		Setup: func(s *Sched) {
			counter := new(int)
			done := new(int)
			for i := 0; i < 2; i++ {
				s.Go("inc", func() {
					v := *counter
					Point("gap")
					*counter = v + 1
					*done++
					if *done == 2 && *counter != 2 {
						s.Failf("lost update: counter = %d", *counter)
					}
				})
			}
		},
	}
	sum := Explore(Opts{Schedules: 200, Seed: 42}, w)
	if sum.Failure == nil {
		t.Fatalf("explorer missed the lost update in %d runs (%d distinct)", sum.Runs, sum.Distinct)
	}
	t.Logf("lost update found after %d runs, seed %d", sum.Runs, sum.Failure.Seed)
	// And the printed seed must replay it one-shot.
	if f := Replay(Opts{}, w, sum.Failure.Seed); f == nil {
		t.Fatalf("seed %d did not replay the failure", sum.Failure.Seed)
	}
}

// TestDFSFindsLostUpdate: the bounded exhaustive mode finds the same bug
// without randomness.
func TestDFSFindsLostUpdate(t *testing.T) {
	w := Workload{
		Setup: func(s *Sched) {
			counter := new(int)
			done := new(int)
			for i := 0; i < 2; i++ {
				s.Go("inc", func() {
					v := *counter
					Point("gap")
					*counter = v + 1
					*done++
					if *done == 2 && *counter != 2 {
						s.Failf("lost update: counter = %d", *counter)
					}
				})
			}
		},
	}
	sum := ExploreDFS(DFSOpts{Depth: 8}, w)
	if sum.Failure == nil {
		t.Fatalf("DFS missed the lost update in %d runs", sum.Runs)
	}
	if f := ReplayDFS(DFSOpts{Depth: 8}, w, sum.Failure.Seed); f == nil {
		t.Fatalf("DFS seed %d did not replay", sum.Failure.Seed)
	}
}

// TestDeterministicReplay: the same seed yields the same schedule
// signature; different seeds eventually yield different ones.
func TestDeterministicReplay(t *testing.T) {
	setup := func(s *Sched) {
		for i := 0; i < 3; i++ {
			s.Go("worker", func() {
				for j := 0; j < 5; j++ {
					Point("step")
				}
			})
		}
	}
	sig := func(seed int64) uint64 {
		return runUnder(t, NewRandomChooser(seed), setup).Sig
	}
	if a, b := sig(7), sig(7); a != b {
		t.Fatalf("same seed, different signatures: %x vs %x", a, b)
	}
	distinct := map[uint64]struct{}{}
	for seed := int64(0); seed < 20; seed++ {
		distinct[sig(seed)] = struct{}{}
	}
	if len(distinct) < 2 {
		t.Fatalf("20 seeds produced %d distinct schedules", len(distinct))
	}
}

// TestVirtualTime: sleeps advance the virtual clock instantly and in
// order, and Now reflects it.
func TestVirtualTime(t *testing.T) {
	var order []string
	res := runUnder(t, NewFirstChooser(), func(s *Sched) {
		s.Go("slow", func() {
			Sleep(100 * time.Millisecond)
			order = append(order, "slow")
		})
		s.Go("fast", func() {
			Sleep(10 * time.Millisecond)
			order = append(order, "fast")
		})
	})
	if res.Failure != nil {
		t.Fatalf("failure: %v", res.Failure)
	}
	if len(order) != 2 || order[0] != "fast" || order[1] != "slow" {
		t.Fatalf("wake order = %v, want [fast slow]", order)
	}
	if res.Now != 100*time.Millisecond {
		t.Fatalf("final virtual clock = %v, want 100ms", res.Now)
	}
}

// TestTimers: AfterFunc fires at its virtual due time; Stop prevents
// firing; Reset re-arms.
func TestTimers(t *testing.T) {
	var fired []string
	res := runUnder(t, NewFirstChooser(), func(s *Sched) {
		s.Go("arm", func() {
			tm, ok := AfterFunc(50*time.Millisecond, func() {
				now, _ := Now()
				if now != 70*time.Millisecond {
					s.Failf("timer fired at %v, want 70ms", now)
				}
				fired = append(fired, "a")
			})
			if !ok {
				s.Failf("AfterFunc not handled under scheduler")
			}
			tm.Reset(70 * time.Millisecond) // supersede the 50ms firing
			stopped, ok2 := AfterFunc(10*time.Millisecond, func() {
				fired = append(fired, "never")
			})
			if !ok2 {
				s.Failf("AfterFunc not handled")
			}
			stopped.Stop()
		})
	})
	if res.Failure != nil {
		t.Fatalf("failure: %v", res.Failure)
	}
	if len(fired) != 1 || fired[0] != "a" {
		t.Fatalf("fired = %v, want [a]", fired)
	}
}

// TestVirtualMutex: LockMutex provides exclusion across schedule points.
func TestVirtualMutex(t *testing.T) {
	var mu sync.Mutex
	inCS := 0
	res := runUnder(t, NewRandomChooser(3), func(s *Sched) {
		for i := 0; i < 3; i++ {
			s.Go("locker", func() {
				for j := 0; j < 4; j++ {
					if !LockMutex(&mu) {
						s.Failf("LockMutex not handled under scheduler")
					}
					inCS++
					if inCS != 1 {
						s.Failf("mutual exclusion violated: %d in critical section", inCS)
					}
					Point("in-cs")
					inCS--
					UnlockMutex(&mu)
				}
			})
		}
	})
	if res.Failure != nil {
		t.Fatalf("failure: %v", res.Failure)
	}
}

// TestDeadlockDetected: a goroutine blocking on a predicate nobody
// satisfies is reported as a deadlock, not a hang.
func TestDeadlockDetected(t *testing.T) {
	res := runUnder(t, NewFirstChooser(), func(s *Sched) {
		s.Go("stuck", func() {
			WaitOrDone("never", func() bool { return false }, nil)
		})
	})
	if res.Failure == nil {
		t.Fatal("deadlock not detected")
	}
}

// TestSleepOrDone covers both outcomes: cancellation before the
// deadline, and deadline expiry.
func TestSleepOrDone(t *testing.T) {
	res := runUnder(t, NewFirstChooser(), func(s *Sched) {
		done := make(chan struct{})
		s.Go("sleeper", func() {
			cancelled, handled := SleepOrDone(time.Second, done)
			if !handled || !cancelled {
				s.Failf("want cancelled wake, got cancelled=%v handled=%v", cancelled, handled)
			}
			cancelled, _ = SleepOrDone(time.Millisecond, make(chan struct{}))
			if cancelled {
				s.Failf("deadline expiry misreported as cancellation")
			}
		})
		s.Go("canceller", func() {
			Sleep(10 * time.Millisecond)
			close(done)
		})
	})
	if res.Failure != nil {
		t.Fatalf("failure: %v", res.Failure)
	}
}

// TestHooksInertWithoutScheduler: every hook must fall through when no
// scheduler is installed.
func TestHooksInertWithoutScheduler(t *testing.T) {
	if Enabled() {
		t.Fatal("scheduler unexpectedly installed")
	}
	Point("noop")
	if _, ok := Now(); ok {
		t.Fatal("Now handled without scheduler")
	}
	if Sleep(time.Hour) {
		t.Fatal("Sleep handled without scheduler")
	}
	if _, handled := SleepOrDone(time.Hour, nil); handled {
		t.Fatal("SleepOrDone handled without scheduler")
	}
	if _, handled := WaitOrDone("x", func() bool { return true }, nil); handled {
		t.Fatal("WaitOrDone handled without scheduler")
	}
	var mu sync.Mutex
	if LockMutex(&mu) || UnlockMutex(&mu) {
		t.Fatal("mutex hooks handled without scheduler")
	}
	if _, ok := AfterFunc(time.Hour, func() {}); ok {
		t.Fatal("AfterFunc handled without scheduler")
	}
}
