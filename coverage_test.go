package scl

import (
	"sync"
	"testing"
	"time"

	"scl/internal/barging"
)

// Tests covering the less-travelled paths: panic branches of the barging
// baseline the experiments compare against, contended waiter paths, and
// the remaining stats helpers.

func TestBargingMutexUnlockUnlockedPanics(t *testing.T) {
	var l barging.Mutex
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	l.Unlock()
}

func TestBargingMutexContendedSleepPath(t *testing.T) {
	// Force the slow path: hold the lock long enough that a second locker
	// exhausts its spin budget and parks, then gets woken.
	var l barging.Mutex
	l.Lock()
	done := make(chan struct{})
	go func() {
		l.Lock()
		l.Unlock()
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // well past the spin budget
	l.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parked waiter never woke")
	}
}

func TestRegisterNiceWeights(t *testing.T) {
	m := NewMutex(Options{})
	h := m.RegisterNice(-3)
	if h.weight != 1991 {
		t.Fatalf("nice -3 weight = %d, want 1991", h.weight)
	}
	h0 := m.RegisterNice(0)
	if h0.weight != 1024 {
		t.Fatalf("nice 0 weight = %d", h0.weight)
	}
}

func TestStatsJainLOT(t *testing.T) {
	m := NewMutex(Options{})
	a := m.Register()
	b := m.Register()
	// Spin rather than sleep: a 2ms sleep can overshoot to several ms on
	// a loaded host, which makes the two holds genuinely unequal.
	a.Lock()
	spinFor(2 * time.Millisecond)
	a.Unlock()
	b.Lock()
	spinFor(2 * time.Millisecond)
	b.Unlock()
	s := m.Stats()
	if j := s.JainLOT(a.ID(), b.ID()); j < 0.9 {
		t.Fatalf("JainLOT = %.3f for symmetric usage", j)
	}
}

func TestRWLockWriterQueuedBehindWriter(t *testing.T) {
	// Two writers contending covers WLock's queued path.
	l := NewRWLock(1, 1, time.Millisecond)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	l.WLock()
	for i := 1; i <= 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.WLock()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			time.Sleep(time.Millisecond)
			l.WUnlock()
		}()
	}
	time.Sleep(10 * time.Millisecond)
	l.WUnlock()
	wg.Wait()
	if len(order) != 2 {
		t.Fatalf("writers completed: %v", order)
	}
}
