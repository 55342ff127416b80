package scl

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestAbandonGrantedWakesCombiners pins the liveness contract between the
// cancellation path and queued Handle.Do callers: when a cancelled
// waiter's in-flight grant is re-routed (abandon → regrantLocked), a Do
// caller that queued its closure behind that grant — no holder is coming
// to drain it — must receive the grant and run its own closure. The test
// manufactures the held-clear→transfer-set window directly (a grant to A
// in flight, A not yet resumed), queues a Do caller against it, then
// abandons the grant.
func TestAbandonGrantedWakesCombiners(t *testing.T) {
	// One P, so the queued Do caller is parked on its wake channel (not
	// mid-spin) when the grant is re-routed.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	m := NewMutex(Options{Slice: 10 * time.Millisecond})
	a := m.Register() // the granted-then-cancelled waiter's entity
	p := m.Register() // the publisher

	// A grant to A is in flight: transfer bit up, waiter marked granted,
	// A has not taken the lock yet. This is exactly the state after
	// transferLocked grants the head waiter, before the grantee resumes.
	w := &waiter{h: a, wake: make(chan struct{}, 1)}
	w.state.Store(waitGranted)
	m.lockMu()
	m.next = w
	m.mutate(func(x uint64) uint64 { return x | wordTransfer })
	m.syncWaitersBit()
	m.unlockMu()

	var ran atomic.Bool
	done := make(chan struct{})
	go func() {
		p.Do(func() { ran.Store(true) })
		close(done)
	}()
	// Wait until the section is queued behind A's grant (the transfer bit
	// made the caller bring its closure along); it then parks.
	deadline := time.Now().Add(5 * time.Second)
	for combineStackLen(m) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("publisher never published")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(2 * time.Millisecond)

	// The grantee abandons. regrantLocked hands the grant to the next
	// queued waiter — the Do caller — which then runs its own closure as
	// the holder.
	m.abandon(w, monotime())

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do publisher wedged after its grant's first grantee abandoned it")
	}
	if !ran.Load() {
		t.Fatal("published section never ran")
	}
	// The lock is idle and consistent: plain acquires work for both.
	a.Lock()
	a.Unlock()
	p.Lock()
	p.Unlock()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants after abandon: %v", err)
	}
}

// TestDoClosurePanicDoesNotWedge: a Do closure that panics (documented as
// forbidden) must fail loudly, not wedge the lock. The drain re-raises
// the panic scl-identified on the combiner's goroutine, resolves the
// panicking publisher as done, puts unexecuted batch-mates back into the
// waiter queue (exactly-once preserved), and leaves the lock usable.
func TestDoClosurePanicDoesNotWedge(t *testing.T) {
	m := NewMutex(Options{Slice: 10 * time.Millisecond})
	holder := m.Register()
	innocent := m.Register()
	bomber := m.Register()

	holder.Lock()

	// Queue the innocent section first, the panicking one second: the
	// drain takes the newest first, so it executes the bomber first and
	// never reaches the innocent closure.
	var innocentRuns atomic.Int32
	innocentDone := make(chan struct{})
	go func() {
		innocent.Do(func() { innocentRuns.Add(1) })
		close(innocentDone)
	}()
	waitPublished(t, m, 1)
	bomberDone := make(chan struct{})
	go func() {
		bomber.Do(func() { panic("boom") })
		close(bomberDone)
	}()
	waitPublished(t, m, 2)

	// The release drains the batch on this goroutine; the closure's panic
	// must surface here, identified as a Do contract violation.
	func() {
		defer func() {
			pv := recover()
			if pv == nil {
				t.Fatal("Unlock did not re-raise the Do closure panic")
			}
			msg, ok := pv.(string)
			if !ok || !strings.Contains(msg, "scl: Handle.Do critical section panicked") || !strings.Contains(msg, "boom") {
				t.Fatalf("panic value = %v, want an scl-identified wrap of the closure panic", pv)
			}
		}()
		holder.Unlock()
	}()

	// Both publishers must resolve: the bomber as executed, the innocent
	// requeued and granted (running exactly once).
	for name, ch := range map[string]chan struct{}{"bomber": bomberDone, "innocent": innocentDone} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s publisher wedged after a batch-mate panicked", name)
		}
	}
	if n := innocentRuns.Load(); n != 1 {
		t.Fatalf("innocent section ran %d times, want exactly once", n)
	}
	// The held bit was retired and the boundary ran: the lock survives.
	for _, h := range []*Handle{holder, innocent, bomber} {
		h.Lock()
		h.Unlock()
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants after closure panic: %v", err)
	}
}

// waitPublished polls until n waiters carrying a Do closure are queued.
func waitPublished(t *testing.T, m *Mutex, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if combineStackLen(m) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiter queue never reached %d Do closures", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRWDoClosurePanicDoesNotWedge is the writer-side analogue: a
// panicking RWLock.Do closure is re-raised scl-identified on the
// draining writer's goroutine, and the write phase closes out so both
// classes can still get in.
func TestRWDoClosurePanicDoesNotWedge(t *testing.T) {
	l := NewRWLock(1, 1, 10*time.Millisecond)

	l.WLock()
	done := make(chan struct{})
	go func() {
		l.Do(func() { panic("boom") })
		close(done)
	}()
	queued := func() bool {
		l.lockMu()
		defer l.unlockMu()
		return l.closureQueued()
	}
	deadline := time.Now().Add(5 * time.Second)
	for !queued() {
		if time.Now().After(deadline) {
			t.Fatal("writer section never published")
		}
		time.Sleep(100 * time.Microsecond)
	}

	func() {
		defer func() {
			pv := recover()
			if pv == nil {
				t.Fatal("WUnlock did not re-raise the Do closure panic")
			}
			msg, ok := pv.(string)
			if !ok || !strings.Contains(msg, "scl: RWLock.Do critical section panicked") || !strings.Contains(msg, "boom") {
				t.Fatalf("panic value = %v, want an scl-identified wrap of the closure panic", pv)
			}
		}()
		l.WUnlock()
	}()

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do publisher wedged after its closure panicked")
	}
	// The writer-active bit was retired: both classes still get in.
	l.WLock()
	l.WUnlock()
	l.RLock()
	l.RUnlock()
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("invariants after closure panic: %v", err)
	}
}
