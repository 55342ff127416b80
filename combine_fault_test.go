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

// TestDoClosurePanicDoesNotWedge: a Do closure that panics or calls
// runtime.Goexit (documented as forbidden) must fail loudly, not wedge the
// lock. The drain resolves the failing publisher as done, puts unexecuted
// batch-mates back into the waiter queue (exactly-once preserved), and
// leaves the lock usable; a panic is re-raised scl-identified on the
// combiner's goroutine, a Goexit ends that goroutine.
func TestDoClosurePanicDoesNotWedge(t *testing.T) {
	for _, c := range closureFaults {
		t.Run(c.name, func(t *testing.T) {
			m := NewMutex(Options{Slice: 10 * time.Millisecond})
			holder := m.Register()
			innocent := m.Register()
			bomber := m.Register()

			holder.Lock()

			// Queue the innocent section first, the failing one second: the
			// drain takes the newest first, so it executes the bomber first
			// and never reaches the innocent closure.
			var innocentRuns atomic.Int32
			innocentDone := make(chan struct{})
			go func() {
				innocent.Do(func() { innocentRuns.Add(1) })
				close(innocentDone)
			}()
			waitPublished(t, m, 1)
			bomberDone := make(chan struct{})
			go func() {
				bomber.Do(c.fn)
				close(bomberDone)
			}()
			waitPublished(t, m, 2)

			// The release drains the batch; the closure's failure must
			// surface on the releasing goroutine.
			c.check(t, "scl: Handle.Do critical section panicked", holder.Unlock)

			// Both publishers must resolve: the bomber as executed, the
			// innocent requeued and granted (running exactly once).
			for name, ch := range map[string]chan struct{}{"bomber": bomberDone, "innocent": innocentDone} {
				select {
				case <-ch:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s publisher wedged after a batch-mate failed", name)
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
				t.Fatalf("invariants after closure %s: %v", c.name, err)
			}
		})
	}
}

// closureFaults are the two ways a forbidden Do closure can unwind the
// goroutine running it. check runs release — the Unlock that drains the
// failing closure — on a goroutine of its own and fails t unless the
// closure's unwind surfaced there as expected.
var closureFaults = []struct {
	name  string
	fn    func()
	check func(t *testing.T, wantMsg string, release func())
}{
	{"panic", func() { panic("boom") }, func(t *testing.T, wantMsg string, release func()) {
		pv, goexited := unwindOf(release)
		msg, ok := pv.(string)
		if goexited || !ok || !strings.Contains(msg, wantMsg) || !strings.Contains(msg, "boom") {
			t.Fatalf("release ended with panic value %v (Goexit %v), want an scl-identified wrap of the closure panic", pv, goexited)
		}
	}},
	{"Goexit", runtime.Goexit, func(t *testing.T, _ string, release func()) {
		if pv, goexited := unwindOf(release); !goexited {
			t.Fatalf("release ended with panic value %v, want the closure's Goexit to end its goroutine", pv)
		}
	}},
}

// unwindOf runs f on a fresh goroutine and reports how f ended: the value
// of a panic escaping it, or goexited when runtime.Goexit ended the
// goroutine (both zero when f returned).
func unwindOf(f func()) (pv any, goexited bool) {
	done := make(chan struct{})
	go func() {
		returned := false
		defer func() {
			pv = recover()
			goexited = !returned && pv == nil
			close(done)
		}()
		f()
		returned = true
	}()
	<-done
	return pv, goexited
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
// draining writer's goroutine, a Goexiting one ends that goroutine, and
// either way the write phase closes out so both classes can still get in.
func TestRWDoClosurePanicDoesNotWedge(t *testing.T) {
	for _, c := range closureFaults {
		t.Run(c.name, func(t *testing.T) {
			l := NewRWLock(1, 1, 10*time.Millisecond)

			l.WLock()
			done := make(chan struct{})
			go func() {
				l.Do(c.fn)
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

			c.check(t, "scl: RWLock.Do critical section panicked", l.WUnlock)

			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("Do publisher wedged after its closure's %s", c.name)
			}
			// The writer-active bit was retired: both classes still get in.
			l.WLock()
			l.WUnlock()
			l.RLock()
			l.RUnlock()
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("invariants after closure %s: %v", c.name, err)
			}
		})
	}
}
