// Package barging provides the unfair sleeping mutex the real-time
// experiments compare scl's locks against (paper §3): it guarantees no
// fairness at all, and so exhibits scheduler subversion under asymmetric
// critical sections.
package barging

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Mutex is an unfair sleeping mutex in the style of a pthread mutex: a
// free lock goes to whoever CASes first, and woken waiters race (and
// usually lose) against running threads. One thread with a short
// non-critical section can dominate it indefinitely (paper Figure 2a).
//
// Go's sync.Mutex enters a "starvation mode" that hands the lock to the
// oldest waiter after 1ms, which hides exactly the pathology the paper
// studies — hence this explicit barging implementation.
type Mutex struct {
	mu      sync.Mutex // protects waiters
	state   atomic.Int32
	waiters []chan struct{}
}

// Lock acquires the mutex, sleeping (after a brief spin) while contended.
func (l *Mutex) Lock() {
	// Brief active phase: barge if possible.
	for i := 0; i < 16; i++ {
		if l.state.CompareAndSwap(0, 1) {
			return
		}
		runtime.Gosched()
	}
	for {
		if l.state.CompareAndSwap(0, 1) {
			return
		}
		ch := make(chan struct{}, 1)
		l.mu.Lock()
		// Re-check after registering, or a concurrent Unlock may have
		// missed us.
		if l.state.CompareAndSwap(0, 1) {
			l.mu.Unlock()
			return
		}
		l.waiters = append(l.waiters, ch)
		l.mu.Unlock()
		<-ch
		// Woken: race again from the start (barging semantics).
	}
}

// Unlock releases the mutex and wakes one waiter, if any. The waiter must
// still win the race against running threads.
func (l *Mutex) Unlock() {
	if !l.state.CompareAndSwap(1, 0) {
		panic("barging: Mutex.Unlock of unlocked lock")
	}
	l.mu.Lock()
	if len(l.waiters) > 0 {
		ch := l.waiters[0]
		l.waiters = l.waiters[1:]
		ch <- struct{}{}
	}
	l.mu.Unlock()
}

var _ sync.Locker = (*Mutex)(nil)
