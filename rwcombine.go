package scl

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"scl/internal/check"
	"scl/trace"
)

// Writer-side combining for the RW-SCL (DESIGN.md §9). RWLock.Do is the
// class analogue of Handle.Do: a writer that finds another writer active
// publishes its critical section instead of queueing for the write
// phase, and the active writer executes a bounded batch on its way out,
// while the writer-active bit still excludes both classes. Charging is
// simpler than the mutex's: the class is the schedulable entity, so the
// interval accounting (charge) books the drain's wall-clock automatically
// as writer hold — there is no per-entity batch to fold.

// rwCombineReq is one published writer critical section.
type rwCombineReq struct {
	next  atomic.Pointer[rwCombineReq]
	fn    func()
	state atomic.Int32  // combinePending/Claimed/Cancelled/Done
	wake  chan struct{} // buffered(1)
	since time.Duration // publish time, for the acquire event's wait detail
}

// Do runs fn while holding the lock exclusive, like WLock(); fn();
// WUnlock(), but when another writer is active the critical section may
// be executed by that writer on the caller's behalf instead of waiting
// for the write phase's next grant. fn runs exactly once, under full
// mutual exclusion (no reader or writer concurrently), and its run time
// is charged to the writer class either way. fn must not use this RWLock
// and must not panic; it may run on another writer's goroutine. A panic
// that escapes fn anyway is re-raised, scl-identified, on whichever
// goroutine ran the closure; the lock itself stays usable.
func (l *RWLock) Do(fn func()) {
	now := monotime()
	if l.fastWLock(now) {
		fn()
		l.WUnlock()
		return
	}
	if l.word.Load()&rwWActive == 0 {
		l.doClassic(fn)
		return
	}
	r := &rwCombineReq{fn: fn, wake: make(chan struct{}, 1), since: now}
	for {
		old := l.wcombine.Load()
		r.next.Store(old)
		check.Point("rw.combine.publish")
		if l.wcombine.CompareAndSwap(old, r) {
			break
		}
	}
	if l.combineWait(r) {
		return
	}
	l.doClassic(fn)
}

// doClassic is Do through the ordinary write acquire.
func (l *RWLock) doClassic(fn func()) {
	l.WLock()
	fn()
	l.WUnlock()
}

// combineWait blocks until the request is executed (true) or must be
// self-served (false: the writer-active bit cleared with the request
// still unclaimed — nobody is coming to drain it — or the drain bounced
// it back because an earlier closure in the batch panicked). Same
// protocol as the mutex publisher's wait; see Mutex.combineWait.
func (l *RWLock) combineWait(r *rwCombineReq) bool {
	if _, handled := check.WaitOrDone("rw.combine.wait", func() bool {
		s := r.state.Load()
		return s != combinePending && s != combineClaimed ||
			s == combinePending && l.word.Load()&rwWActive == 0
	}, nil); handled {
		for {
			switch r.state.Load() {
			case combineDone:
				return true
			case combineRejected:
				return false
			case combinePending:
				if r.state.CompareAndSwap(combinePending, combineCancelled) {
					return false
				}
			default: // claimed: execution is imminent
				check.WaitOrDone("rw.combine.claimed", func() bool {
					return r.state.Load() >= combineCancelled
				}, nil)
			}
		}
	}
	budget := combineSpinBudget()
	for spins := 0; ; {
		switch r.state.Load() {
		case combineDone:
			return true
		case combineRejected:
			return false
		case combinePending:
			if l.word.Load()&rwWActive == 0 {
				if r.state.CompareAndSwap(combinePending, combineCancelled) {
					return false
				}
				continue
			}
		}
		if spins < budget {
			spins++
			runtime.Gosched()
			continue
		}
		<-r.wake
	}
}

// wakeWCombiners wake-walks the writer combining stack once no writer is
// active, so still-pending publishers observe the clear bit and withdraw
// to the classic path. Safe without l.mu (reads and non-blocking sends
// only); the ordering argument mirrors Mutex.wakeCombiners.
func (l *RWLock) wakeWCombiners() {
	r := l.wcombine.Load()
	if r == nil || l.word.Load()&rwWActive != 0 {
		return
	}
	for ; r != nil; r = r.next.Load() {
		if r.state.Load() == combinePending {
			select {
			case r.wake <- struct{}{}:
			default:
			}
		}
	}
}

// drainWCombine executes a batch of published writer sections while the
// caller still owns the writer-active bit, then books them: the interval
// accounting charges the drain as writer hold when the caller's release
// charge lands, so only the op count and events need explicit handling.
// l.mu held on entry and exit; returns the post-drain clock.
func (l *RWLock) drainWCombine(now time.Duration) time.Duration {
	check.Point("rw.combine.drain")
	head := l.wcombine.Swap(nil)
	if head == nil {
		return now
	}
	var batch []*rwCombineReq
	var overflow []*rwCombineReq
	for r := head; r != nil; r = r.next.Load() {
		switch {
		case r.state.Load() != combinePending:
			// Withdrawn — the publisher self-serves; drop it.
		case len(batch) < combineBatch:
			if r.state.CompareAndSwap(combinePending, combineClaimed) {
				batch = append(batch, r)
			}
		default:
			overflow = append(overflow, r)
		}
	}
	for i := len(overflow) - 1; i >= 0; i-- {
		r := overflow[i]
		for {
			old := l.wcombine.Load()
			r.next.Store(old)
			if l.wcombine.CompareAndSwap(old, r) {
				break
			}
		}
	}
	if len(batch) == 0 {
		return now
	}
	l.unlockMu()
	var total time.Duration
	type span struct{ start, end time.Duration }
	var spans []span // per-closure times, kept only while traced
	if l.tracer.on() {
		spans = make([]span, len(batch))
	}
	ran := 0
	// Same contract-violation backstop as Mutex.drainCombine: a closure
	// that panics (or Goexits) would otherwise leave the writer-active
	// bit up and the claimed publishers parked forever, with the unwind
	// skipping WUnlock's remaining release logic. Resolve the batch,
	// close out the write phase, and let the panic continue
	// scl-identified.
	defer func() {
		if ran == len(batch) {
			return // every closure completed; the booking below ran normally
		}
		pv := recover()
		for i, r := range batch {
			if i <= ran {
				// Executed (including the closure that blew up): resolve as
				// done — exactly-once forbids a classic-path re-run.
				r.state.Store(combineDone)
			} else {
				// Never started: bounce it to the classic path.
				r.state.Store(combineRejected)
			}
			select {
			case r.wake <- struct{}{}:
			default:
			}
		}
		l.lockMu()
		now := monotime()
		l.charge(0, true, now) // the drain ran inside the writer-active window
		l.mutateWord(func(x uint64) uint64 { return x &^ rwWActive })
		l.advanceLocked(now)
		l.unlockMu()
		l.wakeWCombiners()
		if pv != nil {
			panic(fmt.Sprintf("scl: RWLock.Do critical section panicked: %v", pv))
		}
		// pv == nil means runtime.Goexit: the unwind continues on its own.
	}()
	at := monotime()
	for i, r := range batch {
		start := at
		r.fn()
		at = monotime()
		if spans != nil {
			spans[i] = span{start, at}
		}
		total += at - start
		ran++
	}
	l.lockMu()
	now = monotime()
	// The closures ran inside the caller's writer-active window, so the
	// caller's next charge(0, true, ...) books the drain as writer hold;
	// only ops and events remain.
	l.writerOps.Add(int64(len(batch)))
	l.writerCombines.Add(int64(len(batch)))
	if spans != nil {
		l.tracer.emit(trace.KindCombine, now, trace.EntityWriters, "", total)
		for i, r := range batch {
			wait := spans[i].start - r.since
			if wait < 0 {
				wait = 0
			}
			l.tracer.emit(trace.KindAcquire, spans[i].start, trace.EntityWriters, "", wait)
			l.tracer.emit(trace.KindRelease, spans[i].end, trace.EntityWriters, "", spans[i].end-spans[i].start)
		}
	}
	check.Point("rw.combine.handoff")
	for _, r := range batch {
		r.state.Store(combineDone)
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
	return now
}
