package scl

import (
	"slices"
	"time"

	"scl/internal/check"
	"scl/internal/core"
	"scl/trace"
)

// Combining critical sections (DESIGN.md §9). Handle.Do is
// Lock(); fn(); Unlock() with one difference: a Do caller that finds the
// lock held queues a waiter carrying its closure, and the holder, on its
// way out of the lock, takes a bounded batch of those waiters off the
// queue and executes the closures itself while it still owns the held
// bit — one lock handoff amortized over the whole batch. A closure waiter
// the holder does not take is granted like any other waiter and runs its
// own closure. SCL accounting makes this fair, not just fast: the
// combiner times each closure and FoldBatch charges every entity its own
// measured critical-section time, with the same immediate penalty
// decision a zero-slice release would make, so usage shares and bans come
// out exactly as if each entity had acquired the lock itself.

// combineBatch bounds how many queued closures one releasing holder
// executes before handing the lock on. The bound keeps any single release
// from turning into an unbounded servant loop (the combiner is a caller
// that wants to leave); the rest stay queued for the next release or an
// ordinary grant.
const combineBatch = 16

// Do runs fn while holding the mutex, like Lock(); fn(); Unlock(), but
// under contention the critical section may be executed by the current
// lock holder on the caller's behalf (possibly on another goroutine)
// instead of waiting for an ownership grant. Either way fn runs exactly
// once, under mutual exclusion, and the handle's entity is charged the
// closure's measured run time — combined execution changes who runs the
// section, never who pays for it, so bans and fairness are identical to
// the classic path. A banned entity's Do first serves out its penalty.
//
// fn must not use this Mutex (or any of its Handles) and must not panic;
// it may run on the goroutine of an unrelated lock user. A panic that
// escapes fn anyway is re-raised, scl-identified, on whichever goroutine
// ran the closure; the lock itself stays usable.
func (h *Handle) Do(fn func()) {
	if !h.m.fastLock(h) {
		if ran, _ := h.m.lockSlow(h, nil, fn); ran {
			return // a combiner executed fn and booked the charge
		}
	}
	fn()
	h.Unlock()
}

// takeCombineBatch detaches up to combineBatch queued closure waiters,
// newest first (per-entity fairness comes from the accounting, not grant
// order). Waiters of entities banned since they queued are rejected
// instead: like every rejected waiter, they continue on the classic path
// — lockSlow's ban loop, then an ordinary acquire. m.mu held; the caller
// owns the held bit, so no grant is in flight to any waiter, and has
// established closureQueued.
func (m *Mutex) takeCombineBatch(now time.Duration) []*waiter {
	check.Point("mu.combine.drain")
	var batch []*waiter
	m.detachClosures(func(w *waiter) bool {
		switch {
		case m.acct.BannedUntil(w.h.id) > now:
			w.resolve(waitRejected)
		case len(batch) < combineBatch:
			batch = append(batch, w)
		default:
			return false
		}
		return true
	})
	return batch
}

// rejectStranded returns the closure waiters still queued when a release
// leaves the lock idle to the classic path: no holder is coming to run
// them, so each caller acquires for itself, exactly as the simulator's
// u-SCL (sim.USCL) models Do. m.mu held.
func (m *Mutex) rejectStranded() {
	if m.closureQueued() {
		m.detachClosures(func(w *waiter) bool { w.resolve(waitRejected); return true })
	}
}

// detachClosures removes from the queue, newest first, the closure
// waiters for which take reports true. The caller has established
// closureQueued. m.mu held.
func (m *Mutex) detachClosures(take func(*waiter) bool) {
	for i := len(m.parked) - 1; i >= 0; i-- {
		if w := m.parked[i]; w.fn != nil && take(w) {
			m.parked[i] = nil
		}
	}
	if m.next.fn != nil && take(m.next) {
		m.next = nil
	}
	m.parked = slices.DeleteFunc(m.parked, func(w *waiter) bool { return w == nil })
	m.promoteHead()
	m.syncWaitersBit()
}

// closureQueued reports whether a Handle.Do waiter is queued. m.mu held.
func (m *Mutex) closureQueued() bool {
	if m.next == nil {
		return false
	}
	if m.next.fn != nil {
		return true
	}
	for _, w := range m.parked {
		if w.fn != nil {
			return true
		}
	}
	return false
}

// drainCombine executes a batch of queued closures (closureQueued holds)
// while the releasing holder still owns the held bit: the closures run
// outside m.mu (they are user code) with the held word providing mutual
// exclusion, then the measured times are folded into the accountant,
// stats and tracer in one re-locked step — per-entity acquire/release
// bookings at the closures' real timestamps, immediate ChargeWindow-style
// penalties, and one combine event identifying the combiner. Returns the
// post-drain clock for the caller's boundary logic. m.mu held on entry and
// exit.
func (m *Mutex) drainCombine(combiner *Handle, now time.Duration) time.Duration {
	batch := m.takeCombineBatch(now)
	if len(batch) == 0 {
		return now
	}
	// The batch has left the queue; park it where Close and the GC
	// (entityQueued) still see it while m.mu is released below.
	m.draining = batch
	m.unlockMu()
	at := runBatch("Handle.Do", len(batch), func(i int) { batch[i].fn() }, func(ran int) {
		m.lockMu()
		m.draining = nil
		for i, w := range batch {
			if i <= ran {
				w.resolve(waitRan)
			} else {
				m.enqueue(w)
			}
		}
		// Retire the held bit and run the boundary so the lock outlives the
		// failure; unlockSlow's remaining release logic is skipped by the
		// unwind (its deferred unlockMu still runs, balanced by the lockMu
		// above).
		m.mutate(func(w uint64) uint64 { return w &^ wordHeld })
		m.transferLocked(monotime())
	})
	m.lockMu()
	m.draining = nil
	now = monotime()
	m.tracer.emit(trace.KindCombine, now, int64(combiner.id), combiner.name, at[len(batch)]-at[0])
	m.stats.onCombine(int64(combiner.id), int64(len(batch)))
	charges := make([]core.Charge, len(batch))
	for i, w := range batch {
		charges[i] = core.Charge{ID: w.h.id, Usage: at[i+1] - at[i]}
	}
	pens := m.acct.FoldBatch(charges, now)
	for i, w := range batch {
		id, name := w.h.id, w.h.name
		start, end := at[i], at[i+1]
		wait := max(start-w.reqAt, 0)
		m.stats.onCombinedOp(int64(id), name, start, end, wait)
		m.tracer.emit(trace.KindAcquire, start, int64(id), name, wait)
		m.tracer.emit(trace.KindRelease, end, int64(id), name, end-start)
		if pens[i] > 0 {
			m.stats.onBan(int64(id), pens[i])
			m.tracer.emit(trace.KindBan, end, int64(id), name, pens[i])
		}
	}
	// Release the waiters only after their charges are booked, so one
	// that immediately re-acquires observes its own usage (and any fresh
	// ban) on the books.
	check.Point("mu.combine.handoff")
	for _, w := range batch {
		w.resolve(waitRan)
	}
	// Entities whose last handle closed while their closure was in flight
	// deferred their unregistration to this completion.
	for _, w := range batch {
		m.dropGhostLocked(w.h.id, now)
	}
	return now
}

// Writer-side combining for the RW-SCL. RWLock.Do is the class analogue
// of Handle.Do: a writer that finds another writer active queues a
// writer entry carrying its critical section, and the active writer
// executes a bounded batch on its way out, while the writer-active bit
// still excludes both classes. Charging is simpler than the mutex's: the
// class is the schedulable entity, so the interval accounting (charge)
// books the drain's wall-clock automatically as writer hold — there is no
// per-entity batch to fold.

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
	if !l.fastWLock() {
		do := &rwDo{fn: fn}
		if ch, _ := l.wlockSlow(do); ch != nil {
			l.await("rw.wwait", ch, nil)
		}
		if do.ran {
			return // the active writer executed fn
		}
	}
	fn()
	l.WUnlock()
}

// closureQueued reports whether an RWLock.Do entry is queued. l.mu held.
func (l *RWLock) closureQueued() bool {
	return slices.ContainsFunc(l.waitW, func(wt rwWaiter) bool { return wt.do != nil })
}

// takeWCombineBatch detaches up to combineBatch queued writer closures,
// newest first. l.mu held; the caller owns the writer-active bit and has
// established closureQueued.
func (l *RWLock) takeWCombineBatch() []rwWaiter {
	check.Point("rw.combine.drain")
	var batch []rwWaiter
	for i := len(l.waitW) - 1; i >= 0 && len(batch) < combineBatch; i-- {
		if l.waitW[i].do != nil {
			batch = append(batch, l.waitW[i])
			l.waitW = slices.Delete(l.waitW, i, i+1)
		}
	}
	l.syncWaitersBit()
	return batch
}

// drainWCombine executes a batch of queued writer closures (closureQueued
// holds) while the caller still owns the writer-active bit, then books
// them: the interval accounting charges the drain as writer hold when the
// caller's release charge lands, so only the op count and events need
// explicit handling. l.mu held on entry and exit; returns the post-drain
// clock.
func (l *RWLock) drainWCombine(now time.Duration) time.Duration {
	batch := l.takeWCombineBatch()
	l.unlockMu()
	at := runBatch("RWLock.Do", len(batch), func(i int) { batch[i].do.fn() }, func(ran int) {
		// The unwind skips WUnlock's remaining release logic: close out the
		// write phase here.
		l.lockMu()
		for i, wt := range batch {
			if i <= ran {
				wt.do.ran = true
				wt.ch <- struct{}{}
			} else {
				l.waitW = append(l.waitW, wt)
			}
		}
		l.syncWaitersBit()
		now := monotime()
		l.charge(0, true, now) // the drain ran inside the writer-active window
		l.mutateWord(func(x uint64) uint64 { return x &^ rwWActive })
		l.advanceLocked(now)
		l.unlockMu()
	})
	l.lockMu()
	now = monotime()
	// The closures ran inside the caller's writer-active window, so the
	// caller's next charge(0, true, ...) books the drain as writer hold;
	// only ops and events remain.
	l.writerOps.Add(int64(len(batch)))
	l.writerCombines.Add(int64(len(batch)))
	if l.tracer.on() {
		l.tracer.emit(trace.KindCombine, now, trace.EntityWriters, "", at[len(batch)]-at[0])
		for i, wt := range batch {
			start, end := at[i], at[i+1]
			l.tracer.emit(trace.KindAcquire, start, trace.EntityWriters, "", max(start-wt.since, 0))
			l.tracer.emit(trace.KindRelease, end, trace.EntityWriters, "", end-start)
		}
	}
	check.Point("rw.combine.handoff")
	for _, wt := range batch {
		wt.do.ran = true
		wt.ch <- struct{}{}
	}
	return now
}
