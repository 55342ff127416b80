package scl

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"scl/internal/check"
	"scl/internal/core"
	"scl/trace"
)

// Combining critical sections (DESIGN.md §9). Handle.Do lets a contended
// caller publish its critical section into a lock-free stack instead of
// queueing for a grant: the current holder, on its way out of the lock,
// drains a bounded batch and executes the closures itself while it still
// owns the held bit — one lock handoff amortized over the whole batch.
// SCL accounting makes this fair, not just fast: the combiner times each
// closure and FoldBatch charges every publishing entity its own measured
// critical-section time, with the same immediate penalty decision a
// zero-slice release would make, so usage shares and bans come out
// exactly as if each entity had acquired the lock itself.

// combineBatch bounds how many published critical sections one releasing
// holder executes before handing the lock on. The bound keeps any single
// release from turning into an unbounded servant loop (the combiner is a
// caller that wants to leave); overflow stays published for the next
// releasing holder.
const combineBatch = 16

// combineSpin is how many cooperative-yield rounds a publisher spins
// before parking on its wake channel. Spinning keeps the common
// publish→drain round trip futex-free; the bound keeps a crowd of
// publishers from burning CPU while a long critical section runs.
// Spinning only pays when another CPU can make progress in the
// meantime (the same rule sync.Mutex's active spin uses): on a
// single-CPU configuration every yield just rotates the run queue, so
// publishers park immediately instead.
const combineSpin = 96

// combineSpinBudget returns the publisher spin bound for the current
// processor configuration.
func combineSpinBudget() int {
	if runtime.NumCPU() > 1 && runtime.GOMAXPROCS(0) > 1 {
		return combineSpin
	}
	return 0
}

// States of a published critical section. Exactly-once execution hangs on
// the two CAS edges out of combinePending: a combiner claims
// pending→claimed and runs the closure, or the publisher withdraws
// pending→cancelled (the lock went idle under it) and runs the closure
// itself on the classic path. Exactly one of the two CASes can win.
const (
	combinePending   = int32(iota) // published, unclaimed
	combineClaimed                 // a combiner owns it and will execute it
	combineCancelled               // the publisher withdrew it (self-serve)
	combineRejected                // the combiner declined it (banned entity)
	combineDone                    // executed, charges booked
)

// combineReq is one published critical section on the combining stack.
type combineReq struct {
	next  atomic.Pointer[combineReq]
	h     *Handle
	fn    func()
	state atomic.Int32
	wake  chan struct{} // buffered(1): at most one pending signal
	reqAt time.Duration // publish time, for wait-time stats
	// start/end are written by the combiner before state→done (the
	// done-store publishes them to the waiting publisher).
	start, end time.Duration
}

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
	m := h.m
	if m.fastLock(h) {
		fn()
		if m.fastUnlock(h) {
			return
		}
		m.unlockSlow(h)
		return
	}
	m.doSlow(h, fn)
}

// doSlow is Do off the owner fast path: publish into the combining stack
// when someone holds the lock (they will execute fn on their way out),
// otherwise fall back to the classic acquire.
func (m *Mutex) doSlow(h *Handle, fn func()) {
	if m.word.Load()&(wordHeld|wordTransfer) == 0 {
		m.doClassic(h, fn)
		return
	}
	r := &combineReq{h: h, fn: fn, wake: make(chan struct{}, 1), reqAt: monotime()}
	for {
		old := m.combine.Load()
		r.next.Store(old)
		// The push races the holder's drain swap and other publishers —
		// the decision site the checker reorders.
		check.Point("mu.combine.publish")
		if m.combine.CompareAndSwap(old, r) {
			break
		}
	}
	if m.combineWait(r) {
		return // a combiner executed fn and booked the charge
	}
	// Withdrawn (the lock went idle under us) or rejected (banned; the
	// classic path serves the penalty out): run the section ourselves.
	m.doClassic(h, fn)
}

// doClassic is Do through the ordinary acquire path.
func (m *Mutex) doClassic(h *Handle, fn func()) {
	h.Lock()
	fn()
	h.Unlock()
}

// combineWait blocks until the published request is resolved: executed by
// a combiner (true), or bounced back to the caller (false) because the
// combiner rejected it or the lock went idle with the request still
// unclaimed. The liveness argument for parking: every transition the
// publisher must act on (done, rejected) sends on wake, and every release
// path that leaves the lock idle wake-walks the stack (wakeCombiners), so
// a parked publisher always has a signal coming. The withdraw CAS
// resolves the race between "lock went idle" and "a combiner claimed it"
// — exactly one side wins the pending state.
func (m *Mutex) combineWait(r *combineReq) bool {
	if _, handled := check.WaitOrDone("mu.combine.wait", func() bool {
		s := r.state.Load()
		return s != combinePending && s != combineClaimed ||
			s == combinePending && m.word.Load()&(wordHeld|wordTransfer) == 0
	}, nil); handled {
		// Deterministic checker: the predicate parked us until the request
		// resolved or the lock went idle under a still-pending request.
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
			default: // claimed in the withdraw window: execution is imminent
				check.WaitOrDone("mu.combine.claimed", func() bool {
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
			if m.word.Load()&(wordHeld|wordTransfer) == 0 {
				// The lock went idle with our request unclaimed: withdraw
				// and self-serve. A lost CAS means a combiner claimed it
				// in the window; loop and wait for the execution.
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

// wakeCombiners wake-walks the combining stack after the lock went idle:
// still-pending publishers are signalled so they observe the free lock
// and withdraw to the classic path (nobody is coming to drain them).
// Safe without m.mu — it only reads the stack and sends non-blocking
// signals. The seq-cst ordering argument that no publisher is missed: a
// publisher pushes only after loading a held/transfer word, so if its
// push is not visible to this walk, the push (and the publisher's next
// predicate check) follows the release that made the lock idle — the
// publisher sees the free word itself and self-serves without a signal.
func (m *Mutex) wakeCombiners() {
	r := m.combine.Load()
	if r == nil || m.word.Load()&(wordHeld|wordTransfer) != 0 {
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

// takeCombineBatch claims up to combineBatch pending requests off the
// combining stack (newest first — the stack is LIFO; per-entity fairness
// comes from the accounting, not grant order), rejects requests of
// banned entities (their classic fallback serves the ban out), drops
// withdrawn ones, and re-publishes the overflow for the next combiner.
// m.mu held; the caller owns the held bit.
func (m *Mutex) takeCombineBatch(now time.Duration) []*combineReq {
	check.Point("mu.combine.drain")
	head := m.combine.Swap(nil)
	if head == nil {
		return nil
	}
	var batch []*combineReq
	var overflow []*combineReq
	for r := head; r != nil; r = r.next.Load() {
		switch {
		case r.state.Load() != combinePending:
			// Withdrawn (cancelled) — the publisher self-serves; drop it.
		case m.acct.BannedUntil(r.h.id) > now:
			r.state.Store(combineRejected)
			select {
			case r.wake <- struct{}{}:
			default:
			}
		case len(batch) < combineBatch:
			if r.state.CompareAndSwap(combinePending, combineClaimed) {
				batch = append(batch, r)
			}
			// A lost CAS is a concurrent withdraw — drop it.
		default:
			overflow = append(overflow, r)
		}
	}
	// Re-publish the overflow, oldest first, so the stack order the next
	// combiner sees matches the original. New publishers may have pushed
	// since the swap; the CAS loop interleaves with them.
	for i := len(overflow) - 1; i >= 0; i-- {
		r := overflow[i]
		for {
			old := m.combine.Load()
			r.next.Store(old)
			if m.combine.CompareAndSwap(old, r) {
				break
			}
		}
	}
	return batch
}

// drainCombine executes a batch of published critical sections while the
// releasing holder still owns the held bit: the closures run outside m.mu
// (they are user code) with the held word providing mutual exclusion,
// then the measured times are folded into the accountant, stats and
// tracer in one re-locked step — per-entity acquire/release bookings at
// the closures' real timestamps, immediate ChargeWindow-style penalties,
// and one combine event identifying the combiner. Returns the post-drain
// clock for the caller's boundary logic. m.mu held on entry and exit.
func (m *Mutex) drainCombine(combiner *Handle, now time.Duration) time.Duration {
	batch := m.takeCombineBatch(now)
	if len(batch) == 0 {
		return now
	}
	// Claimed requests leave the stack; park them where Close and the GC
	// (entityCombining) still see them while m.mu is released below.
	m.draining = batch
	m.unlockMu()
	var total time.Duration
	ran := 0
	// Do closures are documented as must-not-panic, but an escaped panic
	// (or runtime.Goexit) in one would otherwise wedge the whole lock:
	// m.mu is released, m.draining is populated, the claimed publishers
	// are parked with no resolution coming, and the held bit stays up.
	// Fail loudly instead of wedging: resolve the batch, retire the held
	// word, and let the panic continue scl-identified. The failed batch's
	// charges are dropped — fairness bookkeeping is best-effort on a path
	// that is already a contract violation.
	defer func() {
		if ran == len(batch) {
			return // every closure completed; the booking below ran normally
		}
		pv := recover()
		m.lockMu()
		m.draining = nil
		for i, r := range batch {
			if i <= ran {
				// Executed (the ran'th closure is the one that blew up):
				// exactly-once forbids a classic-path re-run, so resolve it
				// as done, uncharged.
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
		// Retire the held bit and run the boundary so the lock outlives
		// the panic; unlockSlow's remaining release logic is skipped by the
		// unwind (its deferred wakeCombiners/unlockMu still run, balanced
		// by the lockMu above).
		m.mutate(func(w uint64) uint64 { return w &^ wordHeld })
		m.transferLocked(monotime())
		if pv != nil {
			panic(fmt.Sprintf("scl: Handle.Do critical section panicked: %v", pv))
		}
		// pv == nil means runtime.Goexit: the unwind continues on its own.
	}()
	at := monotime()
	for _, r := range batch {
		r.start = at
		r.fn()
		at = monotime()
		r.end = at
		total += r.end - r.start
		ran++
	}
	m.lockMu()
	m.draining = nil
	now = monotime()
	m.tracer.emit(trace.KindCombine, now, int64(combiner.id), combiner.name, total)
	m.stats.onCombine(int64(combiner.id), int64(len(batch)))
	charges := make([]core.Charge, len(batch))
	for i, r := range batch {
		charges[i] = core.Charge{ID: r.h.id, Usage: r.end - r.start}
	}
	pens := m.acct.FoldBatch(charges, now)
	for i, r := range batch {
		id, name := r.h.id, r.h.name
		wait := r.start - r.reqAt
		if wait < 0 {
			wait = 0
		}
		m.stats.onCombinedOp(int64(id), name, r.start, r.end, wait)
		m.tracer.emit(trace.KindAcquire, r.start, int64(id), name, wait)
		m.tracer.emit(trace.KindRelease, r.end, int64(id), name, r.end-r.start)
		if pens[i] > 0 {
			m.stats.onBan(int64(id), pens[i])
			m.tracer.emit(trace.KindBan, r.end, int64(id), name, pens[i])
		}
	}
	// Release the publishers only after their charges are booked, so a
	// publisher that immediately re-acquires observes its own usage (and
	// any fresh ban) on the books.
	check.Point("mu.combine.handoff")
	for _, r := range batch {
		r.state.Store(combineDone)
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
	// Entities whose last handle closed while their closure was in flight
	// deferred their unregistration to this completion.
	for _, r := range batch {
		m.dropGhostLocked(r.h.id, now)
	}
	return now
}

// entityCombining reports whether entity id has a published critical
// section still awaiting execution (pending or claimed). Close and the
// inactive-entity GC treat such an entity as in flight. m.mu held (the
// stack may gain nodes concurrently, but never lose them without m.mu).
func (m *Mutex) entityCombining(id core.ID) bool {
	for r := m.combine.Load(); r != nil; r = r.next.Load() {
		if r.h.id != id {
			continue
		}
		if s := r.state.Load(); s == combinePending || s == combineClaimed {
			return true
		}
	}
	for _, r := range m.draining {
		if r.h.id == id && r.state.Load() == combineClaimed {
			return true
		}
	}
	return false
}

// debugCheckCombineQuiet asserts (under scldebug) that no claimed request
// sits in the combining stack at a slice boundary: drains complete — every
// claimed closure executed and booked — before ownership transfers.
// m.mu held.
func (m *Mutex) debugCheckCombineQuiet() {
	if !debugChecks {
		return
	}
	for r := m.combine.Load(); r != nil; r = r.next.Load() {
		if r.state.Load() == combineClaimed {
			debugFail("combining queue has a claimed request at a slice boundary")
		}
	}
}
