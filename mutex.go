package scl

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scl/internal/check"
	"scl/internal/core"
	"scl/trace"
)

// Mutex is a Scheduler-Cooperative mutual-exclusion lock (the paper's
// u-SCL). Entities register to obtain Handles and lock through them; the
// lock tracks per-entity usage and guarantees each registered entity lock
// opportunity proportional to its weight, regardless of critical-section
// lengths.
//
// Internally it is a K42/MCS-style queue: the head waiter briefly spins
// (next-thread prefetch) while the rest sleep; ownership transfers at lock
// slice boundaries; over-users are banned for the penalty period computed
// by the accounting engine.
//
// # The slice-owner fast path
//
// Re-acquisition by the live slice's owner — the hot path the lock slice
// exists for (paper §4.2, Figure 3) — is a single compare-and-swap on a
// packed 64-bit state word {held, transfer-pending, waiters, slice-stale,
// owner}, with no internal mutex and no clock read. Accounting for those
// operations is deferred: an atomic per-slice accumulator (operation
// count) plus the wall-clock fast window are folded into the accounting
// engine and the stats at slice boundaries, ownership handoffs, and
// Stats snapshots. During its slice the owner is charged the slice's
// wall-clock window — the lock opportunity it denies everyone else —
// rather than per-critical-section time, matching the paper's deferred
// slice accounting. Slice expiry is enforced by the slice timer, which
// marks the state word stale so the owner's next operation falls back to
// the slow path and runs the boundary (transfer, penalty, events).
type Mutex struct {
	opts   Options
	fastOK bool // slices have nonzero length (k-SCL disables the fast path)
	tracer tracerSlot

	// word is the packed fast-path state: {held, transfer, waiters, stale,
	// owner id}. The fast path CASes it without mu; the slow path mutates
	// it under mu with CAS loops that tolerate concurrent fast-path CASes.
	word atomic.Uint64
	// fastOps counts fast-path acquisitions since the last fold.
	fastOps atomic.Int64

	// csStart and fastHeld are owned by the current lock holder (ordered
	// across holders by the word CASes): whether the live hold was taken
	// on the fast path, and its traced start time (0 when untraced).
	csStart  time.Duration
	fastHeld bool

	mu        sync.Mutex // guards all fields below
	acct      *core.Accountant
	draining  []*waiter       // closure waiters a drain is executing outside mu
	refs      map[core.ID]int // handles sharing each entity (Sibling)
	nextReap  time.Duration   // earliest next inactive-entity sweep
	fastSince time.Duration   // start of the open fast window (-1: none)
	// The waiter queue: the head (next-thread) slot plus the parked rest,
	// oldest first. Handle.Do callers queue here too, as waiters carrying
	// their closure (combine.go).
	next   *waiter
	parked []*waiter
	// timer drives slice-end processing (stale-marking a fast-path owner,
	// transferring to waiters, clearing an abandoned slice).
	timer sliceTimer

	stats lockStats
}

// State-word layout. Owner occupies the low bits as id+1 (0 = no owner).
const (
	wordHeld     = 1 << 63 // the lock is held
	wordTransfer = 1 << 62 // a grant to the head waiter is in flight
	wordWaiters  = 1 << 61 // the waiter queue is non-empty
	wordStale    = 1 << 60 // the slice expired; fast path must stand down
	wordOwner    = 1<<60 - 1
)

func ownerBits(id core.ID) uint64 { return (uint64(id) + 1) & wordOwner }

// waiter is one queued Lock or Handle.Do call.
type waiter struct {
	h     *Handle
	state atomic.Int32  // waitQueued until a grant or a drain resolves it
	intra bool          // intra-class handoff: the slice continues
	wake  chan struct{} // buffered(1): at most one pending signal
	reqAt time.Duration // start of the acquire, for wait-time stats
	fn    func()        // Handle.Do's closure, for a releasing holder to run (nil: Lock)
}

// Waiter states. A queued waiter is resolved exactly once, under m.mu.
const (
	waitQueued   = int32(iota)
	waitGranted  // the waiter owns the lock (or a grant to it is in flight)
	waitRan      // a releasing holder ran the waiter's closure (Handle.Do)
	waitRejected // a closure waiter returned to the classic path (combine.go)
)

// NewMutex creates a Scheduler-Cooperative mutex. Any extra Options
// (e.g. WithInactiveGC) are applied on top of opts.
func NewMutex(opts Options, extra ...Option) *Mutex {
	for _, fn := range extra {
		fn(&opts)
	}
	m := &Mutex{
		opts:   opts,
		tracer: tracerSlot{lock: opts.Name},
		fastOK: opts.sliceLen() > 0,
		refs:   make(map[core.ID]int),
		acct: core.NewAccountant(core.Params{
			Slice:           opts.sliceLen(),
			BanCap:          opts.BanCap,
			InactiveTimeout: opts.InactiveTimeout,
		}),
	}
	m.fastSince = -1
	m.timer.fire = m.onSliceTimer
	m.tracer.set(opts.Tracer)
	m.stats.init()
	return m
}

// Name returns the lock's configured label ("" if unnamed).
func (m *Mutex) Name() string { return m.tracer.lock }

// SetTracer installs (or, with nil, removes) a Tracer at runtime, e.g. to
// attach a trace.Ring flight recorder to a live lock. The swap is atomic
// and safe against concurrent fast-path lock operations.
func (m *Mutex) SetTracer(t Tracer) { m.tracer.set(t) }

// Handle is one schedulable entity's endpoint on a Mutex. A Handle must
// not be used concurrently with itself (it represents a single thread of
// control), but distinct Handles may be used concurrently. Handle
// implements sync.Locker.
type Handle struct {
	m      *Mutex
	id     core.ID
	weight int64
	name   string
}

var handleIDs atomic.Int64

// Register adds an entity with the reference (nice-0) weight.
func (m *Mutex) Register() *Handle { return m.RegisterWeight(core.ReferenceWeight) }

// RegisterNice adds an entity whose weight derives from a CFS nice value,
// matching the CPU share a proportional-share scheduler would give it.
func (m *Mutex) RegisterNice(nice int) *Handle {
	return m.RegisterWeight(core.NiceToWeight(nice))
}

// RegisterWeight adds an entity with an explicit weight.
func (m *Mutex) RegisterWeight(weight int64) *Handle {
	h := &Handle{m: m, id: core.ID(handleIDs.Add(1)), weight: weight}
	m.lockMu()
	m.acct.Register(h.id, weight, monotime())
	m.refs[h.id]++
	m.unlockMu()
	return h
}

// Sibling returns a new Handle bound to the same schedulable entity: the
// siblings share lock usage accounting, slices and bans, and so form a
// work-conserving group — while one sibling runs non-critical code,
// another may use the group's lock slice (the paper's §6 class
// generalization: a process, container or tenant with several threads is
// one entity). Each sibling is still a single thread of control.
func (h *Handle) Sibling() *Handle {
	s := &Handle{m: h.m, id: h.id, weight: h.weight, name: h.name}
	h.m.lockMu()
	h.m.refs[h.id]++
	h.m.unlockMu()
	return s
}

// Close releases the handle; the entity is unregistered when its last
// sibling closes. The Handle must not hold the lock. Closing while an
// operation of the entity is still in flight (a queued sibling, a hold
// that was not released) does not corrupt the books: the unregistration
// is deferred to the operation's completion, so no stale weight survives
// in the accounting. Handles that are never closed are reclaimed by the
// inactive-entity GC when WithInactiveGC is configured.
func (h *Handle) Close() {
	m := h.m
	check.Point("mu.close")
	m.lockMu()
	defer m.unlockMu()
	m.refs[h.id]--
	if m.refs[h.id] > 0 {
		return
	}
	delete(m.refs, h.id)
	now := monotime()
	m.fold(now)
	inFlight := m.acct.Holding(h.id) || m.entityQueued(h.id)
	if w := m.word.Load(); !inFlight && w&wordHeld != 0 && w&wordOwner == ownerBits(h.id) {
		// A fast-path hold is in flight (deferred accounting, so the
		// accountant does not see it). Shut it out with the stale bit —
		// its release then takes the slow path and observes the closed
		// refcount — unless the release already landed.
		w = m.mutate(func(x uint64) uint64 { return x | wordStale })
		inFlight = w&wordHeld != 0
	}
	if inFlight {
		// Unregistering now would let the in-flight operation re-register
		// the entity with nobody left to remove it — a permanently stale
		// weight. The final release (or abandonment) runs dropGhostLocked
		// instead, converging to the same books.
		return
	}
	owner, owned := m.acct.SliceOwner()
	if owned && owner == h.id {
		m.fastSince = -1
		m.mutate(func(w uint64) uint64 { return w &^ (wordOwner | wordStale) })
	}
	m.acct.Unregister(h.id)
	m.debugCheckBooks()
	if owned && owner == h.id && m.next != nil &&
		m.word.Load()&(wordHeld|wordTransfer) == 0 {
		// The departing entity owned the slice with other entities'
		// waiters queued behind it (waiting out the slice, not the lock).
		// Its departure ends the slice; hand the free lock over now, or
		// nobody ever will — the slice-end timer bails when no owner is
		// left.
		m.transferLocked(now)
	}
}

// dropGhostLocked finishes an unregistration that Close deferred: once an
// entity with no open handles has no operation in flight (not holding the
// lock, not queued), its accounting state is removed so no stale weight
// survives in totalWeight or grandUsage. m.mu held.
func (m *Mutex) dropGhostLocked(id core.ID, now time.Duration) {
	check.Point("mu.dropghost")
	if _, open := m.refs[id]; open {
		return
	}
	if !m.acct.Registered(id) || m.acct.Holding(id) || m.entityQueued(id) {
		return
	}
	ownedSlice := false
	if w := m.word.Load(); w&wordHeld == 0 && w&wordOwner == ownerBits(id) {
		m.fold(now)
		m.fastSince = -1
		m.mutate(func(x uint64) uint64 { return x &^ (wordOwner | wordStale) })
		ownedSlice = true
	}
	m.acct.Unregister(id)
	m.debugCheckBooks()
	if ownedSlice && m.next != nil &&
		m.word.Load()&(wordHeld|wordTransfer) == 0 {
		// Same as Close: the ghost owned the slice with other entities
		// queued behind it; ending its slice must grant the lock onward.
		m.transferLocked(now)
	}
}

// entityQueued reports whether any waiter of entity id is queued, or has
// its closure executing in a drain. m.mu held.
func (m *Mutex) entityQueued(id core.ID) bool {
	if m.next != nil && m.next.h.id == id {
		return true
	}
	for _, q := range [2][]*waiter{m.parked, m.draining} {
		for _, w := range q {
			if w.h.id == id {
				return true
			}
		}
	}
	return false
}

// queuedIDs collects the entity IDs entityQueued reports (nil when there
// are none). m.mu held.
func (m *Mutex) queuedIDs() map[core.ID]struct{} {
	if m.next == nil && len(m.parked) == 0 && len(m.draining) == 0 {
		return nil
	}
	q := make(map[core.ID]struct{}, len(m.parked)+len(m.draining)+1)
	if m.next != nil {
		q[m.next.h.id] = struct{}{}
	}
	for _, l := range [2][]*waiter{m.parked, m.draining} {
		for _, w := range l {
			q[w.h.id] = struct{}{}
		}
	}
	return q
}

// maybeReap runs the inactive-entity GC (WithInactiveGC; the paper's
// k-SCL reaps per-thread state idle longer than 1s, §4.4). It is lazy —
// piggybacked on slice boundaries and Stats snapshots, no background
// goroutine — and rate-limited to once per quarter threshold, so the
// amortized cost per lock operation is O(1). The accountant drops
// entities idle past the threshold (never holders, the slice owner,
// banned entities, or queued waiters); their sibling refcounts and
// per-entity stats go with them, so all three maps stay proportional to
// the active set. Residual stats of entities that departed via Close are
// swept on the same schedule (with GC off they are kept forever for
// post-run reporting). m.mu held.
func (m *Mutex) maybeReap(now time.Duration) {
	if m.opts.InactiveTimeout <= 0 || now < m.nextReap {
		return
	}
	m.nextReap = now + m.opts.InactiveTimeout/4
	queued := m.queuedIDs()
	reaped := m.acct.ExpireInactive(now, func(id core.ID) bool {
		_, ok := queued[id]
		return ok
	})
	for _, r := range reaped {
		delete(m.refs, r.ID)
		name := m.stats.onReap(int64(r.ID), now)
		m.tracer.emit(trace.KindReap, now, int64(r.ID), name, r.Idle)
	}
	for id, e := range m.stats.entities {
		cid := core.ID(id)
		if e.active != 0 || now-e.settledAt < m.opts.InactiveTimeout ||
			m.acct.Registered(cid) {
			continue
		}
		if _, ok := queued[cid]; ok {
			continue
		}
		idle := now - e.settledAt
		name := m.stats.onReap(id, now)
		m.tracer.emit(trace.KindReap, now, id, name, idle)
	}
	if len(reaped) > 0 {
		m.debugCheckBooks()
	}
}

// debugCheckBooks validates the accountant's bookkeeping invariants under
// the scldebug build tag (compiled out otherwise). Every unregistration
// path — Close, ghost drop, reap — must leave totalWeight and grandUsage
// equal to the sums over the remaining entities.
func (m *Mutex) debugCheckBooks() {
	if !debugChecks {
		return
	}
	if err := m.acct.CheckInvariants(); err != nil {
		debugFail(err.Error())
	}
}

// SetName attaches a label (used by the stats helpers).
func (h *Handle) SetName(name string) *Handle { h.name = name; return h }

// Name returns the handle's label.
func (h *Handle) Name() string { return h.name }

// mutate applies f to the state word (casWord). m.mu held. Returns the
// installed word.
func (m *Mutex) mutate(f func(uint64) uint64) uint64 {
	return casWord(&m.word, "mu.word.mutate", f)
}

// fastLock is the slice owner's lock-free acquire: one CAS on the state
// word, no clock read, deferred accounting. It succeeds only while the
// lock is free, no grant is in flight, and the word names h's entity as
// the live (non-stale) slice owner; queued waiters do not block it — the
// owner may use its slice ahead of them, exactly as in the slow path.
func (m *Mutex) fastLock(h *Handle) bool {
	w := m.word.Load()
	if w&^wordWaiters != ownerBits(h.id) {
		return false
	}
	check.Point("mu.fast.lock")
	if !m.word.CompareAndSwap(w, w|wordHeld) {
		return false
	}
	m.fastHeld = true
	m.fastOps.Add(1)
	if m.tracer.on() {
		now := monotime()
		m.csStart = now
		m.tracer.emit(trace.KindAcquire, now, int64(h.id), h.name, 0)
	} else {
		m.csStart = 0 // a stale start must not leak into a traced release
	}
	return true
}

// fastUnlock releases a fast-path hold: one CAS, provided no waiter
// queued meanwhile (waiters need the slow path's handoff logic, and
// queued Handle.Do closures its drain) and the slice was not marked
// stale by the timer. All holder-owned bookkeeping
// (csStart, fastHeld) happens before the release CAS — after it the next
// holder owns those fields.
func (m *Mutex) fastUnlock(h *Handle) bool {
	if !m.fastHeld {
		return false
	}
	traced := m.tracer.on()
	var now, hold time.Duration
	if traced {
		now = monotime()
		if m.csStart > 0 {
			hold = now - m.csStart
		}
	}
	m.fastHeld = false
	check.Point("mu.fast.unlock")
	if !m.word.CompareAndSwap(wordHeld|ownerBits(h.id), ownerBits(h.id)) {
		m.fastHeld = true // slow path will finish this release
		return false
	}
	if traced {
		m.tracer.emit(trace.KindRelease, now, int64(h.id), h.name, hold)
	}
	return true
}

// Lock acquires the mutex on behalf of the handle's entity. If the entity
// is banned for over-use, Lock first sleeps out the penalty (paper §4.2:
// the penalty is computed at release and imposed at acquire).
func (h *Handle) Lock() {
	m := h.m
	if m.fastLock(h) {
		return
	}
	m.lockSlow(h, nil, nil)
}

// LockContext acquires the mutex like Lock, but gives up when ctx is
// cancelled: it returns ctx.Err() and the lock is NOT held. Cancellation
// interrupts both phases of a blocked acquire — the ban sleep (the paper's
// penalty imposed at acquire) and the waiter queue. An abandoning waiter
// detaches cleanly: its queue slot is removed, an ownership grant that
// raced with the cancellation is re-routed to the next eligible waiter
// rather than lost, and the accounting books end up exactly as if the
// entity had never queued (no usage is charged, bans and slice ownership
// are untouched). A ctx that is already cancelled returns without
// blocking, even when the lock is free.
func (h *Handle) LockContext(ctx context.Context) error {
	m := h.m
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.fastLock(h) {
		return nil
	}
	_, err := m.lockSlow(h, ctx, nil)
	return err
}

// lockSlow is the shared slow path of Lock (ctx == nil: uncancellable),
// LockContext and Handle.Do (fn != nil). It returns holding the lock,
// except when a releasing holder ran fn on the caller's behalf (ran).
func (m *Mutex) lockSlow(h *Handle, ctx context.Context, fn func()) (ran bool, err error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	reqAt := time.Duration(-1) // first clock read inside serveBan
	check.Point("mu.lockslow")
	for {
		now, banned, ok := m.serveBan(h, done, &reqAt)
		if !ok {
			return false, ctx.Err()
		}
		if banned {
			fn = nil // a banned Do continues on the classic path
		}
		// Uncontended path: we own the live slice, or the lock is wholly
		// free. setHeldLocked can lose only to a fast-path sibling; then we
		// queue like anyone else and its release hands the slice over.
		if m.word.Load()&(wordHeld|wordTransfer) == 0 && m.fastEligible(h, now) && m.setHeldLocked() {
			m.acquireLocked(h, now, reqAt)
			m.unlockMu()
			return false, nil
		}
		// Slow path: queue. A Do caller behind a holder (or an in-flight
		// grant) brings its closure along for that holder's release to run.
		w := &waiter{h: h, wake: make(chan struct{}, 1), reqAt: reqAt}
		if fn != nil && m.word.Load()&(wordHeld|wordTransfer) != 0 {
			w.fn = fn
		}
		head := m.enqueue(w)
		m.unlockMu()
		if !w.await(done, head) {
			m.abandon(w, reqAt)
			return false, ctx.Err()
		}
		switch w.state.Load() {
		case waitRan:
			return true, nil
		case waitRejected:
			fn = nil // returned to the classic path (combine.go)
			continue
		}
		m.takeGrant(w, reqAt)
		return false, nil
	}
}

// serveBan sleeps out h's ban, if any (banned), and returns holding
// m.mu together with the clock read taken under it, which the caller
// reuses for the acquire: one clock read per slow-path acquire. It
// returns !ok, without m.mu, when done fires first (the abandonment is
// recorded). *reqAt is set by the first clock read.
func (m *Mutex) serveBan(h *Handle, done <-chan struct{}, reqAt *time.Duration) (now time.Duration, banned, ok bool) {
	for {
		m.lockMu()
		now = monotime()
		if *reqAt < 0 {
			*reqAt = now
		}
		until := m.acct.BannedUntil(h.id)
		if until <= now {
			return now, banned, true
		}
		banned = true
		m.unlockMu()
		// A cancellable acquire must be able to walk away mid-penalty: the
		// ban only makes an uncancellable wait longer.
		if sleepOrDone(until-now, done) {
			m.noteAbandon(h, *reqAt)
			return now, banned, false
		}
	}
}

// enqueue appends w to the waiter queue and raises the waiters bit,
// reporting whether w took the head slot. A closure waiter needs no
// slice-end timer: it queues behind a holder (or a grant in flight)
// whose release drains, grants or rejects it. m.mu held.
func (m *Mutex) enqueue(w *waiter) bool {
	head := m.next == nil
	if head {
		m.next = w
	} else {
		m.parked = append(m.parked, w)
	}
	m.mutate(func(x uint64) uint64 { return x | wordWaiters })
	if head && w.fn == nil {
		m.armSliceEnd()
	}
	return head
}

// takeGrant finalizes ownership for a granted waiter.
func (m *Mutex) takeGrant(w *waiter, reqAt time.Duration) {
	check.Point("mu.granted")
	m.lockMu()
	now := monotime()
	if m.next == w {
		m.next = nil
	}
	if !w.intra {
		// A slice transfer; an intra-class handoff keeps the running slice.
		m.startSlice(w.h.id, now)
	}
	m.promoteHead()
	// Take the lock and retire the grant in one step: the transfer bit
	// must not clear before the held bit is up, or the previous owner's
	// fast path could still see a free word naming it.
	m.mutate(func(x uint64) uint64 { return (x | wordHeld) &^ wordTransfer })
	m.syncWaitersBit()
	m.armSliceEnd() // the transfer bit suppressed arming in startSlice
	m.acquireLocked(w.h, now, reqAt)
	m.unlockMu()
}

// abandon resolves a cancelled waiter under m.mu. A grant that raced with
// the cancellation — the granter already set the transfer bit and marked w
// granted — is re-routed rather than lost: this is exactly the
// held-clear→transfer-set window where a dropped grant would wedge every
// remaining waiter. Either way the caller returns without the lock, and
// the accountant's books look as if w had never queued.
func (m *Mutex) abandon(w *waiter, reqAt time.Duration) {
	check.Point("mu.abandon")
	m.lockMu()
	defer m.unlockMu()
	now := monotime()
	granted := w.state.Load() == waitGranted // stable under m.mu: grants happen under it
	if m.next == w {
		m.next = nil
		m.promoteHead()
	} else {
		for i, p := range m.parked {
			if p == w {
				m.parked = append(m.parked[:i], m.parked[i+1:]...)
				break
			}
		}
	}
	if granted {
		m.regrantLocked(w, now)
	}
	m.syncWaitersBit()
	m.noteAbandonLocked(w.h, now, reqAt)
	m.dropGhostLocked(w.h.id, now)
}

// regrantLocked re-routes an in-flight grant whose grantee w abandoned:
// the transfer bit is up, so no fast path can interfere until the grant is
// either passed on or retired. The next grantee may be a queued Handle.Do
// caller; like any waiter it takes the lock, then runs its own closure.
// m.mu held; w is already detached from the queue.
func (m *Mutex) regrantLocked(w *waiter, now time.Duration) {
	check.Point("mu.regrant")
	if w.intra {
		// An intra-class handoff: the slice is live and belongs to w's
		// entity. Pass the grant to another queued waiter of the class, or
		// retire it the way Unlock leaves an idle live slice — fast window
		// open for the owner, slice-end timer armed for everyone else.
		if owner, ok := m.acct.SliceOwner(); ok {
			if w2 := m.takeClassWaiter(owner); w2 != nil {
				w2.intra = true
				m.handoff(w2, now)
				w2.grant()
				return
			}
		}
		m.mutate(func(x uint64) uint64 { return x &^ wordTransfer })
		if m.fastOK {
			m.fastSince = now
		}
		m.armSliceEnd()
		return
	}
	// A slice transfer: hand it to the new queue head, keeping the
	// transfer bit up throughout (dropping it first would momentarily
	// reopen the expired slice's fast path for the previous owner).
	if m.next != nil {
		m.handoff(m.next, now)
		m.next.grant()
		return
	}
	// Nobody left to grant to: retire the transfer and clear the expired
	// slice in one atomic step, as transferLocked does for an empty queue.
	m.acct.ClearSlice()
	m.mutate(func(x uint64) uint64 { return x &^ (wordTransfer | wordOwner | wordStale) })
}

// noteAbandon records a cancelled acquisition that never queued (a ban
// sleep walked out early).
func (m *Mutex) noteAbandon(h *Handle, reqAt time.Duration) {
	m.lockMu()
	defer m.unlockMu()
	m.noteAbandonLocked(h, monotime(), reqAt)
}

// noteAbandonLocked lands a cancellation in the stats and the event
// stream; the event's detail is the time spent waiting before giving up.
// m.mu held.
func (m *Mutex) noteAbandonLocked(h *Handle, now, reqAt time.Duration) {
	wait := now - reqAt
	if wait < 0 {
		wait = 0
	}
	m.stats.onAbandon(int64(h.id), h.name)
	m.tracer.emit(trace.KindAbandon, now, int64(h.id), h.name, wait)
}

// TryLock attempts to acquire the mutex without blocking and reports
// whether it succeeded. It fails when the handle's entity is banned, the
// lock is held (or a grant is in flight), or other entities are queued —
// a waiter-respecting analogue of sync.Mutex.TryLock. Like Lock, the
// slice owner's re-acquisition is a single CAS.
func (h *Handle) TryLock() bool {
	m := h.m
	// Owner reacquire with nothing queued: pure fast path.
	if m.word.Load() == ownerBits(h.id) && m.fastLock(h) {
		return true
	}
	check.Point("mu.trylock")
	m.lockMu()
	defer m.unlockMu()
	now := monotime()
	if m.acct.BannedUntil(h.id) > now {
		return false
	}
	if m.word.Load()&(wordHeld|wordTransfer) != 0 || m.next != nil || len(m.parked) > 0 {
		return false
	}
	if owner, ok := m.acct.SliceOwner(); ok && owner != h.id && !m.acct.SliceExpired(now) {
		return false // someone else's live slice
	}
	if !m.fastEligible(h, now) {
		// An expired slice with no waiters: run the boundary inline (what
		// the slice timer would do) and take a fresh slice.
		if _, owned := m.acct.SliceOwner(); !owned || !m.acct.SliceExpired(now) {
			return false
		}
		if !m.endIdleSliceLocked(now) {
			return false // a fast-path holder slipped in
		}
		m.startSlice(h.id, now)
	}
	if !m.setHeldLocked() {
		return false // a fast-path sibling got there first
	}
	m.acquireLocked(h, now, now)
	return true
}

// fastEligible reports whether h may take the free lock immediately.
// m.mu held.
func (m *Mutex) fastEligible(h *Handle, now time.Duration) bool {
	owner, ok := m.acct.SliceOwner()
	switch {
	case ok && owner == h.id && !m.acct.SliceExpired(now):
		return true
	case !ok && m.next == nil:
		m.startSlice(h.id, now)
		return true
	}
	return false
}

// startSlice makes id the slice owner beginning at now, mirrors ownership
// into the fast-path state word, and schedules the slice-end timer that
// bounds the fast-path regime. m.mu held.
func (m *Mutex) startSlice(id core.ID, now time.Duration) {
	m.fold(now)
	m.acct.StartSlice(id, now)
	if m.fastOK {
		m.mutate(func(w uint64) uint64 {
			return (w &^ (wordOwner | wordStale)) | ownerBits(id)
		})
	}
	m.armSliceEnd()
}

// setHeldLocked closes an uncontended acquire: a CAS raises the held bit,
// failing if a fast-path acquire (a sibling handle of the slice-owning
// entity) got there first — the caller then queues or bails instead.
// m.mu held.
func (m *Mutex) setHeldLocked() bool {
	for {
		w := m.word.Load()
		if w&wordHeld != 0 {
			return false
		}
		check.Point("mu.setheld")
		if m.word.CompareAndSwap(w, w|wordHeld) {
			return true
		}
	}
}

// acquireLocked books h as holder; the held bit is already up (via
// setHeldLocked or the grant-retiring mutate). m.mu held.
func (m *Mutex) acquireLocked(h *Handle, now, reqAt time.Duration) {
	m.fold(now)
	m.fastSince = -1 // held: the fast window is closed
	m.fastHeld = false
	m.csStart = 0
	if !m.acct.Registered(h.id) {
		// A reaped (or never-registered) entity returning: re-register
		// through the join-credit floor — going idle does not launder
		// accumulated usage beyond JoinCredit. Restore the refcount entry
		// the reap dropped, so Close and the ghost-drop logic keep seeing
		// this entity as open.
		m.acct.Register(h.id, h.weight, now)
		if _, ok := m.refs[h.id]; !ok {
			m.refs[h.id] = 1
		}
	}
	wait := now - reqAt
	if wait < 0 {
		wait = 0
	}
	m.acct.OnAcquire(h.id, now)
	m.stats.onAcquire(int64(h.id), h.name, now, wait)
	m.tracer.emit(trace.KindAcquire, now, int64(h.id), h.name, wait)
}

// fold settles the open fast window: the wall-clock span since the window
// opened is charged to the slice owner as deferred usage, and the batched
// fast-path acquisitions land in the stats. The window then restarts at
// now. m.mu held.
func (m *Mutex) fold(now time.Duration) {
	if m.fastSince < 0 {
		return
	}
	window := now - m.fastSince
	if window < 0 {
		window = 0
	}
	m.fastSince = now
	ops := m.fastOps.Swap(0)
	owner, ok := m.acct.SliceOwner()
	if !ok || (ops == 0 && window == 0) {
		return
	}
	m.acct.FoldSliceUsage(owner, window, now)
	m.stats.fold(int64(owner), window, ops, now)
}

// await blocks until the waiter is resolved (true) or done fires first
// (false; done == nil never fires). The queue head spins briefly
// (next-thread prefetch) before sleeping; others sleep immediately. A
// false return does not mean the grant cannot still land — the caller must
// resolve the race under m.mu (see abandon).
func (w *waiter) await(done <-chan struct{}, head bool) bool {
	if check.Enabled() {
		// Deterministic checker: the scheduler wakes us on grant or
		// cancellation directly; the spin/futex machinery below is real-
		// runtime plumbing with no scheduling decisions of its own. The
		// predicate is built only here: a real-runtime wait allocates none.
		if ok, handled := check.WaitOrDone("mu.await", func() bool { return w.resolved() }, done); handled {
			return ok
		}
	}
	if head {
		for i := 0; i < 64; i++ {
			if w.resolved() {
				return true
			}
			runtime.Gosched()
		}
	}
	for !w.resolved() {
		if done == nil {
			<-w.wake
			continue
		}
		select {
		case <-w.wake:
		case <-done:
			return false
		}
	}
	return true
}

// resolved reports whether a grant or a drain has resolved the waiter.
func (w *waiter) resolved() bool { return w.state.Load() != waitQueued }

// resolve settles the waiter in state s and wakes it. m.mu held.
func (w *waiter) resolve(s int32) {
	w.state.Store(s)
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// grant hands ownership to the waiter. m.mu held.
func (w *waiter) grant() { w.resolve(waitGranted) }

// promoteHead moves the head of the parked queue into the next-thread
// slot and wakes it so it starts spinning (paper Figure 3 step 8).
// m.mu held.
func (m *Mutex) promoteHead() {
	if m.next != nil || len(m.parked) == 0 {
		return
	}
	w := m.parked[0]
	m.parked = m.parked[1:]
	m.next = w
	// Wake it out of its sleep so it can spin / observe grants promptly.
	select {
	case w.wake <- struct{}{}:
	default:
	}
	m.armSliceEnd()
}

// syncWaitersBit reconciles the waiters bit with the queue. m.mu held.
func (m *Mutex) syncWaitersBit() {
	empty := m.next == nil && len(m.parked) == 0
	m.mutate(func(w uint64) uint64 {
		if empty {
			return w &^ wordWaiters
		}
		return w | wordWaiters
	})
}

// Unlock releases the mutex. If the lock slice has expired, ownership
// transfers to the head waiter and the accounting engine may ban this
// entity until others have had their proportional lock opportunity.
func (h *Handle) Unlock() {
	m := h.m
	if m.fastUnlock(h) {
		return
	}
	m.unlockSlow(h)
}

// unlockSlow is the full release: fold, the holder's accounting release,
// a drain of queued Handle.Do closures while the held bit still provides
// mutual exclusion, and the slice boundary.
func (m *Mutex) unlockSlow(h *Handle) {
	check.Point("mu.unlock.slow")
	m.lockMu()
	defer m.unlockMu()
	if m.word.Load()&wordHeld == 0 {
		panic("scl: Unlock of unlocked Mutex")
	}
	now := monotime()
	fastAcquired := m.fastHeld
	m.fold(now)
	var rel core.Release
	if fastAcquired {
		// The acquisition went through the fast path, so its usage is in
		// the fold above; run a zero-length release purely for the slice
		// boundary decision (expiry, penalty).
		m.fastHeld = false
		m.acct.OnAcquire(h.id, now)
		rel = m.acct.OnRelease(h.id, now)
		if m.csStart > 0 {
			rel.Hold = now - m.csStart
			m.csStart = 0
		}
	} else {
		rel = m.acct.OnRelease(h.id, now)
		m.stats.onRelease(int64(h.id), now)
	}
	m.tracer.emit(trace.KindRelease, now, int64(h.id), h.name, rel.Hold)
	if m.closureQueued() {
		// Run queued Do closures before surrendering the held bit: the
		// holder's own hold (measured above) never includes the drain, and
		// each closure is charged to its own entity.
		now = m.drainCombine(h, now)
	}
	_, open := m.refs[h.id]
	ghost := !open && !m.entityQueued(h.id)
	// Work-conserving groups (paper §6): with the slice live, a queued
	// sibling of the slice-owning entity may take the free lock for the
	// rest of the slice — jumping the queue, since the slice is its
	// entity's to use — instead of letting the lock idle through the
	// releaser's non-critical section.
	var intra *waiter
	if !ghost && !rel.SliceExpired {
		if owner, ok := m.acct.SliceOwner(); ok && m.word.Load()&wordTransfer == 0 {
			intra = m.takeClassWaiter(owner)
		}
	}
	// Surrender the held bit in the same step that raises the sibling's
	// grant, or that stale-marks an expired slice: in a gap between the
	// two, a fast-path sibling of the owner could take the free lock and
	// then share it with the next grantee.
	m.mutate(func(w uint64) uint64 {
		w &^= wordHeld
		if intra != nil {
			w |= wordTransfer
		} else if rel.SliceExpired && m.fastOK {
			w |= wordStale
		}
		return w
	})
	if rel.SliceExpired {
		m.tracer.emit(trace.KindSliceEnd, now, int64(h.id), h.name, rel.SliceUse)
	}
	if rel.Penalty > 0 {
		m.tracer.emit(trace.KindBan, now, int64(h.id), h.name, rel.Penalty)
		m.stats.onBan(int64(h.id), rel.Penalty)
	}
	if ghost {
		// Closed while this hold was in flight: finish the deferred
		// unregistration and run the boundary — there is no owner left to
		// keep the slice for.
		m.dropGhostLocked(h.id, now)
		m.transferLocked(now)
		return
	}
	if !rel.SliceExpired {
		if intra != nil {
			m.fastSince = -1
			intra.intra = true
			m.handoff(intra, now)
			intra.grant()
			return
		}
		// The lock idles with a live slice: open a fast window for the
		// owner and keep the slice-end timer armed.
		if m.fastOK {
			m.fastSince = now
		}
		m.armSliceEnd()
		m.rejectStranded()
		return
	}
	m.maybeReap(now)
	m.transferLocked(now)
}

// handoff records an ownership grant to w. m.mu held.
func (m *Mutex) handoff(w *waiter, now time.Duration) {
	m.stats.onHandoff(int64(w.h.id))
	m.tracer.emit(trace.KindHandoff, now, int64(w.h.id), w.h.name, 0)
}

// takeClassWaiter finds a queued waiter of the given entity, detaching it
// from the parked queue (the next slot is cleared by the grantee).
// m.mu held.
func (m *Mutex) takeClassWaiter(owner core.ID) *waiter {
	if m.next != nil && m.next.h.id == owner {
		return m.next
	}
	for i, w := range m.parked {
		if w.h.id == owner {
			m.parked = append(m.parked[:i], m.parked[i+1:]...)
			return w
		}
	}
	return nil
}

// transferLocked hands the free, slice-expired lock to the head waiter or
// clears the slice. m.mu held.
func (m *Mutex) transferLocked(now time.Duration) {
	check.Point("mu.transfer")
	if m.word.Load()&wordTransfer != 0 {
		return
	}
	if debugChecks && m.draining != nil {
		debugFail("slice boundary while a drain is executing closures")
	}
	m.fold(now)
	m.fastSince = -1
	if m.next == nil {
		owner, owned := m.acct.SliceOwner()
		m.acct.ClearSlice()
		m.mutate(func(w uint64) uint64 { return w &^ (wordOwner | wordStale) })
		if owned {
			m.dropGhostLocked(owner, now)
		}
		return
	}
	if w2 := m.mutate(func(w uint64) uint64 { return w | wordTransfer }); debugChecks && w2&wordHeld != 0 {
		debugFail("slice transfer set while a fast-path holder is active")
	}
	m.handoff(m.next, now)
	m.next.grant()
}

// endIdleSliceLocked folds and clears an expired slice whose owner sits
// outside the critical section with nobody queued. It stale-marks the
// state word first, so a concurrent fast-path acquire either is shut out
// or already holds the lock — the latter reported by a false return (that
// holder's release runs the boundary instead). m.mu held.
func (m *Mutex) endIdleSliceLocked(now time.Duration) bool {
	check.Point("mu.endidle")
	owner, ok := m.acct.SliceOwner()
	if !ok {
		return true
	}
	if m.fastOK {
		if w := m.mutate(func(x uint64) uint64 { return x | wordStale }); w&wordHeld != 0 {
			m.fold(now)
			return false
		}
	}
	m.fold(now)
	m.fastSince = -1
	// No release will report this slice end; the boundary does.
	m.tracer.emit(trace.KindSliceEnd, now, int64(owner), "", 0)
	m.acct.ClearSlice()
	m.mutate(func(w uint64) uint64 { return w &^ (wordOwner | wordStale) })
	m.dropGhostLocked(owner, now)
	return true
}

// armSliceEnd schedules the slice-end timer. With the fast path enabled
// the timer is armed for every slice (it bounds the owner's lock-free
// regime); on a k-SCL it is armed only while waiters could stall behind
// an owner that stopped acquiring. One reusable timer, armed at most once
// per slice end. m.mu held.
func (m *Mutex) armSliceEnd() {
	_, ok := m.acct.SliceOwner()
	if !ok || m.word.Load()&wordTransfer != 0 {
		return
	}
	if !m.fastOK && m.next == nil {
		return
	}
	m.timer.arm(m.acct.SliceEnd())
}

// onSliceTimer runs the slice boundary when the slice end passes outside
// a slow-path operation: it stale-marks a fast-path owner (whose next
// operation then takes the slow path), transfers a free lock to waiters,
// or clears an abandoned slice. Stale firings are no-ops.
func (m *Mutex) onSliceTimer() {
	check.Point("mu.slicetimer")
	m.lockMu()
	defer m.unlockMu()
	m.timer.fired()
	now := monotime()
	m.maybeReap(now)
	owner, ok := m.acct.SliceOwner()
	if !ok {
		// Backstop: an ownerless free lock with waiters is a stranded
		// transfer (the owner departed via Close or the GC between this
		// timer's arming and firing); grant it rather than strand them.
		if m.next != nil && m.word.Load()&(wordHeld|wordTransfer) == 0 {
			m.transferLocked(now)
		}
		return
	}
	if !m.acct.SliceExpired(now) {
		m.armSliceEnd() // the slice was restarted; track the new end
		return
	}
	w := m.word.Load()
	if w&wordTransfer != 0 {
		return
	}
	if m.fastOK {
		// Shut the fast path out of the expired slice before looking at
		// the held bit: after this mutate no fast acquire can land, so a
		// held bit in the result is a holder whose release will run the
		// boundary — fold what has accumulated and leave it to that.
		w = m.mutate(func(x uint64) uint64 { return x | wordStale })
	}
	if w&wordHeld != 0 {
		m.fold(now)
		return
	}
	if m.next == nil {
		m.endIdleSliceLocked(now)
		return
	}
	m.fold(now)
	// The slice ran out while the owner sat outside the critical
	// section; no release will report it, so the timer does.
	m.tracer.emit(trace.KindSliceEnd, now, int64(owner), "", 0)
	m.transferLocked(now)
}

// Stats returns a snapshot of per-entity hold times and the lock's idle
// time, for fairness reporting. Pending fast-path accounting is folded in
// first, so snapshots are exact up to any operation in flight. With
// WithInactiveGC configured, taking a snapshot also gives the lazy
// inactive-entity GC a chance to run.
func (m *Mutex) Stats() StatsSnapshot {
	m.lockMu()
	defer m.unlockMu()
	now := monotime()
	m.fold(now)
	m.maybeReap(now)
	snap := m.stats.snapshot(now)
	snap.Registered = m.acct.Len()
	return snap
}

// Entities returns the number of entities currently registered in the
// lock's accounting. With WithInactiveGC this tracks the active set
// rather than every entity that ever registered.
func (m *Mutex) Entities() int {
	m.lockMu()
	defer m.unlockMu()
	return m.acct.Len()
}

// CheckInvariants verifies the lock's internal consistency: the
// accounting engine's conservation invariants (weight and usage totals
// match the per-entity sums, the slice owner is registered), agreement
// between the state word's waiters bit and the waiter queue, and the
// queue's structural invariant (a populated parked list implies a head
// waiter in the next slot). It is meant for tests — the deterministic
// checker calls it between operations of every explored schedule — and
// reports the first violation found, or nil.
func (m *Mutex) CheckInvariants() error {
	m.lockMu()
	defer m.unlockMu()
	if err := m.acct.CheckInvariants(); err != nil {
		return err
	}
	queued := m.next != nil || len(m.parked) > 0
	hasBit := m.word.Load()&wordWaiters != 0
	if queued != hasBit {
		return fmt.Errorf("scl: waiters bit %v but queue populated %v (next=%v parked=%d)",
			hasBit, queued, m.next != nil, len(m.parked))
	}
	if m.next == nil && len(m.parked) > 0 {
		return fmt.Errorf("scl: %d parked waiters with an empty next slot", len(m.parked))
	}
	// A drain executes closures only while its combiner owns the held bit.
	if len(m.draining) > 0 && m.word.Load()&wordHeld == 0 {
		return fmt.Errorf("scl: %d closures executing in a drain with the lock unheld", len(m.draining))
	}
	return nil
}

var _ sync.Locker = (*Handle)(nil)
