package scl

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scl/internal/check"
)

// This file is the locks' seam to the deterministic checker
// (internal/check). In normal operation every helper here degrades to
// the ordinary primitive at the cost of one atomic nil-check (the same
// always-compiled pattern as the tracer slot — a build tag cannot gate
// these, because `go test ./internal/check` must explore the untagged
// build everyone actually runs). Under an installed check scheduler
// (tests only) the helpers reroute: internal mutexes become
// scheduler-managed resources, the slice/phase timers run on the
// virtual clock, and blocking waits become predicate parks the explorer
// can reorder.
//
// The waiting layer every lock type shares lives here too, so that each
// wait the paper's acquire shape needs is coded once (penalty at
// acquire, §4.2, then the queue, then a releasing holder that may run
// queued work):
//
//   - sleepOrDone serves a ban: Mutex.serveBan and the Manager's
//     table-level ban in Tenant.acquire.
//   - (*RWLock).await waits for a grant token on a queued RW waiter's
//     channel: RLock, RLockContext, WLock, WLockContext and RWLock.Do.
//     The Mutex's grant wait is waiter.await in mutex.go. Both build the
//     checker's ready-predicate only under check.Enabled, so a
//     real-runtime wait allocates no closure.
//   - runBatch runs a drained batch of Do closures back to back under
//     the one panic/Goexit backstop: Mutex.drainCombine and
//     RWLock.drainWCombine.
//
// casWord is the state-word CAS loop both lock types share, with its
// load→CAS window as a check point ("mu.word.mutate", "rw.word.mutate").
//
// A lock instance must live entirely on one side of the seam: created
// and used under an installed scheduler, or created and used without
// one. Mixing (arming a real timer, then resetting it with virtual
// delays) is not supported and is prevented by construction in the
// checker's workloads, which build a fresh lock per explored schedule.
//
// Beyond the helpers below, the locks mark their lock-free races as
// named check.Point decision sites the explorer reorders. The RW-SCL's
// distributed read indicator adds two to the packed-word set:
//
//   - "rw.shard.rlock": between a fast reader publishing its shard +1
//     and revalidating the state word — the sweep-vs-incoming-reader
//     race. A sweep scheduled here sees the +1 of a reader that may yet
//     undo itself, and must only ever be delayed by it, never admit a
//     writer over it.
//   - "rw.shard.runlock": before a fast release picks the shard its -1
//     lands on.
//   - "rw.phaseflip.sweep": in grantLocked, before the write-phase
//     drain sums the shards to decide whether the writer may enter.
//
// Shard selection itself is schedule-stable under the checker: it keys
// off check.GID (the managed goroutine's spawn index), not runtime
// identity, so a replayed seed takes identical branches.
//
// The combining path (Handle.Do, combine.go) adds two decision sites.
// A Do caller queues as an ordinary waiter carrying its closure — an
// append under the lock's internal mutex, itself a schedule point — and
// parks at "mu.await" like any waiter:
//
//   - "mu.combine.drain": in takeCombineBatch, before the releasing
//     holder detaches queued closure waiters — racing Do callers land
//     either in this batch or a later one.
//   - "mu.combine.handoff": after a drained batch's charges are booked,
//     before the waiters are released as ran — the window where a Do
//     caller must not yet observe its own completion.
//
// RWLock.Do mirrors them as "rw.combine.drain" and "rw.combine.handoff";
// its closure entries wait on the writer grant channel at "rw.wwait".
//
// The Manager threads its table-level decisions through the same seam:
// its stripe mutexes go through lockMutex/unlockMutex, and it marks
// "mgr.stripe" (stripe selected, before the table-level ban check),
// "mgr.materialize" (a key's lock is about to be created),
// "mgr.release" (between the key-lock release and the stripe booking —
// the window where a concurrent acquire can observe the key unlocked
// but the tenant not yet charged), "mgr.reap" (a stripe GC sweep) and
// "mgr.close" (tenant departure). Stripe selection hashes the key with
// a fixed FNV-1a, so it is schedule- and process-stable by
// construction.

// lockTimer abstracts the one-shot slice/phase timers so the checker
// can substitute virtual-clock timers for time.AfterFunc. Both
// *time.Timer and *check.Timer satisfy it.
type lockTimer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// startLockTimer arms a one-shot timer calling f after d: a virtual
// timer under an installed check scheduler, time.AfterFunc otherwise. A
// real timer that fires while a scheduler is installed belongs to a lock
// of the real side, left armed by an earlier test of the same binary; it
// is dropped, since running f would reach into the scheduler's hooks from
// a goroutine it does not manage.
func startLockTimer(d time.Duration, f func()) lockTimer {
	if t, ok := check.AfterFunc(d, f); ok {
		return t
	}
	return time.AfterFunc(d, func() {
		if !check.Enabled() {
			f()
		}
	})
}

// sliceTimer is a lock's one reusable slice-end (Mutex) or phase-end
// (RWLock) timer. Re-arming a fresh timer per operation would spawn a
// goroutine per firing, which dominates runtime under load. All methods
// run under the lock's internal mutex.
type sliceTimer struct {
	t    lockTimer
	at   time.Duration // absolute arm target; avoids redundant resets
	fire func()        // the lock's handler, set at construction
}

// arm schedules fire for the absolute time end, unless already armed
// for that end. It reads the clock itself instead of taking a caller's
// now: callers read theirs earlier in the operation, and a delay
// measured from a stale now is too long by the staleness, so the timer
// fires late. That lateness is a real share of a 2 µs RW phase slice —
// arming from the caller's now cost lockbench rw-traced 14% throughput
// on a 2-CPU Xeon and raised its writer p99 wait from 16.5 µs to about
// 28 µs.
func (s *sliceTimer) arm(end time.Duration) {
	if s.at == end {
		return
	}
	s.at = end
	delay := max(end-monotime(), 0)
	if s.t == nil {
		s.t = startLockTimer(delay, s.fire)
		return
	}
	s.t.Reset(delay)
}

// fired marks the armed target consumed, so the next arm re-arms even
// for the same end.
func (s *sliceTimer) fired() { s.at = -1 }

// lockMutex acquires a lock-internal mutex through the checker hook:
// under an installed scheduler the scheduler itself provides exclusion
// (and models the acquisition as a schedule point); otherwise the real
// mutex is taken.
func lockMutex(mu *sync.Mutex) {
	if !check.LockMutex(mu) {
		mu.Lock()
	}
}

// unlockMutex releases what lockMutex acquired; the two always resolve
// to the same side of the seam within one critical section.
func unlockMutex(mu *sync.Mutex) {
	if !check.UnlockMutex(mu) {
		mu.Unlock()
	}
}

// sleepOrDone sleeps for d, or until done fires first (cancelled; done ==
// nil never fires). Under an installed scheduler the sleep runs on the
// virtual clock, and a wake at the deadline reports !cancelled even if
// done also fired — the caller observes the cancellation at its next
// blocking point.
func sleepOrDone(d time.Duration, done <-chan struct{}) (cancelled bool) {
	if done == nil {
		if !check.Sleep(d) {
			time.Sleep(d)
		}
		return false
	}
	if cancelled, handled := check.SleepOrDone(d, done); handled {
		return cancelled
	}
	t := time.NewTimer(d)
	select {
	case <-t.C:
		return false
	case <-done:
		t.Stop()
		return true
	}
}

// await blocks until the granter posts the token on a queued waiter's
// channel ch and consumes it (true), or until done fires first (false;
// done == nil never fires). A false return leaves a grant that raced the
// cancellation on ch, for abandonWaiter to consume. name is the wait's
// check point ("rw.rwait" or "rw.wwait").
func (l *RWLock) await(name string, ch chan struct{}, done <-chan struct{}) bool {
	if check.Enabled() {
		// Deterministic checker: a predicate park the explorer can reorder.
		// Cancellation wins a tie and leaves the token in place.
		if ok, handled := check.WaitOrDone(name, func() bool { return len(ch) > 0 }, done); handled {
			if ok {
				<-ch
			}
			return ok
		}
	}
	if done == nil {
		<-ch // a plain receive parks and wakes cheaper than a select
		return true
	}
	select {
	case <-ch:
		return true
	case <-done:
		return false
	}
}

// runBatch runs a drained batch of n Do closures back to back, run(i)
// executing closure i, while the caller owns its lock's exclusive bit
// and not the lock's internal mutex. at[i] and at[i+1] bracket closure
// i: n+1 clock reads in all.
//
// Do closures are documented as must-not-panic, but one that panics (or
// calls runtime.Goexit) would otherwise wedge the lock: the exclusive
// bit stays up and the batch's waiters have no resolution coming. So an
// escaped unwind calls abort(ran), where closure ran is the one that
// failed; abort must retake the internal mutex, resolve closures 0..ran
// as executed (exactly-once forbids a re-run) and requeue the rest, and
// retire the exclusive bit. A panic then continues as "scl: <what>
// critical section panicked: <value>"; a Goexit continues on its own.
// The failed batch's charges are dropped: fairness bookkeeping is
// best-effort on a path that is already a contract violation.
func runBatch(what string, n int, run func(i int), abort func(ran int)) (at [combineBatch + 1]time.Duration) {
	ran := 0
	defer func() {
		if ran == n {
			return // every closure completed
		}
		pv := recover()
		abort(ran)
		if pv != nil {
			panic(fmt.Sprintf("scl: %s critical section panicked: %v", what, pv))
		}
		// pv == nil means runtime.Goexit: the unwind continues on its own.
	}()
	at[0] = monotime()
	for ran < n {
		run(ran)
		at[ran+1] = monotime()
		ran++
	}
	return at
}

// casWord applies f to word with a CAS loop that tolerates concurrent
// fast-path CASes, and returns the installed word. The load→CAS window,
// where such a CAS may land, is the check point name. The lock's
// internal mutex is held.
func casWord(word *atomic.Uint64, name string, f func(uint64) uint64) uint64 {
	for {
		old := word.Load()
		new := f(old)
		check.Point(name)
		if old == new || word.CompareAndSwap(old, new) {
			return new
		}
	}
}

func (m *Mutex) lockMu()   { lockMutex(&m.mu) }
func (m *Mutex) unlockMu() { unlockMutex(&m.mu) }

func (l *RWLock) lockMu()   { lockMutex(&l.mu) }
func (l *RWLock) unlockMu() { unlockMutex(&l.mu) }
