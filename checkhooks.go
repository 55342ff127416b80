package scl

import (
	"sync"
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
// timer under an installed check scheduler, time.AfterFunc otherwise.
func startLockTimer(d time.Duration, f func()) lockTimer {
	if t, ok := check.AfterFunc(d, f); ok {
		return t
	}
	return time.AfterFunc(d, f)
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
// for that end.
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

func (m *Mutex) lockMu()   { lockMutex(&m.mu) }
func (m *Mutex) unlockMu() { unlockMutex(&m.mu) }

func (l *RWLock) lockMu()   { lockMutex(&l.mu) }
func (l *RWLock) unlockMu() { unlockMutex(&l.mu) }
