package scl

import (
	"sync/atomic"
	"time"

	"scl/trace"
)

// Tracer receives structured lock events from the real-time locks: one
// trace.Event per step of the paper's mechanism (acquire → release →
// slice end → ban → handoff, plus abandon, reap and combine), tagged
// with its trace.Kind; each Kind documents what its Detail carries.
// Install a Tracer via Options.Tracer (Mutex) or SetTracer (Mutex,
// RWLock); a nil Tracer costs the locks only a nil check per operation.
//
// Record is invoked synchronously from lock operations. Slow-path events
// fire with the lock's internal mutex held; fast-path events (the slice
// owner's lock-free acquire/release) fire without it, so records from
// distinct handles may run concurrently — implementations must be
// concurrency-safe, fast, must not block, and must not call back into
// the lock. Delivering an event allocates nothing: the Event is built on
// the stack and passed by value. trace.Ring is the built-in
// implementation — a lock-free bounded flight recorder that copies each
// event into a preallocated slot, so a traced lock also allocates nothing
// per operation and the recorder is safe to leave enabled in production.
type Tracer interface {
	Record(trace.Event)
}

var _ Tracer = (*trace.Ring)(nil)

// tracerSlot is a lock's installed Tracer plus the lock's name, the one
// place Mutex and RWLock build and deliver events. The Tracer is read
// lock-free (the fast paths check it without the lock's internal mutex)
// and swapped atomically by SetTracer.
type tracerSlot struct {
	lock string // the owning lock's label; fixed at construction
	t    atomic.Pointer[Tracer]
}

func (s *tracerSlot) set(t Tracer) {
	if t == nil {
		s.t.Store(nil)
		return
	}
	s.t.Store(&t)
}

// on reports whether a Tracer is installed.
func (s *tracerSlot) on() bool { return s.t.Load() != nil }

// emit delivers one event to the installed Tracer, if any. It inlines
// to a load and a nil check; building the event stays out of line in
// record, so an untraced lock pays only the check.
func (s *tracerSlot) emit(kind trace.Kind, at time.Duration, entity int64, name string, detail time.Duration) {
	if s.t.Load() != nil {
		s.record(kind, at, entity, name, detail)
	}
}

// record builds the event and delivers it. It reloads the Tracer, since
// a concurrent SetTracer(nil) may have removed it since emit's check.
func (s *tracerSlot) record(kind trace.Kind, at time.Duration, entity int64, name string, detail time.Duration) {
	if p := s.t.Load(); p != nil {
		(*p).Record(trace.Event{At: at, Kind: kind, Lock: s.lock, Entity: entity, Name: name, Detail: detail})
	}
}
