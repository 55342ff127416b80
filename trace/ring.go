package trace

import (
	"runtime"
	"sync/atomic"
)

// Ring is a lock-free bounded recorder of Events: writers never take a
// lock and never allocate, memory is fixed at construction, and when the
// buffer wraps the oldest events are dropped (and counted) rather than
// stalling the lock that is emitting. It is safe for any number of
// concurrent writers and readers, and its Record method is the whole
// scl.Tracer interface, so it can be plugged directly into
// scl.Options.Tracer (or a lock's SetTracer) as an always-on flight
// recorder.
//
// Each Record costs an atomic increment, a load, a CAS and a store, and
// copies the Event into a preallocated slot; with tracing disabled (a nil
// Tracer) the locks pay only a nil check.
type Ring struct {
	mask  uint64
	slots []slot
	head  atomic.Uint64 // next ticket; head-1 is the newest event
}

// slot holds one event in place. seq names its state for ticket i:
// 2i+2 means ev is ticket i's event, complete; an odd value means a
// writer or a reader is copying ev; 0 means never written. A party
// touches ev only between a successful CAS to an odd seq and the Store
// that makes it even again, so the atomics order every plain access.
type slot struct {
	seq atomic.Uint64
	ev  Event
}

// DefaultRingCap is the capacity used when NewRing is given a
// non-positive one: 64Ki events, a few MB of flight recorder.
const DefaultRingCap = 1 << 16

// NewRing returns a ring holding at most cap events (rounded up to a
// power of two; non-positive means DefaultRingCap).
func NewRing(cap int) *Ring {
	if cap <= 0 {
		cap = DefaultRingCap
	}
	n := 1
	for n < cap {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([]slot, n)}
}

// Cap returns the ring's capacity in events.
func (r *Ring) Cap() int { return len(r.slots) }

// Record stores one event, overwriting the oldest if the ring is full.
// A writer waits only while another party copies its own slot, one
// fixed-size copy; if a newer ticket has already lapped the slot, the
// event is dropped, which Dropped already counts.
func (r *Ring) Record(ev Event) { r.put(r.head.Add(1)-1, ev) }

// put writes ticket i's event into its slot.
func (r *Ring) put(i uint64, ev Event) {
	s := &r.slots[i&r.mask]
	for {
		seq := s.seq.Load()
		switch {
		case seq&1 == 1:
			runtime.Gosched() // mid-copy; it finishes without waiting on us
		case seq > 2*i:
			return // lapped by a newer ticket
		case s.seq.CompareAndSwap(seq, 2*i+1):
			s.ev = ev
			s.seq.Store(2*i + 2)
			return
		}
	}
}

// Seen returns the total number of events recorded since construction,
// including those already overwritten.
func (r *Ring) Seen() uint64 { return r.head.Load() }

// Dropped returns how many events have been dropped (overwritten by
// wrap-around). Seen() − Dropped() events are retrievable via Events
// once no Record is in flight.
func (r *Ring) Dropped() uint64 {
	if h, c := r.head.Load(), uint64(len(r.slots)); h > c {
		return h - c
	}
	return 0
}

// Events returns a snapshot of the retained events, oldest first. Slots
// that writers racing the snapshot have not yet published, or have
// already overwritten with a newer generation, are skipped; the newer
// events appear in the next snapshot. Concurrent snapshots do not hide
// events from each other.
func (r *Ring) Events() []Event {
	head := r.head.Load()
	n := uint64(len(r.slots))
	if head < n {
		n = head
	}
	out := make([]Event, 0, n)
	for i := head - n; i < head; i++ {
		if ev, ok := r.slots[i&r.mask].read(i); ok {
			out = append(out, ev)
		}
	}
	return out
}

// read copies ticket i's event out of the slot; ok is false when the slot
// holds no complete event for ticket i.
func (s *slot) read(i uint64) (ev Event, ok bool) {
	done := 2*i + 2
	for {
		switch s.seq.Load() {
		case done + 1:
			runtime.Gosched() // another snapshot is copying this event
		case done:
			if s.seq.CompareAndSwap(done, done+1) {
				ev = s.ev
				s.seq.Store(done)
				return ev, true
			}
		default:
			return Event{}, false
		}
	}
}
