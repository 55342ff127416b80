package scl

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"scl/trace"
)

// recTracer records every event in order (thread-safe: the fast path may
// record without the lock's internal mutex).
type recTracer struct {
	mu  sync.Mutex
	evs []trace.Event
}

func (r *recTracer) Record(ev trace.Event) {
	r.mu.Lock()
	r.evs = append(r.evs, ev)
	r.mu.Unlock()
}

func (r *recTracer) events() []trace.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]trace.Event(nil), r.evs...)
}

// normalize renders the deterministic parts of an event stream: kind and
// entity name, one line per event. Timestamps and durations are wall-clock
// and excluded.
func normalize(evs []trace.Event) string {
	var b strings.Builder
	for _, ev := range evs {
		fmt.Fprintf(&b, "%s %s\n", ev.Kind, ev.Name)
	}
	return b.String()
}

// TestScriptedScheduleEventStream runs a fixed, sequential lock schedule
// and compares the tracer event stream against a golden transcript. The
// golden was recorded on the pre-fast-path implementation; the atomic
// slice-owner fast path must reproduce it byte-for-byte (acceptance
// criterion: identical event streams before/after the fast path).
func TestScriptedScheduleEventStream(t *testing.T) {
	rec := &recTracer{}
	m := NewMutex(Options{Slice: 40 * time.Millisecond, Name: "scripted", Tracer: rec})
	a := m.Register().SetName("A")
	b := m.Register().SetName("B")

	// Script: A takes the slice and re-acquires three times (fast-path
	// territory), holds through the slice end on the fourth, draws a ban
	// (it used 100% against a registered peer), then B runs a slice.
	for i := 0; i < 3; i++ {
		a.Lock()
		time.Sleep(time.Millisecond)
		a.Unlock()
	}
	a.Lock()
	time.Sleep(45 * time.Millisecond) // overruns the 40ms slice
	a.Unlock()                        // slice end + ban computed here
	b.Lock()                          // fresh slice for B (A's slice is over)
	time.Sleep(time.Millisecond)
	b.Unlock()

	got := normalize(rec.events())
	want := strings.Join([]string{
		"acquire A",
		"release A",
		"acquire A",
		"release A",
		"acquire A",
		"release A",
		"acquire A",
		"release A",
		"slice-end A",
		"ban A",
		"acquire B",
		"release B",
	}, "\n") + "\n"
	if got != want {
		t.Fatalf("event stream diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The same schedule must land in the stats counters exactly.
	s := m.Stats()
	if s.Acquisitions[a.ID()] != 4 || s.Acquisitions[b.ID()] != 1 {
		t.Fatalf("acquisitions = %d/%d, want 4/1", s.Acquisitions[a.ID()], s.Acquisitions[b.ID()])
	}
	if s.Bans[a.ID()] != 1 || s.BanTime[a.ID()] == 0 {
		t.Fatalf("bans = %d (%v), want 1", s.Bans[a.ID()], s.BanTime[a.ID()])
	}
	if s.Hold[a.ID()] < 45*time.Millisecond {
		t.Fatalf("A hold = %v, want >= 45ms", s.Hold[a.ID()])
	}
	if s.Hold[b.ID()] < time.Millisecond {
		t.Fatalf("B hold = %v, want >= 1ms", s.Hold[b.ID()])
	}
}

// TestScriptedKSCLEventStream is the same idea on a k-SCL (zero slice):
// every release is a slice boundary, so the transcript interleaves
// slice-end events with each release and exercises ownership transfer.
func TestScriptedKSCLEventStream(t *testing.T) {
	rec := &recTracer{}
	m := NewMutex(Options{Slice: -1, Name: "kscl", Tracer: rec})
	a := m.Register().SetName("A")

	// A lone entity on a k-SCL: each release ends the slice, no bans.
	for i := 0; i < 3; i++ {
		a.Lock()
		a.Unlock()
	}
	got := normalize(rec.events())
	want := strings.Join([]string{
		"acquire A",
		"release A",
		"slice-end A",
		"acquire A",
		"release A",
		"slice-end A",
		"acquire A",
		"release A",
		"slice-end A",
	}, "\n") + "\n"
	if got != want {
		t.Fatalf("event stream diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	s := m.Stats()
	if s.Acquisitions[a.ID()] != 3 {
		t.Fatalf("acquisitions = %d, want 3", s.Acquisitions[a.ID()])
	}
	if s.Bans[a.ID()] != 0 {
		t.Fatalf("lone entity banned %d times", s.Bans[a.ID()])
	}
}

// tracerFunc adapts a function to the Tracer interface.
type tracerFunc func(trace.Event)

func (f tracerFunc) Record(ev trace.Event) { f(ev) }

// TestExpiredReleaseShutsOutFastSibling pins the release that ends a
// slice with a waiter queued: the held bit must drop in the same step
// that stale-marks the slice, or a fast-path sibling of the outgoing
// owner can take the free lock just before the slice is transferred,
// and then share it with the grantee. The slice-end event is recorded
// inside that release, so the tracer (deliberately breaking the
// no-callback rule) attempts the sibling's fast acquire right there.
func TestExpiredReleaseShutsOutFastSibling(t *testing.T) {
	m := NewMutex(Options{Slice: time.Millisecond})
	a := m.Register()
	sib := a.Sibling()
	b := m.Register()
	a.Lock()
	// Keep the slice timer from stale-marking the slice while A holds, so
	// the slice ends at A's release rather than at the timer.
	m.lockMu()
	m.timer.Stop()
	m.unlockMu()
	granted := make(chan struct{})
	go func() {
		b.Lock()
		close(granted)
	}()
	for m.word.Load()&wordWaiters == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	time.Sleep(2 * time.Millisecond) // run past the slice end
	var tried, stole bool
	m.SetTracer(tracerFunc(func(ev trace.Event) {
		if ev.Kind == trace.KindSliceEnd && ev.Entity == a.ID() {
			tried, stole = true, m.fastLock(sib)
		}
	}))
	a.Unlock()
	if !tried {
		t.Fatal("A's release did not end the slice")
	}
	if stole {
		t.Fatal("a fast-path sibling took the lock while the expiring slice was being transferred")
	}
	select {
	case <-granted:
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter never granted")
	}
	b.Unlock()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
