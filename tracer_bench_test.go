package scl

import (
	"testing"
	"time"

	"scl/trace"
)

// The tracing-overhead contract: with Tracer nil the lock paths pay one
// nil check; with a ring attached, each hook fills one Event on the stack
// and copies it into a preallocated ring slot, with no allocation.
// Compare each traced benchmark with its untraced twin:
//
//	go test -bench='Uncontended|Traced' -benchmem -count=5

func benchLockUnlock(b *testing.B, m *Mutex) {
	b.Helper()
	h := m.Register()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Lock()
		h.Unlock()
	}
}

func BenchmarkMutexUncontended(b *testing.B) {
	benchLockUnlock(b, NewMutex(Options{Slice: time.Minute}))
}

func BenchmarkMutexTraced(b *testing.B) {
	ring := trace.NewRing(1 << 16)
	benchLockUnlock(b, NewMutex(Options{Slice: time.Minute, Tracer: ring}))
}

// The k-SCL configuration releases the slice on every unlock, the
// worst case for per-operation accounting and event volume.
func BenchmarkKSCLUncontended(b *testing.B) {
	benchLockUnlock(b, NewMutex(Options{Slice: -1}))
}

func BenchmarkKSCLTraced(b *testing.B) {
	ring := trace.NewRing(1 << 16)
	benchLockUnlock(b, NewMutex(Options{Slice: -1, Tracer: ring}))
}

// benchRLockRUnlock is the RW-SCL reader reacquire inside one long read
// slice. An installed tracer turns off the RW fast paths, so the traced
// twin measures the slow path plus its events.
func benchRLockRUnlock(b *testing.B, l *RWLock) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.RLock()
		l.RUnlock()
	}
}

func BenchmarkRWLockUncontended(b *testing.B) {
	benchRLockRUnlock(b, NewRWLock(1, 1, time.Hour))
}

func BenchmarkRWLockTraced(b *testing.B) {
	l := NewRWLock(1, 1, time.Hour)
	l.SetTracer(trace.NewRing(1 << 16))
	benchRLockRUnlock(b, l)
}
