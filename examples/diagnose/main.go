// Diagnose-then-fix: the full workflow for scheduler subversion.
//
//  1. Wrap your existing lock with lockstat and run the workload: the
//     report shows skewed hold times, a high held fraction, and a low
//     fairness index — the paper's §2.3 symptoms.
//  2. Replace the lock with a scheduler-cooperative scl.Mutex and re-run:
//     lock opportunity equalizes.
package main

import (
	"fmt"
	"sync"
	"time"

	"scl"
	"scl/internal/barging"
	"scl/lockstat"
)

// workload: an "analytics" goroutine with long critical sections competes
// with a "frontend" goroutine that needs many short ones.
func workload(analytics, frontend interface {
	Lock()
	Unlock()
}) {
	deadline := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			analytics.Lock()
			time.Sleep(10 * time.Millisecond) // heavy scan under the lock
			analytics.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			frontend.Lock()
			time.Sleep(500 * time.Microsecond) // quick lookup
			frontend.Unlock()
		}
	}()
	wg.Wait()
}

func main() {
	// Step 1: measure the existing (barging) lock.
	plain := lockstat.Wrap(&barging.Mutex{})
	workload(plain.Handle("analytics"), plain.Handle("frontend"))
	rep := plain.Report()
	fmt.Println(rep)
	fmt.Printf("held %.0f%% of the run, Jain(LOT) %.2f -> subverted: %v\n\n",
		rep.HeldFraction*100, rep.JainLOT, rep.Subverted())

	// Step 2: swap in a scheduler-cooperative lock and re-measure (scl
	// carries its own per-entity accounting, so no wrapper is needed).
	m := scl.NewMutex(scl.Options{Slice: time.Millisecond})
	analytics := m.Register().SetName("analytics")
	frontend := m.Register().SetName("frontend")
	workload(analytics, frontend)
	s := m.Stats()
	fmt.Printf("with scl.Mutex: analytics held %v, frontend held %v, Jain %.2f\n",
		s.Hold[analytics.ID()].Round(time.Millisecond),
		s.Hold[frontend.ID()].Round(time.Millisecond),
		s.JainHold(analytics.ID(), frontend.ID()))
}
