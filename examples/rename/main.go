// Bully and victim on a global rename lock (the paper's Linux
// s_vfs_rename_mutex scenario, §5.5.3): a bully process renames into a
// 100K-entry directory — each rename linearly scans the directory and
// holds the global lock for milliseconds — while a victim renames between
// empty directories in microseconds. Under a barging mutex the victim
// stalls behind the bully; under a k-SCL (zero-slice scheduler-cooperative
// lock) the bully is banned after each over-long hold and the victim runs
// almost unimpeded.
package main

import (
	"fmt"
	"sync"
	"time"

	"scl"
	"scl/internal/barging"
	"scl/internal/metrics"
	"scl/internal/vfs"
)

func run(lockKind string) {
	fs := vfs.New()
	for _, d := range []string{"bsrc", "bdst", "vsrc", "vdst"} {
		if err := fs.Mkdir(d); err != nil {
			panic(err)
		}
	}
	if err := fs.Populate("bdst", "f-", 100_000); err != nil {
		panic(err)
	}

	var bullyLock, victimLock sync.Locker
	switch lockKind {
	case "k-SCL":
		m := scl.NewMutex(scl.Options{Slice: -1}) // zero slice: k-SCL
		bullyLock = m.Register().SetName("bully")
		victimLock = m.Register().SetName("victim")
	default:
		m := &barging.Mutex{}
		bullyLock, victimLock = m, m
	}

	deadline := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	var victimLats []time.Duration
	var bullyOps, victimOps int64
	proc := func(lk sync.Locker, src, dst string, ops *int64, lats *[]time.Duration) {
		defer wg.Done()
		i := 0
		for time.Now().Before(deadline) {
			name := fmt.Sprintf("f%d", i)
			i++
			if err := fs.Create(src, name); err != nil {
				panic(err)
			}
			start := time.Now()
			lk.Lock()
			if err := fs.Rename(src, name, dst, name); err != nil {
				panic(err)
			}
			lk.Unlock()
			if lats != nil {
				*lats = append(*lats, time.Since(start))
			}
			if err := fs.Unlink(dst, name); err != nil {
				panic(err)
			}
			*ops++
		}
	}
	wg.Add(2)
	go proc(bullyLock, "bsrc", "bdst", &bullyOps, nil)
	go proc(victimLock, "vsrc", "vdst", &victimOps, &victimLats)
	wg.Wait()

	s := metrics.Summarize(victimLats)
	fmt.Printf("%-8s bully: %5d renames | victim: %7d renames, latency p50=%v p99=%v max=%v\n",
		lockKind, bullyOps, victimOps, s.P50, s.P99, s.Max)
}

func main() {
	fmt.Println("global rename lock, 1s run, bully renames into a 100K-entry directory:")
	run("barging")
	run("k-SCL")
}
