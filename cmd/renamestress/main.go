// Command renamestress reproduces the paper's §5.5.3 bully/victim rename
// experiment on the real VFS namespace with real goroutines: a bully
// repeatedly renames into a large directory (long scans under the global
// rename lock) while a victim renames between empty directories. Compare
// the victim's throughput and latency under a barging mutex versus a
// k-SCL-configured scheduler-cooperative mutex.
//
// Usage:
//
//	renamestress [-dir-entries 200000] [-duration 5s] [-lock kscl|barging]
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"scl"
	"scl/internal/barging"
	"scl/internal/metrics"
	"scl/internal/vfs"
)

func main() {
	var (
		entries  = flag.Int("dir-entries", 200_000, "files in the bully's destination directory")
		duration = flag.Duration("duration", 5*time.Second, "run length")
		lockKind = flag.String("lock", "kscl", "rename lock: kscl or barging")
	)
	flag.Parse()

	fs := vfs.New()
	for _, d := range []string{"bully-src", "bully-dst", "victim-src", "victim-dst"} {
		if err := fs.Mkdir(d); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := fs.Populate("bully-dst", "f-", *entries); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// The global rename lock (s_vfs_rename_mutex). Each process also needs
	// a per-directory lock for create/unlink; with only two processes in
	// disjoint directories a per-process mutex suffices and never contends.
	var bullyLock, victimLock sync.Locker
	var sclMutex *scl.Mutex
	switch *lockKind {
	case "kscl":
		sclMutex = scl.NewMutex(scl.Options{Slice: -1, InactiveTimeout: time.Second})
		bullyLock = sclMutex.Register().SetName("bully")
		victimLock = sclMutex.Register().SetName("victim")
	case "barging":
		m := &barging.Mutex{}
		bullyLock, victimLock = m, m
	default:
		fmt.Fprintf(os.Stderr, "unknown -lock %q\n", *lockKind)
		os.Exit(2)
	}

	deadline := time.Now().Add(*duration)
	run := func(lk sync.Locker, src, dst string, lats *[]time.Duration, ops *int64) func() {
		return func() {
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
				*lats = append(*lats, time.Since(start))
				if err := fs.Unlink(dst, name); err != nil {
					panic(err)
				}
				*ops++
			}
		}
	}

	var bullyLats, victimLats []time.Duration
	var bullyOps, victimOps int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); run(bullyLock, "bully-src", "bully-dst", &bullyLats, &bullyOps)() }()
	go func() { defer wg.Done(); run(victimLock, "victim-src", "victim-dst", &victimLats, &victimOps)() }()
	wg.Wait()

	t := metrics.NewTable(
		fmt.Sprintf("Rename stress (%s lock, %d-entry bully dir, %v)", *lockKind, *entries, *duration),
		"process", "renames", "p50", "p90", "p99", "max")
	for _, p := range []struct {
		name string
		ops  int64
		lats []time.Duration
	}{{"bully", bullyOps, bullyLats}, {"victim", victimOps, victimLats}} {
		s := metrics.Summarize(p.lats)
		t.AddRow(p.name, p.ops, s.P50.String(), s.P90.String(), s.P99.String(), s.Max.String())
	}
	fmt.Println(t.String())
	if sclMutex != nil {
		snap := sclMutex.Stats()
		fmt.Printf("lock idle: %v of %v\n", snap.Idle.Round(time.Millisecond), snap.Elapsed.Round(time.Millisecond))
	}
}
