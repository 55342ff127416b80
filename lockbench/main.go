// Command lockbench is the end-to-end benchmark of the scl locks. It runs
// one named workload against the public API of scl, scl/trace and
// scl/export from two client goroutines, checks that the locks behaved
// correctly, and prints its metrics; the last line of standard output is
// one JSON object. See METRICS.md for every metric and workload.
//
//	lockbench --workload mutex-handoff --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs half the time untraced and half with the benchmark's own spans
// around every call into a layer, reports the per-layer metrics, and
// writes the spans to <out>/spans-<workload>.jsonl. With --baseline it
// also runs the same inputs against sync.Mutex, a map of sync.Mutex or
// sync.RWMutex and prints them in a separate, ungated block.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// order lists the workloads for the usage text.
var order = []string{"mutex-handoff", "tenant-table", "rw-traced"}

const (
	setups     = 7       // set-ups per run; setup_s is their median
	calibrate  = 20000   // critical sections timed once to report their cost
	waitSample = 1 << 14 // victim waits kept per client and window
	// A measured phase is cut into windows of this length; each
	// end-to-end metric is the median of its per-window values, so a
	// stall from outside the process moves one window, not the result.
	windowLen = 500 * time.Millisecond
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lockbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

func run() error {
	name := flag.String("workload", "", "workload: "+strings.Join(order, ", "))
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 = per-layer run with the benchmark's spans on")
	baseline := flag.Bool("baseline", false, "also run the sync baseline and print it (not gated)")
	out := flag.String("out", ".", "directory for the traced run's span log")
	flag.Parse()
	sp, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(order, ", "))
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)

	seqs := sp.gen(rand.New(rand.NewSource(*seed)))
	phase := time.Duration(*seconds * float64(time.Second))
	if *traced == 1 {
		phase /= 2
	}
	var window atomic.Int32
	cs := make([]*client, 2)
	for i := range cs {
		cs[i] = &client{id: i, seq: seqs[i], window: &window}
		for j := 0; j <= windowsIn(phase); j++ {
			cs[i].waits = append(cs[i].waits, newReservoir(waitSample, uint64(*seed)*1000+uint64(i*100+j)+1))
		}
	}
	csNs := csCost(sp.cs)
	fmt.Printf("workload %s seed %d seconds %g trace %d GOMAXPROCS %d clients %d\n",
		*name, *seed, *seconds, *traced, procs, len(cs))
	fmt.Printf("why: %s\n", sp.why)
	for _, k := range sortedKeys(sp.cs) {
		fmt.Printf("cs %s: %d iterations, %.0f ns (measured once at start)\n", k, sp.cs[k], csNs[k])
	}

	w, setupS, err := setUp(sp, cs, false)
	if err != nil {
		return err
	}
	armVictims(sp, cs)
	runtime.GC()
	plain := measure(w, cs, phase, nil)

	var ms []metric
	attempted, failed := plain.attempted, plain.failed
	if *traced == 0 {
		ms = append(plain.endToEnd(), metric{"jain_hold", jain(w.counters().holdPerW), "index"},
			metric{"setup_s", setupS, "s"})
		fmt.Printf("victim: %s; %d wait samples (1 in %d victim ops) over %d windows\n",
			sp.victim, plain.samples(), sp.every, len(plain.windows))
		fmt.Printf("error_rate %.6f (%d failed of %d attempted)\n",
			perOp(float64(failed), float64(attempted)), failed, attempted)
	} else {
		bg := newSpanLog(len(cs), uint64(*seed))
		logs := make([]*spanLog, len(cs))
		for i, c := range cs {
			logs[i] = newSpanLog(i, uint64(*seed)*31+uint64(i))
			c.tr, c.every = logs[i], 0
		}
		before := timedCounters(w, bg)
		tp := measure(w, cs, phase, bg)
		after := timedCounters(w, bg)
		attempted += tp.attempted
		failed += tp.failed
		ms = layerMetrics(before, after, tp, plain, append(logs, bg))
		if err := writeSpans(filepath.Join(*out, "spans-"+*name+".jsonl"), append(logs, bg)); err != nil {
			return err
		}
	}
	if err := w.verify(cs, true); err != nil {
		return err
	}

	if *baseline {
		if err := runBaseline(sp, cs, csNs, phase, plain); err != nil {
			return err
		}
	}
	res := map[string]map[string]any{}
	for _, m := range ms {
		fmt.Printf("%-28s %14.4f %s\n", m.name, m.value, m.unit)
		res[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": attempted, "failed": failed, "metrics": res,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// windowsIn is the number of measuring windows in a phase of length d.
func windowsIn(d time.Duration) int { return max(1, int(d/windowLen)) }

// setUp builds the workload's system and warms it up setups times,
// verifying and discarding all but the last. It returns the last system
// and the median set-up time in seconds.
func setUp(sp spec, cs []*client, baseline bool) (bench, float64, error) {
	var times []float64
	var w bench
	for i := 0; i < setups; i++ {
		if w != nil {
			if err := w.verify(cs, false); err != nil {
				return nil, 0, fmt.Errorf("set-up %d: %w", i, err)
			}
		}
		for _, c := range cs {
			c.reset()
		}
		start := time.Now()
		w = sp.build(cs, baseline)
		drive(w, cs, sp.warm, 0, 0, nil)
		times = append(times, time.Since(start).Seconds())
	}
	return w, median(times), nil
}

// drive runs the clients concurrently until they have done count ops
// between them when count is positive. Otherwise it runs them for d,
// cut into n equal windows, and calls tick(i) at the end of window i.
// It returns the wall time until all clients joined.
func drive(w bench, cs []*client, count int, d time.Duration, n int, tick func(i int)) time.Duration {
	var stop atomic.Bool
	var total atomic.Int64
	done := make(chan struct{}, len(cs)) // one send per client
	start := time.Now()
	for _, c := range cs {
		go func(c *client) {
			defer func() { done <- struct{}{} }()
			for !stop.Load() {
				w.step(c)
				c.pub.Store(c.ops)
				if count > 0 && total.Add(1) >= int64(count) {
					stop.Store(true)
				}
			}
		}(c)
	}
	if count <= 0 {
		for i := 0; i < n; i++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(i+1) / time.Duration(n))))
			tick(i)
		}
		stop.Store(true)
	}
	for range cs {
		<-done
	}
	return time.Since(start)
}

// window is what one measuring window of a phase produced.
type window struct {
	wall  time.Duration
	ops   int64
	cpu   time.Duration
	alloc uint64
	waits []int64
}

// phaseResult is what one measured phase produced, in total and per
// window.
type phaseResult struct {
	wall              time.Duration
	ops               int64
	attempted, failed int64
	gcs               uint64
	windows           []window
}

func (p phaseResult) tput() float64 { return float64(p.ops) / p.wall.Seconds() }

// endToEnd returns the medians over windows of the per-window metrics.
func (p phaseResult) endToEnd() []metric {
	per := func(f func(w window) float64) float64 {
		xs := make([]float64, len(p.windows))
		for i, w := range p.windows {
			xs[i] = f(w)
		}
		return median(xs)
	}
	return []metric{
		{"throughput_ops_s", per(func(w window) float64 { return float64(w.ops) / w.wall.Seconds() }), "1/s"},
		{"victim_wait_p50_us", per(func(w window) float64 { return quantile(w.waits, 0.50) / 1e3 }), "us"},
		{"victim_wait_p99_us", per(func(w window) float64 { return quantile(w.waits, 0.99) / 1e3 }), "us"},
		{"cpu_us_per_op", per(func(w window) float64 { return perOp(float64(w.cpu)/1e3, float64(w.ops)) }), "us"},
		{"alloc_b_per_op", per(func(w window) float64 { return perOp(float64(w.alloc), float64(w.ops)) }), "B"},
	}
}

func (p phaseResult) samples() (n int) {
	for _, w := range p.windows {
		n += len(w.waits)
	}
	return n
}

// measure runs one phase of length d with the background work on.
func measure(w bench, cs []*client, d time.Duration, bg *spanLog) phaseResult {
	ops0, failed0 := totals(cs)
	n := windowsIn(d)
	snaps := make([]sample, n+1)
	cs[0].window.Store(0)
	snaps[0] = takeSample(cs)
	w.start(bg)
	wall := drive(w, cs, 0, d, n, func(i int) {
		cs[0].window.Store(int32(i + 1))
		snaps[i+1] = takeSample(cs)
	})
	w.stop()
	ops1, failed1 := totals(cs)
	p := phaseResult{
		wall:      wall,
		ops:       ops1 - ops0,
		failed:    failed1 - failed0,
		attempted: ops1 - ops0 + failed1 - failed0,
		gcs:       snaps[n].gcs - snaps[0].gcs,
	}
	for i := 0; i < n; i++ {
		a, b := snaps[i], snaps[i+1]
		win := window{wall: b.at.Sub(a.at), ops: b.ops - a.ops, cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc}
		for _, c := range cs {
			win.waits = append(win.waits, c.waits[i].vals...)
		}
		p.windows = append(p.windows, win)
	}
	return p
}

func totals(cs []*client) (ops, failed int64) {
	for _, c := range cs {
		ops += c.ops
		failed += c.failed
	}
	return ops, failed
}

// timedCounters reads the lock's Stats inside a stats.snapshot span.
func timedCounters(w bench, bg *spanLog) counters {
	s := nanotime()
	k := w.counters()
	bg.timed(spStats, s, nanotime())
	return k
}

// layerMetrics derives the per-layer metrics of the traced phase.
func layerMetrics(a, b counters, tp, plain phaseResult, logs []*spanLog) []metric {
	ops := float64(tp.ops)
	q := func(n spanName, p float64) float64 { return quantile(durations(logs, n), p) }
	var doCalls float64
	for _, l := range logs {
		doCalls += float64(l.sample[spDo].n)
	}
	clientTime := tp.wall.Seconds() * 2 * float64(time.Second)
	seen := float64(b.ringSeen - a.ringSeen)
	return []metric{
		{"mutex.lock_ns.p50", q(spMutexLock, 0.5), "ns"},
		{"mutex.lock_ns.p99", q(spMutexLock, 0.99), "ns"},
		{"mutex.unlock_ns.p50", q(spMutexUnlock, 0.5), "ns"},
		{"mutex.unlock_ns.p99", q(spMutexUnlock, 0.99), "ns"},
		{"mutex.handoffs_per_op", perOp(float64(b.handoffs-a.handoffs), ops), "1/op"},
		{"combine.do_wait_ns.p50", q(spDoWait, 0.5), "ns"},
		{"combine.do_wait_ns.p99", q(spDoWait, 0.99), "ns"},
		{"combine.do_ns.p50", q(spDo, 0.5), "ns"},
		{"combine.combined_frac", perOp(float64(b.combined-a.combined), doCalls), "frac"},
		{"core.bans_per_kop", 1e3 * perOp(float64(b.bans-a.bans), ops), "1/kop"},
		{"core.ban_time_frac", float64(b.banTime-a.banTime) / clientTime, "frac"},
		{"stats.snapshot_ns.p50", q(spStats, 0.5), "ns"},
		{"stats.snapshot_ns.p99", q(spStats, 0.99), "ns"},
		{"manager.lock_ns.p50", q(spManagerLock, 0.5), "ns"},
		{"manager.lock_ns.p99", q(spManagerLock, 0.99), "ns"},
		{"manager.unlock_ns.p50", q(spManagerUnlock, 0.5), "ns"},
		{"manager.unlock_ns.p99", q(spManagerUnlock, 0.99), "ns"},
		{"manager.materialized_per_kop", 1e3 * perOp(float64(b.materialized-a.materialized), ops), "1/kop"},
		{"manager.reaped_per_kop", 1e3 * perOp(float64(b.reaped-a.reaped), ops), "1/kop"},
		{"manager.timeouts", float64(tp.failed), "count"},
		{"export.scrape_ns.p50", q(spScrape, 0.5), "ns"},
		{"export.scrape_ns.p99", q(spScrape, 0.99), "ns"},
		{"export.scrape_bytes", perOp(float64(b.scrapeBytes-a.scrapeBytes), float64(b.scrapes-a.scrapes)), "B"},
		{"rwlock.rlock_ns.p50", q(spRLock, 0.5), "ns"},
		{"rwlock.rlock_ns.p99", q(spRLock, 0.99), "ns"},
		{"rwlock.runlock_ns.p50", q(spRUnlock, 0.5), "ns"},
		{"rwlock.wlock_ns.p50", q(spWLock, 0.5), "ns"},
		{"rwlock.wlock_ns.p99", q(spWLock, 0.99), "ns"},
		{"rwlock.wunlock_ns.p50", q(spWUnlock, 0.5), "ns"},
		{"trace.events_per_op", perOp(seen, ops), "1/op"},
		{"trace.dropped_frac", perOp(float64(b.ringDropped-a.ringDropped), seen), "frac"},
		{"runtime.gc_per_kop", 1e3 * perOp(float64(tp.gcs), ops), "1/kop"},
		{"bench.op_self_ns.p50", q(spOpSelf, 0.5), "ns"},
		{"bench.trace_overhead_frac", 1 - tp.tput()/plain.tput(), "frac"},
	}
}

// runBaseline runs the same inputs against the sync lock the workload
// replaces and prints the comparison. Nothing here is gated: the
// estimated hold is op count × the measured critical-section cost, the
// same estimate for both locks.
func runBaseline(sp spec, cs []*client, csNs map[string]float64, phase time.Duration, ref phaseResult) error {
	sclEst := jain(sp.est(cs, csNs))
	w, _, err := setUp(sp, cs, true)
	if err != nil {
		return err
	}
	armVictims(sp, cs)
	runtime.GC()
	p := measure(w, cs, phase, nil)
	if err := w.verify(cs, true); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	fmt.Println("--- baseline: sync locks on the same inputs (reference only, not gated) ---")
	fmt.Printf("%-24s %14s %14s\n", "", "scl", "sync")
	a, b := ref.endToEnd(), p.endToEnd()
	for i := range a {
		fmt.Printf("%-24s %14.4f %14.4f\n", a[i].name, a[i].value, b[i].value)
	}
	fmt.Printf("%-24s %14.4f %14.4f\n", "jain_hold_estimated", sclEst, jain(sp.est(cs, csNs)))
	fmt.Printf("overhead ratio (sync ÷ scl throughput) %.3f\n", b[0].value/a[0].value)
	fmt.Println("--- end baseline ---")
	return nil
}

// armVictims turns on victim-wait sampling on the clients that issue
// victim ops: the light client, or both when the victim is an op class.
func armVictims(sp spec, cs []*client) {
	for _, c := range cs {
		if c.id == 1 || sp.bothVictims {
			c.every = sp.every
		}
	}
}

// csCost times each critical-section length once, for the report.
func csCost(iters map[string]int) map[string]float64 {
	out := map[string]float64{}
	for k, n := range iters {
		var x uint64
		start := time.Now()
		for i := 0; i < calibrate; i++ {
			x = work(n, x)
		}
		out[k] = float64(time.Since(start).Nanoseconds()) / calibrate
		sinkAll += x
	}
	return out
}

var sinkAll uint64

func sortedKeys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
