package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"scl"
	"scl/export"
	"scl/trace"
)

// op is one pre-generated client operation.
type op struct {
	key    int32 // key index (tenant-table)
	tenant int8  // light tenant index (tenant-table)
	turn   bool  // first op of a light tenant's turn: a fresh deadline
	write  bool  // exclusive op (rw-traced)
}

// client is one driving goroutine's state. Only its own goroutine
// touches it, except that a combining Mutex may run the client's Do
// closure on the other goroutine while this one waits inside Do. The
// padding keeps two clients' fields off each other's cache lines.
type client struct {
	_   [64]byte
	id  int
	seq []op
	pos int

	ops, failed int64 // completed critical sections; failed attempts
	reads       int64
	writes      int64
	tenantOps   [tableLights]int64

	every   int64 // time one victim op in every this many; 0 = none
	victims int64
	window  *atomic.Int32 // current measuring window, shared by all clients
	waits   []reservoir   // sampled victim waits per window, ns
	tr      *spanLog      // nil when the benchmark's spans are off
	sink    uint64
	pub     atomic.Int64 // ops, published for the window ticks

	// Handle.Do bookkeeping (mutex-handoff).
	doSeq        int64
	doFn         func()
	timing       bool
	csAt, csDone int64

	// The current light tenant turn's deadline (tenant-table).
	ctx    context.Context
	cancel context.CancelFunc
	_      [64]byte
}

func (c *client) reset() {
	c.pos, c.ops, c.failed, c.reads, c.writes = 0, 0, 0, 0, 0
	c.tenantOps = [tableLights]int64{}
	c.every, c.victims, c.tr = 0, 0, nil
	c.doSeq, c.doFn, c.timing = 0, nil, false
	c.ctx, c.cancel = nil, nil
	c.pub.Store(0)
	for i := range c.waits {
		c.waits[i].vals, c.waits[i].n = c.waits[i].vals[:0], 0
	}
}

func (c *client) next() op {
	o := c.seq[c.pos]
	if c.pos++; c.pos == len(c.seq) {
		c.pos = 0
	}
	return o
}

func (c *client) addWait(ns int64) {
	c.waits[c.window.Load()].add(ns)
}

// timeVictim reports whether this victim op is one of the sampled ones.
func (c *client) timeVictim() bool {
	c.victims++
	return c.every > 0 && c.victims%c.every == 0
}

// work is the critical section's CPU work: a fixed number of dependent
// multiply-adds, so a CS costs the same on every run and reads no clock.
//
//go:noinline
func work(n int, x uint64) uint64 {
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

var epoch = time.Now()

// nanotime is monotonic nanoseconds since the process started.
func nanotime() int64 { return int64(time.Since(epoch)) }

// bench is one workload's system under test, built on the two clients.
type bench interface {
	// step runs one op of client c.
	step(c *client)
	// counters reads the lock's public statistics.
	counters() counters
	// start and stop run work beside the clients during a measured phase.
	start(bg *spanLog)
	stop()
	// verify checks the lock against what the clients counted, closes
	// every entity and checks the lock again. measured is false for a
	// set-up that only warmed up.
	verify(cs []*client, measured bool) error
}

// counters is what the benchmark reads from a lock's public Stats.
type counters struct {
	grants       int64     // acquisitions the lock booked
	holdPerW     []float64 // per-entity hold time ÷ weight, ns
	bans         int64
	banTime      time.Duration
	handoffs     int64
	combined     int64
	materialized int64
	reaped       int64
	ringSeen     uint64
	ringDropped  uint64
	scrapes      int64
	scrapeBytes  int64
}

// spec describes one workload.
type spec struct {
	why         string
	gen         func(r *rand.Rand) [2][]op
	build       func(cs []*client, baseline bool) bench
	warm        int                                                   // warm-up ops, all clients together
	every       int64                                                 // victim sampling period
	cs          map[string]int                                        // critical-section iteration counts, for the report
	victim      string                                                // which ops are the victim class
	bothVictims bool                                                  // both clients issue victim ops
	est         func(cs []*client, csNs map[string]float64) []float64 // per-entity hold ÷ weight estimated from op counts
}

var workloads = map[string]spec{
	"mutex-handoff": {
		why:    "every release of a zero-slice Mutex is a slice boundary with the other entity waiting: slow path, queue, park/wake, combining",
		gen:    func(*rand.Rand) [2][]op { return [2][]op{{{}}, {{}}} },
		build:  newHandoff,
		warm:   100000,
		every:  4,
		cs:     map[string]int{"heavy": handoffHeavy, "light": handoffLight},
		victim: "light entity's Handle.Do (call to closure start)",
		est: func(cs []*client, ns map[string]float64) []float64 {
			return []float64{float64(cs[0].ops) * ns["heavy"], float64(cs[1].ops) * ns["light"]}
		},
	},
	"tenant-table": {
		why:    "a Manager table with lock GC and Zipf keys: mostly uncontended grants through the stripes, handle pool and per-key fast path",
		gen:    genTable,
		build:  newTable,
		warm:   20000,
		every:  8,
		cs:     map[string]int{"noisy": tableNoisy, "light": tableLight},
		victim: "light tenants' Tenant.LockContext (call to grant)",
		est: func(cs []*client, ns map[string]float64) []float64 {
			xs := []float64{float64(cs[0].ops) * ns["noisy"]}
			for _, n := range cs[1].tenantOps {
				xs = append(xs, float64(n)*ns["light"])
			}
			return xs
		},
	},
	"rw-traced": {
		why:         "an RWLock with a trace.Ring installed, 90% reads and 10% writes: the only workload with the product tracer on and writers beside readers",
		gen:         genRW,
		build:       newRW,
		warm:        50000,
		every:       1,
		cs:          map[string]int{"read": rwRead, "write": rwWrite},
		victim:      "writers' WLock (call to grant)",
		bothVictims: true,
		est: func(cs []*client, ns map[string]float64) []float64 {
			var r, w float64
			for _, c := range cs {
				r += float64(c.reads) * ns["read"]
				w += float64(c.writes) * ns["write"]
			}
			return []float64{r / rwReadWeight, w / rwWriteWeight}
		},
	},
}

// ---- mutex-handoff ----

const (
	handoffLight = 40
	handoffHeavy = 3 * handoffLight
)

// handoff drives one zero-slice Mutex (k-SCL) from a heavy entity using
// Lock/Unlock and a light entity, the victim, using Do.
type handoff struct {
	m     *scl.Mutex
	h     [2]*scl.Handle
	base  sync.Mutex // baseline mode only
	owner atomic.Int64
	doRan int64 // last Do sequence number run; written under the lock
	bad   atomic.Int64
}

func newHandoff(cs []*client, baseline bool) bench {
	w := &handoff{}
	if !baseline {
		w.m = scl.NewMutex(scl.Options{Slice: -1, Name: "handoff"})
		w.h[0] = w.m.Register().SetName("heavy")
		w.h[1] = w.m.Register().SetName("light")
	}
	light := cs[1]
	light.doFn = func() { w.doBody(light) }
	return w
}

// section is the critical section with its mutual-exclusion probe.
func (w *handoff) section(c *client, iters int) {
	me := int64(c.id + 1)
	if !w.owner.CompareAndSwap(0, me) {
		w.bad.Add(1)
	}
	c.sink = work(iters, c.sink)
	if !w.owner.CompareAndSwap(me, 0) {
		w.bad.Add(1)
	}
}

// doBody is the light entity's Do closure. It may run on the heavy
// goroutine when that one combines it; the light goroutine waits in Do.
func (w *handoff) doBody(c *client) {
	if c.timing {
		c.csAt = nanotime()
	}
	if w.doRan+1 != c.doSeq {
		w.bad.Add(1)
	}
	w.doRan = c.doSeq
	w.section(c, handoffLight)
	if c.timing {
		c.csDone = nanotime()
	}
}

func (w *handoff) step(c *client) {
	if c.id == 0 {
		w.heavy(c)
	} else if w.m == nil {
		w.baseLight(c)
	} else {
		w.light(c)
	}
	c.ops++
}

func (w *handoff) heavy(c *client) {
	if w.m == nil {
		w.base.Lock()
		w.section(c, handoffHeavy)
		w.base.Unlock()
		return
	}
	t := c.tr
	if t == nil {
		w.h[0].Lock()
		w.section(c, handoffHeavy)
		w.h[0].Unlock()
		return
	}
	t.beginOp()
	s := t.now()
	w.h[0].Lock()
	t.child(spMutexLock, s, t.now())
	s = t.now()
	w.section(c, handoffHeavy)
	t.child(spCS, s, t.now())
	s = t.now()
	w.h[0].Unlock()
	t.child(spMutexUnlock, s, t.now())
	t.endOp()
}

func (w *handoff) light(c *client) {
	c.doSeq++
	if t := c.tr; t != nil {
		t.beginOp()
		c.timing = true
		s := t.now()
		w.h[1].Do(c.doFn)
		do := t.child(spDo, s, t.now())
		t.under(do, spDoWait, s, c.csAt)
		t.under(do, spCS, c.csAt, c.csDone)
		t.endOp()
	} else if c.timeVictim() {
		c.timing = true
		s := nanotime()
		w.h[1].Do(c.doFn)
		c.addWait(c.csAt - s)
	} else {
		c.timing = false
		w.h[1].Do(c.doFn)
	}
	if w.doRan != c.doSeq {
		w.bad.Add(1)
	}
}

func (w *handoff) baseLight(c *client) {
	timed := c.timeVictim()
	var s int64
	if timed {
		s = nanotime()
	}
	w.base.Lock()
	if timed {
		c.addWait(nanotime() - s)
	}
	w.section(c, handoffLight)
	w.base.Unlock()
}

func (w *handoff) counters() counters {
	if w.m == nil {
		return counters{}
	}
	st := w.m.Stats()
	var k counters
	for _, h := range w.h {
		id := h.ID()
		k.grants += st.Acquisitions[id]
		k.holdPerW = append(k.holdPerW, float64(st.Hold[id]))
		k.bans += st.Bans[id]
		k.banTime += st.BanTime[id]
		k.handoffs += st.Handoffs[id]
		k.combined += st.Combined[id]
	}
	return k
}

func (w *handoff) start(*spanLog) {}
func (w *handoff) stop()          {}

func (w *handoff) verify(cs []*client, _ bool) error {
	if n := w.bad.Load(); n != 0 {
		return fmt.Errorf("mutex-handoff: %d mutual-exclusion or exactly-once violations", n)
	}
	if w.m == nil {
		return nil
	}
	if err := w.m.CheckInvariants(); err != nil {
		return fmt.Errorf("mutex-handoff: %w", err)
	}
	if got, want := w.counters().grants, cs[0].ops+cs[1].ops; got != want {
		return fmt.Errorf("mutex-handoff: Stats counts %d acquisitions, clients completed %d", got, want)
	}
	if w.doRan != cs[1].doSeq {
		return fmt.Errorf("mutex-handoff: %d Do calls but %d closures ran", cs[1].doSeq, w.doRan)
	}
	for _, h := range w.h {
		h.Close()
	}
	if n := w.m.Entities(); n != 0 {
		return fmt.Errorf("mutex-handoff: %d entities still registered after every Handle closed", n)
	}
	if err := w.m.CheckInvariants(); err != nil {
		return fmt.Errorf("mutex-handoff: after close: %w", err)
	}
	return nil
}

// ---- tenant-table ----

const (
	tableKeys     = 1 << 14
	tableLights   = 8
	tableLight    = 40
	tableNoisy    = 10 * tableLight
	tableSlice    = 20 * time.Microsecond
	tableLockIdle = 20 * time.Millisecond
	tableDeadline = time.Second
	scrapeEvery   = 100 * time.Millisecond
)

// genTable draws Zipf key indices for both clients (the noisy tenant's
// skew is steeper, so it sits on the hot head) and the light client's
// tenant rotation: turns of 1–8 ops, tenant after tenant.
func genTable(r *rand.Rand) [2][]op {
	const n = 1 << 16
	noisy := rand.NewZipf(r, 1.5, 1, tableKeys-1)
	light := rand.NewZipf(r, 1.1, 1, tableKeys-1)
	var seq [2][]op
	for i := 0; i < n; i++ {
		seq[0] = append(seq[0], op{key: int32(noisy.Uint64())})
	}
	tenant, left := 0, 0
	for i := 0; i < n; i++ {
		o := op{key: int32(light.Uint64())}
		if left == 0 {
			tenant = (tenant + 1) % tableLights
			left = 1 + r.Intn(8)
			o.turn = true
		}
		left--
		o.tenant = int8(tenant)
		seq[1] = append(seq[1], o)
	}
	return seq
}

// table drives a Manager lock table from one noisy tenant (client 0) and
// eight light tenants, the victims, that take turns on client 1.
type table struct {
	m     *scl.Manager
	reg   *export.Registry
	noisy *scl.Tenant
	light [tableLights]*scl.Tenant
	base  map[string]*sync.Mutex // baseline mode only
	keys  []string
	owner []atomic.Int32
	bad   atomic.Int64

	quit, done  chan struct{}
	scrapes     int64
	scrapeBytes int64
	scrapeErr   error
	maxKeys     int
}

func newTable(_ []*client, baseline bool) bench {
	w := &table{keys: make([]string, tableKeys), owner: make([]atomic.Int32, tableKeys)}
	for i := range w.keys {
		w.keys[i] = fmt.Sprintf("k%05d", i)
	}
	if baseline {
		w.base = make(map[string]*sync.Mutex, tableKeys)
		for _, k := range w.keys {
			w.base[k] = new(sync.Mutex)
		}
		return w
	}
	w.m = scl.NewManager(scl.ManagerOptions{Name: "table", Lock: scl.Options{Slice: tableSlice}},
		scl.WithLockGC(tableLockIdle))
	w.reg = export.NewRegistry()
	w.reg.RegisterManager("table", w.m)
	w.noisy = w.m.Tenant("noisy", 1)
	for i := range w.light {
		w.light[i] = w.m.Tenant(fmt.Sprintf("light%d", i), 1)
	}
	return w
}

func (w *table) section(c *client, key int32, iters int) {
	me := int32(c.id + 1)
	if !w.owner[key].CompareAndSwap(0, me) {
		w.bad.Add(1)
	}
	c.sink = work(iters, c.sink)
	if !w.owner[key].CompareAndSwap(me, 0) {
		w.bad.Add(1)
	}
}

func (w *table) step(c *client) {
	o := c.next()
	if c.id == 0 {
		w.noisyOp(c, o)
	} else {
		w.lightOp(c, o)
	}
}

func (w *table) noisyOp(c *client, o op) {
	key := w.keys[o.key]
	switch t := c.tr; {
	case w.m == nil:
		mu := w.base[key]
		mu.Lock()
		w.section(c, o.key, tableNoisy)
		mu.Unlock()
	case t == nil:
		g := w.noisy.Lock(key)
		w.section(c, o.key, tableNoisy)
		g.Unlock()
	default:
		t.beginOp()
		s := t.now()
		g := w.noisy.Lock(key)
		t.child(spManagerLock, s, t.now())
		s = t.now()
		w.section(c, o.key, tableNoisy)
		t.child(spCS, s, t.now())
		s = t.now()
		g.Unlock()
		t.child(spManagerUnlock, s, t.now())
		t.endOp()
	}
	c.ops++
}

func (w *table) lightOp(c *client, o op) {
	key := w.keys[o.key]
	if w.m == nil {
		mu := w.base[key]
		timed := c.timeVictim()
		var s int64
		if timed {
			s = nanotime()
		}
		mu.Lock()
		if timed {
			c.addWait(nanotime() - s)
		}
		w.section(c, o.key, tableLight)
		mu.Unlock()
		c.ops++
		c.tenantOps[o.tenant]++
		return
	}
	if o.turn || c.ctx == nil {
		if c.cancel != nil {
			c.cancel()
		}
		c.ctx, c.cancel = context.WithTimeout(context.Background(), tableDeadline)
	}
	ten := w.light[o.tenant]
	var g *scl.Grant
	var err error
	if t := c.tr; t != nil {
		t.beginOp()
		s := t.now()
		g, err = ten.LockContext(c.ctx, key)
		t.child(spManagerLock, s, t.now())
		if err == nil {
			s = t.now()
			w.section(c, o.key, tableLight)
			t.child(spCS, s, t.now())
			s = t.now()
			g.Unlock()
			t.child(spManagerUnlock, s, t.now())
		}
		t.endOp()
	} else {
		timed := c.timeVictim()
		var s int64
		if timed {
			s = nanotime()
		}
		g, err = ten.LockContext(c.ctx, key)
		if timed && err == nil {
			c.addWait(nanotime() - s)
		}
		if err == nil {
			w.section(c, o.key, tableLight)
			g.Unlock()
		}
	}
	if err != nil {
		c.failed++
		return
	}
	c.ops++
	c.tenantOps[o.tenant]++
}

// countWriter counts the bytes of a scrape and discards them.
type countWriter struct{ n int64 }

func (cw *countWriter) Write(p []byte) (int, error) {
	cw.n += int64(len(p))
	return len(p), nil
}

// start runs the scraper: a 10 Hz Manager.Stats plus WritePrometheus.
func (w *table) start(bg *spanLog) {
	if w.m == nil {
		return
	}
	w.quit, w.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(w.done)
		tk := time.NewTicker(scrapeEvery)
		defer tk.Stop()
		for {
			select {
			case <-w.quit:
				return
			case <-tk.C:
			}
			s := nanotime()
			st := w.m.Stats()
			e := nanotime()
			var cw countWriter
			if err := w.reg.WritePrometheus(&cw); err != nil && w.scrapeErr == nil {
				w.scrapeErr = err
			}
			f := nanotime()
			w.maxKeys = max(w.maxKeys, st.Keys)
			w.scrapes++
			w.scrapeBytes += cw.n
			if bg != nil {
				bg.timed(spStats, s, e)
				bg.timed(spScrape, e, f)
			}
		}
	}()
}

func (w *table) stop() {
	if w.quit != nil {
		close(w.quit)
		<-w.done
		w.quit = nil
	}
}

func (w *table) counters() counters {
	if w.m == nil {
		return counters{}
	}
	st := w.m.Stats()
	k := counters{grants: st.Grants, materialized: st.Materialized, reaped: st.LocksReaped,
		scrapes: w.scrapes, scrapeBytes: w.scrapeBytes}
	for _, t := range append([]*scl.Tenant{w.noisy}, w.light[:]...) {
		ts, _ := st.Tenant(t.ID())
		k.holdPerW = append(k.holdPerW, float64(ts.Hold)/float64(t.Weight()))
		k.bans += ts.Bans
		k.banTime += ts.BanTime
	}
	return k
}

func (w *table) verify(cs []*client, measured bool) error {
	if cs[1].cancel != nil {
		cs[1].cancel()
	}
	if n := w.bad.Load(); n != 0 {
		return fmt.Errorf("tenant-table: %d mutual-exclusion violations", n)
	}
	if w.m == nil {
		return nil
	}
	if w.scrapeErr != nil {
		return fmt.Errorf("tenant-table: scrape: %w", w.scrapeErr)
	}
	if err := w.m.CheckInvariants(); err != nil {
		return fmt.Errorf("tenant-table: %w", err)
	}
	st := w.m.Stats()
	if want := cs[0].ops + cs[1].ops; st.Grants != want {
		return fmt.Errorf("tenant-table: Stats counts %d grants, clients completed %d", st.Grants, want)
	}
	for i, t := range append([]*scl.Tenant{w.noisy}, w.light[:]...) {
		want := cs[0].ops
		if i > 0 {
			want = cs[1].tenantOps[i-1]
		}
		if ts, _ := st.Tenant(t.ID()); ts.Grants != want || ts.Inflight != 0 {
			return fmt.Errorf("tenant-table: tenant %s booked %d grants (%d in flight), completed %d",
				t.Name(), ts.Grants, ts.Inflight, want)
		}
	}
	if st.Keys != int(st.Materialized-st.LocksReaped) || st.Keys > tableKeys || w.maxKeys > tableKeys {
		return fmt.Errorf("tenant-table: %d keys live (max %d seen), %d materialized, %d reaped, key space %d",
			st.Keys, w.maxKeys, st.Materialized, st.LocksReaped, tableKeys)
	}
	if measured && st.LocksReaped == 0 {
		return fmt.Errorf("tenant-table: lock GC reaped no key lock in the measured phase")
	}
	w.noisy.Close()
	for _, t := range w.light {
		t.Close()
	}
	if err := w.m.CheckInvariants(); err != nil {
		return fmt.Errorf("tenant-table: after close: %w", err)
	}
	if st := w.m.Stats(); st.Identities != 0 {
		return fmt.Errorf("tenant-table: %d tenant identities left after every Tenant closed", st.Identities)
	}
	return nil
}

// ---- rw-traced ----

const (
	rwRead        = 100
	rwWrite       = 100
	rwReadWeight  = 9
	rwWriteWeight = 1
	rwPeriod      = 2 * time.Microsecond
	rwRingCap     = 1 << 14
)

func genRW(r *rand.Rand) [2][]op {
	const n = 1 << 16
	var seq [2][]op
	for c := range seq {
		for i := 0; i < n; i++ {
			seq[c] = append(seq[c], op{write: r.Intn(10) == 0})
		}
	}
	return seq
}

// rw drives one RWLock with a trace.Ring installed; writers are the
// victim class.
type rw struct {
	l       *scl.RWLock
	ring    *trace.Ring
	base    sync.RWMutex // baseline mode only
	readers atomic.Int64
	writer  atomic.Int64
	bad     atomic.Int64
}

func newRW(_ []*client, baseline bool) bench {
	w := &rw{}
	if !baseline {
		w.ring = trace.NewRing(rwRingCap)
		w.l = scl.NewRWLock(rwReadWeight, rwWriteWeight, rwPeriod, scl.WithName("rw"))
		w.l.SetTracer(w.ring)
	}
	return w
}

func (w *rw) readSection(c *client) {
	w.readers.Add(1)
	if w.writer.Load() != 0 {
		w.bad.Add(1)
	}
	c.sink = work(rwRead, c.sink)
	w.readers.Add(-1)
}

func (w *rw) writeSection(c *client) {
	if !w.writer.CompareAndSwap(0, 1) || w.readers.Load() != 0 {
		w.bad.Add(1)
	}
	c.sink = work(rwWrite, c.sink)
	w.writer.Store(0)
}

func (w *rw) step(c *client) {
	o := c.next()
	if o.write {
		w.write(c)
		c.writes++
	} else {
		w.read(c)
		c.reads++
	}
	c.ops++
}

func (w *rw) read(c *client) {
	switch t := c.tr; {
	case w.l == nil:
		w.base.RLock()
		w.readSection(c)
		w.base.RUnlock()
	case t == nil:
		w.l.RLock()
		w.readSection(c)
		w.l.RUnlock()
	default:
		t.beginOp()
		s := t.now()
		w.l.RLock()
		t.child(spRLock, s, t.now())
		s = t.now()
		w.readSection(c)
		t.child(spCS, s, t.now())
		s = t.now()
		w.l.RUnlock()
		t.child(spRUnlock, s, t.now())
		t.endOp()
	}
}

func (w *rw) write(c *client) {
	if t := c.tr; t != nil {
		t.beginOp()
		s := t.now()
		w.l.WLock()
		t.child(spWLock, s, t.now())
		s = t.now()
		w.writeSection(c)
		t.child(spCS, s, t.now())
		s = t.now()
		w.l.WUnlock()
		t.child(spWUnlock, s, t.now())
		t.endOp()
		return
	}
	timed := c.timeVictim()
	var s int64
	if timed {
		s = nanotime()
	}
	if w.l == nil {
		w.base.Lock()
	} else {
		w.l.WLock()
	}
	if timed {
		c.addWait(nanotime() - s)
	}
	w.writeSection(c)
	if w.l == nil {
		w.base.Unlock()
	} else {
		w.l.WUnlock()
	}
}

func (w *rw) counters() counters {
	if w.l == nil {
		return counters{}
	}
	st := w.l.Stats()
	return counters{
		grants:      st.ReaderOps + st.WriterOps,
		holdPerW:    []float64{float64(st.ReaderHold) / rwReadWeight, float64(st.WriterHold) / rwWriteWeight},
		ringSeen:    w.ring.Seen(),
		ringDropped: w.ring.Dropped(),
	}
}

func (w *rw) start(*spanLog) {}
func (w *rw) stop()          {}

func (w *rw) verify(cs []*client, _ bool) error {
	if n := w.bad.Load(); n != 0 {
		return fmt.Errorf("rw-traced: %d reader/writer exclusion violations", n)
	}
	if w.l == nil {
		return nil
	}
	if err := w.l.CheckInvariants(); err != nil {
		return fmt.Errorf("rw-traced: %w", err)
	}
	st := w.l.Stats()
	var reads, writes int64
	for _, c := range cs {
		reads += c.reads
		writes += c.writes
	}
	if st.ReaderOps != reads || st.WriterOps != writes || st.ReaderCancels+st.WriterCancels != 0 {
		return fmt.Errorf("rw-traced: Stats counts %d reads, %d writes, %d cancels; clients completed %d reads, %d writes",
			st.ReaderOps, st.WriterOps, st.ReaderCancels+st.WriterCancels, reads, writes)
	}
	if w.ring.Seen() == 0 {
		return fmt.Errorf("rw-traced: the installed trace.Ring saw no events")
	}
	return nil
}
