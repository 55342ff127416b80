// Package oracle is the differential checker: it executes the same
// deterministic script (sim.Script — lock, unlock, timeout/cancel,
// close, and think operations with explicit timings) through two
// independent implementations of the paper's policy and compares what
// they observed:
//
//   - the discrete-event simulator's u-SCL (sim.RunScript), and
//   - the real scl.Mutex, driven under the deterministic checker
//     scheduler (internal/check) with a FirstChooser schedule and the
//     virtual clock, so its timing is as exact as the simulator's.
//
// Both implementations share internal/core's accounting policy but
// nothing else — queueing, slices, handoff, cancellation, and GC are
// implemented twice. Agreement on grant order, timeout outcomes, ban
// counts, and usage shares is therefore real evidence that the library
// implements the policy the simulator (and the paper's experiments)
// predict; disagreement pinpoints which side deviates, on a script
// small enough to read.
//
// # Documented divergences
//
// The two sides are compared modulo the following structural,
// documented divergences; anything else the comparator reports is a
// finding:
//
//   - Cost-model jitter: the simulator charges nanosecond-scale
//     micro-architectural costs (CAS, park/wake, handoff) that the
//     checker's virtual clock does not. Scripts keep decisions
//     millisecond-separated so no discrete outcome (grant order, ban
//     incidence, timeout outcome) depends on them; the residual shows
//     up only in measured hold time, absorbed by ShareTolerance.
//   - Ban length, not count: penalties are computed from usage
//     integrals, which differ by the same nanosecond jitter, so ban
//     lengths differ in their low digits. The comparator checks ban
//     counts per entity, not lengths.
//   - Prefetch: the oracle's sim side runs the parked (no-prefetch)
//     lock variant, because a spinning head waiter could never abandon
//     on timeout while the real LockContext can abandon any queued
//     waiter until the grant lands. Prefetch changes handoff latency
//     (sub-microsecond), not grant order.
//
// A Case may additionally allowlist per-script divergence codes via
// Allowed; each must be justified where the case is defined. The
// curated Cases currently allow none.
package oracle

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"scl"
	"scl/internal/check"
	"scl/sim"
	"scl/trace"
)

// Divergence codes the comparator can emit.
const (
	// DivGrantOrder: the global grant orders differ.
	DivGrantOrder = "grant-order"
	// DivTimeouts: per-entity timed-out acquire counts differ.
	DivTimeouts = "timeouts"
	// DivBans: per-entity imposed-penalty counts differ.
	DivBans = "bans"
	// DivHoldShare: an entity's share of total hold time differs by
	// more than ShareTolerance.
	DivHoldShare = "hold-share"
)

// ShareTolerance bounds the acceptable per-entity hold-share gap; it
// absorbs the simulator's nanosecond-scale cost-model jitter on
// millisecond-scale scripts.
const ShareTolerance = 0.05

// Divergence is one comparator finding.
type Divergence struct {
	// Code is one of the Div* constants.
	Code string
	// Detail describes the mismatch with both sides' values.
	Detail string
}

// String renders the divergence.
func (d Divergence) String() string { return d.Code + ": " + d.Detail }

// Compare checks two executions of one script for policy equivalence
// and returns every divergence (empty = equivalent).
func Compare(simR, realR sim.ScriptResult) []Divergence {
	var out []Divergence
	if !slices.Equal(simR.Grants, realR.Grants) {
		out = append(out, Divergence{DivGrantOrder,
			fmt.Sprintf("sim %v, real %v", simR.Grants, realR.Grants)})
	}
	if !slices.Equal(simR.Timeouts, realR.Timeouts) {
		out = append(out, Divergence{DivTimeouts,
			fmt.Sprintf("sim %v, real %v", simR.Timeouts, realR.Timeouts)})
	}
	if !slices.Equal(simR.Bans, realR.Bans) {
		out = append(out, Divergence{DivBans,
			fmt.Sprintf("sim %v, real %v", simR.Bans, realR.Bans)})
	}
	for e := range simR.Hold {
		a, b := simR.HoldShare(e), realR.HoldShare(e)
		if d := a - b; d > ShareTolerance || d < -ShareTolerance {
			out = append(out, Divergence{DivHoldShare,
				fmt.Sprintf("entity %d: sim %.3f, real %.3f", e, a, b)})
		}
	}
	return out
}

// RunSim executes the script on the simulator side.
func RunSim(s sim.Script) sim.ScriptResult { return sim.RunScript(s) }

// RunReal executes the script against the real scl.Mutex under the
// deterministic checker: entities become managed goroutines on the
// virtual clock, scheduled by a FirstChooser (with millisecond-
// separated scripts at most one goroutine is enabled at a time, so the
// schedule is forced by the script's timings, as in the simulator). It
// returns an error if the run fails (deadlock, invariant violation).
func RunReal(s sim.Script) (sim.ScriptResult, error) {
	slice := s.Slice
	if slice == 0 {
		slice = 2 * time.Millisecond
	}
	res := sim.ScriptResult{
		Timeouts: make([]int, len(s.Entities)),
		Bans:     make([]int, len(s.Entities)),
		Hold:     make([]time.Duration, len(s.Entities)),
	}
	var bans BanCounter
	var m *scl.Mutex
	// idToEnt maps live handle IDs to entity indices; written only from
	// managed goroutines (serial under the checker) and the pre-Run
	// setup below.
	idToEnt := make(map[int64]int)

	sched := check.NewSched(check.NewFirstChooser(), 0)
	check.Install(sched)
	defer check.Uninstall(sched)

	m = scl.NewMutex(scl.Options{Slice: slice, Tracer: &bans, Name: "oracle"})
	for i, ent := range s.Entities {
		i, ent := i, ent
		h := m.Register()
		idToEnt[h.ID()] = i
		sched.Go(ent.Name, func() {
			defer func() {
				if h != nil {
					h.Close()
				}
			}()
			check.Sleep(ent.Start)
			for _, op := range ent.Ops {
				switch op.Kind {
				case sim.OpThink:
					check.Sleep(op.Think)
				case sim.OpAcquire, sim.OpAcquireTimeout:
					if h == nil {
						h = m.Register()
						idToEnt[h.ID()] = i
					}
					if op.Kind == sim.OpAcquireTimeout {
						ctx, cancel := context.WithCancel(context.Background())
						sched.Go(ent.Name+".cancel", func() {
							check.Sleep(op.Timeout)
							cancel()
						})
						err := h.LockContext(ctx)
						cancel()
						if err != nil {
							res.Timeouts[i]++
							continue
						}
					} else {
						h.Lock()
					}
					res.Grants = append(res.Grants, i)
					at, _ := check.Now()
					check.Sleep(op.Hold)
					now, _ := check.Now()
					res.Hold[i] += now - at
					h.Unlock()
				case sim.OpClose:
					h.Close()
					h = nil
				case sim.OpDo:
					if h == nil {
						h = m.Register()
						idToEnt[h.ID()] = i
					}
					var start, end time.Duration
					h.Do(func() {
						start, _ = check.Now()
						check.Sleep(op.Hold)
						end, _ = check.Now()
					})
					res.Grants = append(res.Grants, i)
					res.Hold[i] += end - start
				}
			}
		})
	}
	r := sched.Run()
	if r.Failure != nil {
		return res, fmt.Errorf("real-side run failed: %v", r.Failure)
	}
	if err := m.CheckInvariants(); err != nil {
		return res, fmt.Errorf("real-side invariants: %w", err)
	}
	bans.Tally(res.Bans, idToEnt)
	return res, nil
}

// BanCounter is an scl.Tracer that counts ban events per handle ID, the
// only part of a real lock's event stream the oracle compares. Unlike a
// bounded trace.Ring it never drops an event and reserves no memory up
// front. Record is safe for concurrent use.
type BanCounter struct {
	mu   sync.Mutex
	bans map[int64]int
}

// Record implements scl.Tracer.
func (c *BanCounter) Record(ev trace.Event) {
	if ev.Kind != trace.KindBan {
		return
	}
	c.mu.Lock()
	if c.bans == nil {
		c.bans = make(map[int64]int)
	}
	c.bans[ev.Entity]++
	c.mu.Unlock()
}

// Tally adds the bans counted for each handle ID to bans[idToEnt[ID]];
// IDs missing from idToEnt are ignored.
func (c *BanCounter) Tally(bans []int, idToEnt map[int64]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, n := range c.bans {
		if i, ok := idToEnt[id]; ok {
			bans[i] += n
		}
	}
}

// RunRealRW executes an RW script against the real scl.RWLock under
// the deterministic checker, mirroring sim.RunRWScript.
func RunRealRW(s sim.RWScript) (sim.ScriptResult, error) {
	period := s.Period
	if period == 0 {
		period = 2 * time.Millisecond
	}
	rw, ww := s.ReadWeight, s.WriteWeight
	if rw == 0 {
		rw = 1
	}
	if ww == 0 {
		ww = 1
	}
	res := sim.ScriptResult{
		Timeouts: make([]int, len(s.Entities)),
		Bans:     make([]int, len(s.Entities)),
		Hold:     make([]time.Duration, len(s.Entities)),
	}
	sched := check.NewSched(check.NewFirstChooser(), 0)
	check.Install(sched)
	defer check.Uninstall(sched)

	l := scl.NewRWLock(rw, ww, period)
	for i, ent := range s.Entities {
		i, ent := i, ent
		sched.Go(ent.Name, func() {
			check.Sleep(ent.Start)
			for _, op := range ent.Ops {
				switch op.Kind {
				case sim.OpThink:
					check.Sleep(op.Think)
				case sim.OpAcquire:
					if ent.Writer {
						l.WLock()
					} else {
						l.RLock()
					}
					res.Grants = append(res.Grants, i)
					at, _ := check.Now()
					check.Sleep(op.Hold)
					now, _ := check.Now()
					res.Hold[i] += now - at
					if ent.Writer {
						l.WUnlock()
					} else {
						l.RUnlock()
					}
				}
			}
		})
	}
	r := sched.Run()
	if r.Failure != nil {
		return res, fmt.Errorf("real-side RW run failed: %v", r.Failure)
	}
	if err := l.CheckInvariants(); err != nil {
		return res, fmt.Errorf("real-side RW invariants: %w", err)
	}
	return res, nil
}

// RWCase is one curated RW-SCL oracle scenario.
type RWCase struct {
	// Name identifies the case in test output and the sclcheck CLI.
	Name string
	// Script is the shared reader/writer workload.
	Script sim.RWScript
	// Allowed lists per-script documented divergence codes.
	Allowed []string
}

// Run executes the RW case on both sides and splits the comparator's
// findings into allowed and undocumented divergences.
func (c RWCase) Run() (allowed, undocumented []Divergence, err error) {
	simR := sim.RunRWScript(c.Script)
	realR, err := RunRealRW(c.Script)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range Compare(simR, realR) {
		if slices.Contains(c.Allowed, d.Code) {
			allowed = append(allowed, d)
		} else {
			undocumented = append(undocumented, d)
		}
	}
	return allowed, undocumented, nil
}

// Case is one curated oracle scenario.
type Case struct {
	// Name identifies the case in test output and the sclcheck CLI.
	Name string
	// Script is the shared workload.
	Script sim.Script
	// Allowed lists per-script documented divergence codes (see the
	// package comment); empty means the sides must agree exactly.
	Allowed []string
}

// Run executes the case on both sides and splits the comparator's
// findings into allowed (documented) and undocumented divergences.
func (c Case) Run() (allowed, undocumented []Divergence, err error) {
	simR := RunSim(c.Script)
	realR, err := RunReal(c.Script)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range Compare(simR, realR) {
		if slices.Contains(c.Allowed, d.Code) {
			allowed = append(allowed, d)
		} else {
			undocumented = append(undocumented, d)
		}
	}
	return allowed, undocumented, nil
}

// Cases returns the curated differential scenarios. Timings are
// millisecond-scale and well separated (see the package comment).
func Cases() []Case {
	ms := time.Millisecond
	acq := func(hold time.Duration) sim.ScriptOp { return sim.ScriptOp{Kind: sim.OpAcquire, Hold: hold} }
	think := func(d time.Duration) sim.ScriptOp { return sim.ScriptOp{Kind: sim.OpThink, Think: d} }
	acqTO := func(hold, to time.Duration) sim.ScriptOp {
		return sim.ScriptOp{Kind: sim.OpAcquireTimeout, Hold: hold, Timeout: to}
	}
	closeOp := sim.ScriptOp{Kind: sim.OpClose}
	return []Case{
		{
			// One entity, no contention: grants and full ownership agree.
			Name: "uncontended",
			Script: sim.Script{Entities: []sim.ScriptEntity{
				{Name: "a", Ops: []sim.ScriptOp{acq(1 * ms), think(1 * ms), acq(1 * ms), think(1 * ms), acq(1 * ms)}},
			}},
		},
		{
			// Two equal entities alternate at slice granularity; the slice
			// policy, not arrival order, decides the grant sequence. Thinks
			// are 1.6ms so re-requests land 0.6ms past slice boundaries —
			// no decision is a timing tie.
			Name: "handoff",
			Script: sim.Script{Entities: []sim.ScriptEntity{
				{Name: "a", Ops: []sim.ScriptOp{acq(1 * ms), think(1600 * time.Microsecond), acq(1 * ms), think(1600 * time.Microsecond), acq(1 * ms), think(1600 * time.Microsecond), acq(1 * ms)}},
				{Name: "b", Start: 300 * time.Microsecond, Ops: []sim.ScriptOp{acq(1 * ms), think(1600 * time.Microsecond), acq(1 * ms), think(1600 * time.Microsecond), acq(1 * ms), think(1600 * time.Microsecond), acq(1 * ms)}},
			}},
		},
		{
			// An over-user (7ms holds against a 2ms slice) is banned on both
			// sides; the victim's share recovers identically.
			Name: "ban",
			Script: sim.Script{Entities: []sim.ScriptEntity{
				{Name: "hog", Ops: []sim.ScriptOp{acq(7 * ms), think(1 * ms), acq(7 * ms), think(1 * ms), acq(7 * ms)}},
				{Name: "victim", Start: 500 * time.Microsecond, Ops: []sim.ScriptOp{acq(1 * ms), think(500 * time.Microsecond), acq(1 * ms), think(500 * time.Microsecond), acq(1 * ms), think(500 * time.Microsecond), acq(1 * ms)}},
			}},
		},
		{
			// A cancellable acquire times out under a long hold on both
			// sides, then succeeds with a generous deadline.
			Name: "cancel",
			Script: sim.Script{Entities: []sim.ScriptEntity{
				{Name: "holder", Ops: []sim.ScriptOp{acq(10 * ms), think(5 * ms), acq(1 * ms)}},
				{Name: "waiter", Start: 1 * ms, Ops: []sim.ScriptOp{acqTO(1*ms, 3*ms), think(1 * ms), acqTO(1*ms, 50*ms)}},
			}},
		},
		{
			// Mid-script close: the entity's usage history leaves the books
			// and it re-registers fresh; the peer's grants are unaffected.
			Name: "close",
			Script: sim.Script{Entities: []sim.ScriptEntity{
				{Name: "churner", Ops: []sim.ScriptOp{acq(1 * ms), think(1200 * time.Microsecond), closeOp, think(2500 * time.Microsecond), acq(1 * ms)}},
				{Name: "steady", Start: 300 * time.Microsecond, Ops: []sim.ScriptOp{acq(1 * ms), think(1300 * time.Microsecond), acq(1 * ms), think(1300 * time.Microsecond), acq(1 * ms)}},
			}},
		},
	}
}

// RWCases returns the curated RW-SCL differential scenarios.
func RWCases() []RWCase {
	acq := func(hold time.Duration) sim.ScriptOp { return sim.ScriptOp{Kind: sim.OpAcquire, Hold: hold} }
	think := func(d time.Duration) sim.ScriptOp { return sim.ScriptOp{Kind: sim.OpThink, Think: d} }
	return []RWCase{
		{
			// One reader and one writer at equal weights: phase alternation
			// decides the grant order on both sides.
			Name: "rw-basic",
			Script: sim.RWScript{Entities: []sim.RWScriptEntity{
				{Name: "r", Start: 200 * time.Microsecond, Ops: []sim.ScriptOp{acq(500 * time.Microsecond), think(1700 * time.Microsecond), acq(500 * time.Microsecond), think(1700 * time.Microsecond), acq(500 * time.Microsecond)}},
				{Name: "w", Writer: true, Start: 500 * time.Microsecond, Ops: []sim.ScriptOp{acq(500 * time.Microsecond), think(1700 * time.Microsecond), acq(500 * time.Microsecond), think(1700 * time.Microsecond), acq(500 * time.Microsecond)}},
			}},
		},
		{
			// Two staggered readers share read phases while a writer takes
			// the write phases; reader grants within one phase stay in
			// arrival order.
			Name: "rw-shared",
			Script: sim.RWScript{Entities: []sim.RWScriptEntity{
				{Name: "r0", Start: 200 * time.Microsecond, Ops: []sim.ScriptOp{acq(400 * time.Microsecond), think(1600 * time.Microsecond), acq(400 * time.Microsecond), think(1600 * time.Microsecond), acq(400 * time.Microsecond)}},
				{Name: "r1", Start: 450 * time.Microsecond, Ops: []sim.ScriptOp{acq(400 * time.Microsecond), think(1600 * time.Microsecond), acq(400 * time.Microsecond), think(1600 * time.Microsecond), acq(400 * time.Microsecond)}},
				{Name: "w", Writer: true, Start: 700 * time.Microsecond, Ops: []sim.ScriptOp{acq(600 * time.Microsecond), think(1800 * time.Microsecond), acq(600 * time.Microsecond), think(1800 * time.Microsecond), acq(600 * time.Microsecond)}},
			}},
		},
	}
}
