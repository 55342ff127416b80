package check

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// gState tracks a managed goroutine through its cooperative lifecycle.
type gState int

const (
	gRunnable gState = iota // holds no token, eligible to run
	gRunning                // holds the execution token
	gBlocked                // waiting on a predicate and/or deadline
	gDone                   // function returned (or teardown unwound it)
)

// goroutine is the scheduler's record of one managed goroutine.
type goroutine struct {
	id     int
	name   string
	resume chan struct{}
	state  gState
	// point labels where the goroutine last yielded ("start" before its
	// first step); trace entries pair it with the goroutine name.
	point string
	// ready, when blocked, enables the goroutine once it reports true.
	// Evaluated only while no managed goroutine runs.
	ready func() bool
	// deadline, when blocked and >= 0, enables the goroutine once the
	// virtual clock reaches it (sleeps and timer-like waits).
	deadline time.Duration
}

// stopSched is the teardown panic sentinel: resumed goroutines unwind
// their stacks with it (running their defers) instead of continuing.
type stopSched struct{}

// schedFail carries a workload invariant failure out of a managed
// goroutine (raised by Sched.Failf, recovered by the wrapper).
type schedFail struct{ err error }

// Step is one entry of an executed schedule: which goroutine ran from
// which schedule point.
type Step struct {
	G     string
	Point string
}

// Failure describes one failed run: the offending goroutine, the error
// (invariant violation, deadlock, panic), and the executed schedule up
// to the failure. Seed is filled in by the explorer so the run can be
// replayed one-shot.
type Failure struct {
	Seed  int64
	G     string
	Err   error
	Stack []byte
	Trace []Step
}

// String renders the failure with its replay seed and the tail of the
// schedule that produced it.
func (f *Failure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule failure (replay seed %d) in %s: %v\n", f.Seed, f.G, f.Err)
	tail := f.Trace
	const keep = 40
	if len(tail) > keep {
		fmt.Fprintf(&b, "  ... %d earlier steps elided ...\n", len(tail)-keep)
		tail = tail[len(tail)-keep:]
	}
	for i, st := range tail {
		fmt.Fprintf(&b, "  %4d %s @ %s\n", len(f.Trace)-len(tail)+i, st.G, st.Point)
	}
	if len(f.Stack) > 0 {
		fmt.Fprintf(&b, "%s", f.Stack)
	}
	return b.String()
}

// Result summarizes one Sched.Run: steps executed, the schedule
// signature (hash of the executed (goroutine, point) sequence, used by
// the explorer to count distinct schedules), the final virtual clock,
// and the failure if any.
type Result struct {
	Steps   int
	Sig     uint64
	Now     time.Duration
	Failure *Failure
}

// Sched is a deterministic cooperative scheduler. Managed goroutines
// (registered with Go) run one at a time; at every schedule point the
// token returns here and the Chooser picks which enabled goroutine runs
// next. Blocking is by predicate and/or virtual deadline; when nothing
// is enabled the virtual clock jumps to the next deadline or timer.
// A Sched is single-use: construct, Install, Go, Run, Uninstall.
type Sched struct {
	chooser  Chooser
	maxSteps int

	gs      []*goroutine
	current *goroutine
	yield   chan struct{}

	now        time.Duration
	clockReads atomic.Int64 // Now calls while installed
	timers     timerHeap
	timerSeq   int

	mutexes map[*sync.Mutex]*goroutine

	steps    int
	trace    []Step
	sig      uint64
	candBuf  []*goroutine // reusable enabled-set buffer
	choices  []Choice     // reusable chooser argument buffer
	failure  *Failure
	stopping bool
	started  bool
	finished bool
}

// NewSched returns a scheduler driven by ch. maxSteps bounds the run
// (a runaway/livelock backstop, reported as a failure); <= 0 selects
// the default of 100000.
func NewSched(ch Chooser, maxSteps int) *Sched {
	if maxSteps <= 0 {
		maxSteps = 100000
	}
	return &Sched{
		chooser:  ch,
		maxSteps: maxSteps,
		yield:    make(chan struct{}),
		mutexes:  make(map[*sync.Mutex]*goroutine),
		sig:      fnvOffset,
	}
}

// Go registers fn as a managed goroutine. Valid before Run and from
// inside managed goroutines (workloads spawning helpers, timers firing);
// registration order is part of the deterministic schedule.
func (s *Sched) Go(name string, fn func()) {
	if s.finished {
		panic("check: Sched.Go after Run finished")
	}
	g := &goroutine{
		id:       len(s.gs),
		name:     name,
		resume:   make(chan struct{}),
		state:    gRunnable,
		point:    "start",
		deadline: -1,
	}
	s.gs = append(s.gs, g)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, isStop := r.(stopSched); !isStop {
					s.noteFailure(g, r)
				}
			}
			g.state = gDone
			s.yield <- struct{}{}
		}()
		<-g.resume
		if s.stopping {
			return
		}
		g.state = gRunning
		fn()
	}()
}

// Failf aborts the run with a workload failure (mutual-exclusion
// violation, invariant breach, bound exceeded). Call only from a
// managed goroutine; it panics out to the goroutine wrapper, which
// records the failure with the schedule trace.
func (s *Sched) Failf(format string, args ...any) {
	panic(schedFail{fmt.Errorf(format, args...)})
}

// Now returns the current virtual clock.
func (s *Sched) Now() time.Duration { return s.now }

// ClockReads reports how many times the package-level Now hook read the
// clock while s was installed — the locks' monotime calls, counted
// exactly and independently of the machine, for per-op clock budgets.
func (s *Sched) ClockReads() int64 { return s.clockReads.Load() }

// Run drives the schedule to completion: it loops choosing among
// enabled goroutines, advancing the virtual clock when none are
// enabled, and stops on completion, failure, deadlock (the no-lost-
// grant detector), or the step budget. It must be called from the
// goroutine that constructed the Sched, and blocks until done.
func (s *Sched) Run() Result {
	if s.started {
		panic("check: Sched is single-use; construct a new one per run")
	}
	s.started = true
	for s.failure == nil {
		cands := s.enabledInto()
		if len(cands) == 0 {
			// Advance the clock before testing completion: timers armed by
			// finished goroutines (slice timers on a quiescent lock) still
			// fire, exercising the after-the-fact timer paths.
			if s.advanceClock() {
				continue
			}
			if s.allDone() {
				break
			}
			s.failure = &Failure{
				G:     "scheduler",
				Err:   fmt.Errorf("deadlock: %s", s.blockedSummary()),
				Trace: append([]Step(nil), s.trace...),
			}
			break
		}
		idx := 0
		if len(cands) > 1 {
			idx = s.chooser.Next(s.steps, s.choices[:len(cands)])
			if idx < 0 || idx >= len(cands) {
				idx = 0
			}
		}
		g := cands[idx]
		s.record(g)
		s.steps++
		if s.steps > s.maxSteps {
			s.failure = &Failure{
				G:     "scheduler",
				Err:   fmt.Errorf("step budget %d exceeded (livelock or unbounded schedule)", s.maxSteps),
				Trace: append([]Step(nil), s.trace...),
			}
			break
		}
		s.resume(g)
	}
	s.teardown()
	s.finished = true
	return Result{Steps: s.steps, Sig: s.sig, Now: s.now, Failure: s.failure}
}

// enabledInto collects the enabled goroutines in registration order and
// mirrors them into the reusable Choice buffer handed to the chooser.
func (s *Sched) enabledInto() []*goroutine {
	cands := s.candBuf[:0]
	for _, g := range s.gs {
		switch g.state {
		case gRunnable:
			cands = append(cands, g)
		case gBlocked:
			if g.ready != nil && g.ready() {
				cands = append(cands, g)
			} else if g.deadline >= 0 && g.deadline <= s.now {
				cands = append(cands, g)
			}
		}
	}
	s.candBuf = cands
	if cap(s.choices) < len(cands) {
		s.choices = make([]Choice, len(cands))
	}
	s.choices = s.choices[:len(cands)]
	for i, g := range cands {
		s.choices[i] = Choice{G: g.id, Point: g.point}
	}
	return cands
}

func (s *Sched) allDone() bool {
	for _, g := range s.gs {
		if g.state != gDone {
			return false
		}
	}
	return true
}

// advanceClock jumps the virtual clock to the next wake-up (blocked
// deadline or armed timer), firing due timers as new managed
// goroutines. Returns false when there is nothing to wait for.
func (s *Sched) advanceClock() bool {
	next := time.Duration(-1)
	consider := func(d time.Duration) {
		if next < 0 || d < next {
			next = d
		}
	}
	for _, g := range s.gs {
		if g.state == gBlocked && g.deadline >= 0 {
			consider(g.deadline)
		}
	}
	if t, ok := s.timers.peek(); ok {
		consider(t.at)
	}
	if next < 0 {
		return false
	}
	if next > s.now {
		s.now = next
	}
	s.fireTimers()
	return true
}

func (s *Sched) blockedSummary() string {
	var parts []string
	for _, g := range s.gs {
		if g.state == gBlocked {
			parts = append(parts, fmt.Sprintf("%s@%s", g.name, g.point))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "no goroutines blocked, none runnable, none done"
	}
	return "blocked: " + strings.Join(parts, ", ")
}

// record appends the step about to execute to the trace and folds it
// into the running FNV-1a schedule signature.
func (s *Sched) record(g *goroutine) {
	s.trace = append(s.trace, Step{G: g.name, Point: g.point})
	h := s.sig
	h = fnvStep(h, uint64(g.id))
	for i := 0; i < len(g.point); i++ {
		h = fnvStep(h, uint64(g.point[i]))
	}
	h = fnvStep(h, 0xff)
	s.sig = h
}

const fnvOffset = 14695981039346656037

func fnvStep(h, b uint64) uint64 {
	h ^= b
	h *= 1099511628211
	return h
}

// resume hands the execution token to g and waits for it back.
func (s *Sched) resume(g *goroutine) {
	s.current = g
	g.resume <- struct{}{}
	<-s.yield
	s.current = nil
}

// point yields the token from the current goroutine at a named
// schedule point, leaving it runnable.
func (s *Sched) point(name string) {
	g := s.current
	g.point = name
	g.state = gRunnable
	s.yield <- struct{}{}
	<-g.resume
	if s.stopping {
		panic(stopSched{})
	}
	g.state = gRunning
}

// park blocks the current goroutine until ready() (if non-nil) reports
// true or the virtual clock reaches deadline (if >= 0). With neither,
// the goroutine can only be unblocked by teardown — callers must pass
// at least one.
func (s *Sched) park(label string, ready func() bool, deadline time.Duration) {
	g := s.current
	g.point = label
	g.ready = ready
	g.deadline = deadline
	g.state = gBlocked
	s.yield <- struct{}{}
	<-g.resume
	if s.stopping {
		panic(stopSched{})
	}
	g.state = gRunning
	g.ready = nil
	g.deadline = -1
}

// noteFailure records the first failure; called from a managed
// goroutine's recover while it still holds the token. Panics raised
// while teardown unwinds stacks are discarded.
func (s *Sched) noteFailure(g *goroutine, r any) {
	if s.stopping {
		return
	}
	var err error
	var stack []byte
	if f, ok := r.(schedFail); ok {
		err = f.err
	} else {
		err = fmt.Errorf("panic: %v", r)
		stack = debug.Stack()
	}
	if s.failure == nil {
		s.failure = &Failure{
			G:     g.name,
			Err:   err,
			Stack: stack,
			Trace: append([]Step(nil), s.trace...),
		}
	}
}

// teardown unwinds every unfinished managed goroutine via the stopSched
// sentinel so their defers run and no goroutine leaks across runs.
func (s *Sched) teardown() {
	s.stopping = true
	for i := 0; i < len(s.gs); i++ {
		g := s.gs[i]
		if g.state == gDone {
			continue
		}
		s.current = g
		g.resume <- struct{}{}
		<-s.yield
		s.current = nil
	}
}
