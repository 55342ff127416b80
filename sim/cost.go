package sim

import "time"

// CostModel holds the micro-architectural costs the simulator charges for
// synchronization operations. The defaults are calibrated to commodity
// x86 server numbers (tens of ns for atomics, ~µs for futex transitions);
// the reproduced figures depend on the *relative* magnitudes, which is
// what these defaults preserve.
type CostModel struct {
	// AtomicOp is an uncontended atomic RMW on an owned cacheline.
	AtomicOp time.Duration
	// CachelineXfer is the cost of pulling a contended cacheline from a
	// remote core.
	CachelineXfer time.Duration
	// SpinNotice is the delay between a lock release and an on-CPU spinner
	// completing its acquiring atomic.
	SpinNotice time.Duration
	// FutexWake is the syscall cost the releaser pays to wake one waiter.
	FutexWake time.Duration
	// WakeLatency is how long after a wake a sleeping task becomes runnable.
	WakeLatency time.Duration
	// WakeCPU is the CPU a woken task consumes before returning to user
	// code (futex return path / scheduler tail).
	WakeCPU time.Duration
	// ParkCPU is the CPU consumed by the futex-wait entry path.
	ParkCPU time.Duration
	// CrossNodeFactor scales coherence costs when a lock's waiters span
	// NUMA nodes (the paper attributes u-SCL's 16/32-thread dip to
	// cross-node accounting traffic, §5.3).
	CrossNodeFactor float64
	// NUMANode is the number of CPUs per simulated socket.
	NUMANode int
	// StealProb is the probability that a releasing thread immediately
	// re-acquiring a TAS spinlock beats an already-spinning waiter to the
	// cacheline (barging). Drawn from the engine's seeded RNG.
	StealProb float64
	// CombinePublish is what a USCL.Do caller pays to queue its critical
	// section behind the holder (a waiter append on a contended line).
	CombinePublish time.Duration
	// CombineDispatch is the combiner's per-section drain overhead (claim
	// plus timing bookkeeping) before the section itself runs.
	CombineDispatch time.Duration
}

// DefaultCostModel returns the calibrated defaults.
func DefaultCostModel() CostModel {
	return CostModel{
		AtomicOp:        25 * time.Nanosecond,
		CachelineXfer:   80 * time.Nanosecond,
		SpinNotice:      120 * time.Nanosecond,
		FutexWake:       600 * time.Nanosecond,
		WakeLatency:     1500 * time.Nanosecond,
		WakeCPU:         1000 * time.Nanosecond,
		ParkCPU:         600 * time.Nanosecond,
		CrossNodeFactor: 2.5,
		NUMANode:        8,
		StealProb:       0.5,
		CombinePublish:  105 * time.Nanosecond, // CachelineXfer + AtomicOp
		CombineDispatch: 50 * time.Nanosecond,  // two owned-line atomics
	}
}

func (c CostModel) withDefaults() CostModel {
	d := DefaultCostModel()
	if c.AtomicOp == 0 {
		c.AtomicOp = d.AtomicOp
	}
	if c.CachelineXfer == 0 {
		c.CachelineXfer = d.CachelineXfer
	}
	if c.SpinNotice == 0 {
		c.SpinNotice = d.SpinNotice
	}
	if c.FutexWake == 0 {
		c.FutexWake = d.FutexWake
	}
	if c.WakeLatency == 0 {
		c.WakeLatency = d.WakeLatency
	}
	if c.WakeCPU == 0 {
		c.WakeCPU = d.WakeCPU
	}
	if c.ParkCPU == 0 {
		c.ParkCPU = d.ParkCPU
	}
	if c.CrossNodeFactor == 0 {
		c.CrossNodeFactor = d.CrossNodeFactor
	}
	if c.NUMANode == 0 {
		c.NUMANode = d.NUMANode
	}
	if c.StealProb == 0 {
		c.StealProb = d.StealProb
	}
	if c.CombinePublish == 0 {
		c.CombinePublish = d.CombinePublish
	}
	if c.CombineDispatch == 0 {
		c.CombineDispatch = d.CombineDispatch
	}
	return c
}

// handoff returns the release-to-acquire latency for a spin-based lock
// with n waiters spanning the given number of CPUs: coherence traffic
// grows with the spinner population, and crossing a socket multiplies it.
func (c CostModel) handoff(nspinners, cpus int) time.Duration {
	if nspinners < 1 {
		nspinners = 1
	}
	d := c.SpinNotice + time.Duration(nspinners-1)*c.CachelineXfer
	if cpus > c.NUMANode {
		d = time.Duration(float64(d) * c.CrossNodeFactor)
	}
	return d
}
