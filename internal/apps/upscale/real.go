package upscale

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"scl"
	"scl/internal/barging"
	"scl/internal/metrics"
)

// RealConfig configures the real-goroutine UpScaleDB run (used by the
// examples and cmd tools; the simulator twin is the reproducible harness).
type RealConfig struct {
	Lock          string // "barging" (pthread-style) or "uscl"
	FindThreads   int
	InsertThreads int
	Duration      time.Duration
	Preload       int
	Slice         time.Duration
	Seed          int64
}

// RealResult is the outcome of a real-goroutine run.
type RealResult struct {
	Threads    []ThreadResult
	FindOps    int64
	InsertOps  int64
	JainHold   float64
	FindTput   float64
	InsertTput float64
}

// RunReal executes the workload on real goroutines. Go cannot pin
// goroutines or report per-goroutine CPU time, so the observable here is
// the paper's actual mechanism: per-thread lock hold time (measured inside
// the critical section) and throughput.
func RunReal(cfg RealConfig) RealResult {
	if cfg.Duration == 0 {
		cfg.Duration = time.Second
	}
	store := NewStore(cfg.Preload)
	total := cfg.FindThreads + cfg.InsertThreads

	var usclLock *scl.Mutex
	var plain sync.Locker
	switch cfg.Lock {
	case "", "barging":
		plain = &barging.Mutex{}
	case "uscl":
		usclLock = scl.NewMutex(scl.Options{Slice: cfg.Slice})
	default:
		panic("upscale: unknown lock " + cfg.Lock)
	}

	holds := make([]time.Duration, total)
	ops := make([]int64, total)
	kinds := make([]string, total)
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		i := i
		insert := i >= cfg.FindThreads
		kinds[i] = "find"
		if insert {
			kinds[i] = "insert"
		}
		var lk sync.Locker
		if usclLock != nil {
			lk = usclLock.Register().SetName(fmt.Sprintf("%s-%d", kinds[i], i))
		} else {
			lk = plain
		}
		rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				lk.Lock()
				h0 := time.Now()
				if insert {
					store.Insert(rng)
				} else {
					store.Find(rng)
				}
				holds[i] += time.Since(h0)
				lk.Unlock()
				ops[i]++
			}
		}()
	}
	wg.Wait()

	res := RealResult{}
	xs := make([]float64, total)
	for i := 0; i < total; i++ {
		res.Threads = append(res.Threads, ThreadResult{
			Name: fmt.Sprintf("%s-%d", kinds[i], i),
			Kind: kinds[i],
			Ops:  ops[i],
			Hold: holds[i],
		})
		xs[i] = float64(holds[i])
		if kinds[i] == "find" {
			res.FindOps += ops[i]
		} else {
			res.InsertOps += ops[i]
		}
	}
	res.JainHold = metrics.Jain(xs)
	secs := cfg.Duration.Seconds()
	res.FindTput = float64(res.FindOps) / secs
	res.InsertTput = float64(res.InsertOps) / secs
	return res
}
