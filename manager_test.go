package scl

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"scl/trace"
)

// invariants fails the test on the first manager invariant violation.
func invariants(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestManagerBasic: two tenants over a handful of keys — grants count,
// holds accumulate, keys materialize once, and the books balance.
func TestManagerBasic(t *testing.T) {
	m := NewManager(ManagerOptions{Name: "basic", Lock: Options{Slice: time.Millisecond}})
	a := m.Tenant("a", NiceToWeight(0))
	b := m.Tenant("b", NiceToWeight(0))
	for i := 0; i < 3; i++ {
		for _, tn := range []*Tenant{a, b} {
			g := tn.Lock(fmt.Sprintf("k%d", i))
			g.Unlock()
		}
	}
	invariants(t, m)
	st := m.Stats()
	if st.Keys != 3 || st.Materialized != 3 {
		t.Fatalf("Keys = %d, Materialized = %d, want 3/3", st.Keys, st.Materialized)
	}
	if st.Grants != 6 {
		t.Fatalf("Grants = %d, want 6", st.Grants)
	}
	for _, id := range []int64{a.ID(), b.ID()} {
		ts, ok := st.Tenant(id)
		if !ok || ts.Grants != 3 {
			t.Fatalf("tenant %d: row %+v ok=%v, want 3 grants", id, ts, ok)
		}
	}
	if n := m.Keys(); n != 3 {
		t.Fatalf("Keys() = %d, want 3", n)
	}
	a.Close()
	b.Close()
	invariants(t, m)
	if st := m.Stats(); st.Identities != 0 {
		t.Fatalf("%d identities survive Close", st.Identities)
	}
}

// TestManagerTracing: ManagerOptions.Lock.Tracer reaches every
// materialized key lock, mutex and RW alike, and each key's events carry
// the key as their lock name.
func TestManagerTracing(t *testing.T) {
	keys := []string{"k0", "k1", "k2"}
	for _, tc := range []struct {
		name string
		rw   bool
		lock func(tn *Tenant, key string, i int) *Grant
	}{
		{"mutex", false, func(tn *Tenant, key string, _ int) *Grant { return tn.Lock(key) }},
		{"rw", true, func(tn *Tenant, key string, i int) *Grant {
			if i%2 == 0 {
				return tn.RLock(key)
			}
			return tn.WLock(key)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recTracer{}
			m := NewManager(ManagerOptions{RW: tc.rw, Lock: Options{Slice: time.Millisecond, Tracer: rec}})
			tn := m.Tenant("a", NiceToWeight(0))
			const rounds = 2
			for i := 0; i < rounds; i++ {
				for _, key := range keys {
					tc.lock(tn, key, i).Unlock()
				}
			}
			tn.Close()
			acquires, releases := map[string]int{}, map[string]int{}
			for _, ev := range rec.events() {
				switch ev.Kind {
				case trace.KindAcquire:
					acquires[ev.Lock]++
				case trace.KindRelease:
					releases[ev.Lock]++
				}
			}
			for _, key := range keys {
				if acquires[key] != rounds || releases[key] != rounds {
					t.Errorf("key %s: %d acquires, %d releases, want %d each",
						key, acquires[key], releases[key], rounds)
				}
			}
			if len(acquires) != len(keys) || len(releases) != len(keys) {
				t.Errorf("events name locks %v / %v, want exactly the keys %v", acquires, releases, keys)
			}
		})
	}
}

// TestManagerModePanics: acquire mode must match the table kind, and
// closed tenants must refuse new work.
func TestManagerModePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mu := NewManager(ManagerOptions{})
	rw := NewManager(ManagerOptions{RW: true})
	expectPanic("RLock on mutex table", func() { mu.Tenant("x", 1).RLock("k") })
	expectPanic("Lock on RW table", func() { rw.Tenant("x", 1).Lock("k") })
	expectPanic("zero-weight tenant", func() { mu.Tenant("x", 0) })
	tn := mu.Tenant("x", 1)
	tn.Close()
	tn.Close() // idempotent
	expectPanic("Lock on closed tenant", func() { tn.Lock("k") })
	g := mu.Tenant("y", 1).Lock("k")
	g.Unlock()
	expectPanic("double Unlock", func() { g.Unlock() })
}

// TestManagerRW: RW tables grant concurrent readers and exclusive
// writers, with grants booked per tenant.
func TestManagerRW(t *testing.T) {
	m := NewManager(ManagerOptions{RW: true, ReadWeight: 1, WriteWeight: 1,
		Lock: Options{Slice: time.Millisecond}})
	r := m.Tenant("readers", NiceToWeight(0))
	w := m.Tenant("writer", NiceToWeight(0))

	g1 := r.RLock("k")
	g2 := r.RLock("k") // concurrent read grant must not deadlock
	g1.Unlock()
	g2.Unlock()
	gw := w.WLock("k")
	gw.Unlock()
	invariants(t, m)
	st := m.Stats()
	if st.Grants != 3 {
		t.Fatalf("Grants = %d, want 3", st.Grants)
	}
	if rs, _ := st.Tenant(r.ID()); rs.Grants != 2 {
		t.Fatalf("reader grants = %d, want 2", rs.Grants)
	}
}

// TestManagerContext: cancellation during the key-lock wait returns the
// error, leaves the key unheld and the in-flight accounting clean.
func TestManagerContext(t *testing.T) {
	m := NewManager(ManagerOptions{Lock: Options{Slice: 50 * time.Millisecond}})
	holder := m.Tenant("holder", NiceToWeight(0))
	waiter := m.Tenant("waiter", NiceToWeight(0))
	g := holder.Lock("k")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := waiter.LockContext(ctx, "k"); err == nil {
		t.Fatal("LockContext under a held key returned nil error")
	}
	invariants(t, m)
	g.Unlock()
	// The key must be immediately acquirable again.
	g2 := waiter.Lock("k")
	g2.Unlock()
	invariants(t, m)

	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := waiter.LockContext(cancelled, "free"); err == nil {
		t.Fatal("pre-cancelled ctx acquired the lock")
	}
	if m.Keys() != 1 {
		// A pre-cancelled ctx must return before touching the table, so
		// "free" never materializes and only "k" exists.
		t.Fatalf("Keys = %d after pre-cancelled acquire, want 1", m.Keys())
	}
}

// TestManagerLifecycle is the issue's deterministic lifecycle suite:
// lazily materialize a key, use it, let the lock GC reap it, then
// re-materialize — the per-key lock starts fresh while the stripe-level
// tenant books are identical across the reap (usage, weight, identity),
// under CheckInvariants at every step.
func TestManagerLifecycle(t *testing.T) {
	const idle = 10 * time.Millisecond
	m := NewManager(ManagerOptions{
		Lock: Options{Slice: time.Millisecond},
	}, WithStripes(1), WithLockGC(idle))
	tn := m.Tenant("t", NiceToWeight(0))
	other := m.Tenant("spin", NiceToWeight(0))

	g := tn.Lock("k")
	time.Sleep(time.Millisecond)
	g.Unlock()
	go2 := other.Lock("other") // both tenants on the books before the baseline
	go2.Unlock()
	invariants(t, m)
	st := m.Stats()
	if st.Keys != 2 || st.Materialized != 2 {
		t.Fatalf("after first use: Keys=%d Materialized=%d, want 2/2", st.Keys, st.Materialized)
	}
	s := m.stripeOf("k")
	usage := s.books.Usage(tn.id)
	weight := s.books.TotalWeight()
	if usage <= 0 {
		t.Fatal("no usage booked at stripe level")
	}

	// Idle past the threshold; releases on another key drive the reaper.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		g := other.Lock("other")
		g.Unlock()
		if m.Stats().LocksReaped >= 1 {
			break
		}
	}
	st = m.Stats()
	if st.LocksReaped < 1 {
		t.Fatalf("lock not reaped: %+v", st)
	}
	invariants(t, m)
	// Books survive the reap: same identity, same usage, same weight.
	if got := s.books.Usage(tn.id); got != usage {
		t.Fatalf("stripe usage changed across lock reap: %v -> %v", usage, got)
	}
	if got := s.books.TotalWeight(); got != weight {
		t.Fatalf("stripe weight changed across lock reap: %v -> %v", weight, got)
	}

	// Re-materialize: a fresh per-key lock, stripe books still continuous.
	g = tn.Lock("k")
	g.Unlock()
	invariants(t, m)
	st = m.Stats()
	if st.Materialized < 3 {
		t.Fatalf("key not re-materialized: %+v", st)
	}
	if got := s.books.Usage(tn.id); got < usage {
		t.Fatalf("stripe usage regressed across re-materialization: %v -> %v", usage, got)
	}
	tn.Close()
	other.Close()
	invariants(t, m)
}

// TestManagerTenantGC: idle tenant identities expire from the stripe
// books while active ones survive.
func TestManagerTenantGC(t *testing.T) {
	m := NewManager(ManagerOptions{
		Lock: Options{Slice: time.Millisecond},
	}, WithStripes(1), WithTenantGC(10*time.Millisecond))
	idler := m.Tenant("idler", NiceToWeight(0))
	active := m.Tenant("active", NiceToWeight(0))
	g := idler.Lock("k")
	g.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		g := active.Lock("k")
		g.Unlock()
		st := m.Stats()
		if _, ok := st.Tenant(idler.ID()); !ok {
			if st.TenantsReaped < 1 {
				t.Fatalf("idler row gone but TenantsReaped = %d", st.TenantsReaped)
			}
			invariants(t, m)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("idle tenant never reaped: %+v", m.Stats())
}

// TestManagerTableFairness: an aggressive tenant spraying long holds
// across many keys must not deny a light tenant its table-wide share —
// the stripe books ban the hog, and the light tenant's waits stay
// bounded. This is the paper's opportunity argument lifted to the
// table: per-key accounting alone could never catch a tenant that never
// reuses a key.
func TestManagerTableFairness(t *testing.T) {
	m := NewManager(ManagerOptions{
		Lock: Options{Slice: time.Millisecond, BanCap: 100 * time.Millisecond},
	}, WithStripes(1))
	hog := m.Tenant("hog", NiceToWeight(0))
	light := m.Tenant("light", NiceToWeight(0))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g := hog.Lock(fmt.Sprintf("hog-%d", i%64)) // fresh-ish keys: per-key books see no repeat offender
			busy := time.Now().Add(500 * time.Microsecond)
			for time.Now().Before(busy) {
			}
			g.Unlock()
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the hog build up usage
	for i := 0; i < 20; i++ {
		g := light.Lock("shared")
		g.Unlock()
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	st := m.Stats()
	hs, _ := st.Tenant(hog.ID())
	if hs.Bans == 0 {
		t.Fatalf("hog drew no table-level bans: %+v", hs)
	}
	invariants(t, m)
}

// TestManagerStressKeyChurn is the issue's churn soak: a stream of
// mostly-fresh keys (>=100k in the full run) with the lock GC on must
// keep the table bounded — the live-key count plateaus instead of
// growing monotonically with keys ever seen.
func TestManagerStressKeyChurn(t *testing.T) {
	keys := 100_000
	if testing.Short() {
		keys = 20_000
	}
	const idle = 5 * time.Millisecond
	m := NewManager(ManagerOptions{
		Lock: Options{Slice: -1}, // k-SCL per key: churn keys have no slices to keep hot
	}, WithStripes(8), WithLockGC(idle), WithTenantGC(50*time.Millisecond))

	workers := 4
	var wg sync.WaitGroup
	var peak int
	var peakMu sync.Mutex
	perWorker := keys / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tn := m.Tenant(fmt.Sprintf("w%d", w), NiceToWeight(0))
			defer tn.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				g := tn.Lock(fmt.Sprintf("w%d-k%d", w, i))
				g.Unlock()
				if rng.Intn(64) == 0 {
					n := m.Keys()
					peakMu.Lock()
					if n > peak {
						peak = n
					}
					peakMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	invariants(t, m)
	st := m.Stats()
	if st.Materialized < int64(keys)*9/10 {
		t.Fatalf("only %d keys materialized, want ~%d", st.Materialized, keys)
	}
	if st.LocksReaped == 0 {
		t.Fatal("GC never reaped a lock under churn")
	}
	// Bounded: the table must have stayed far below the keys-ever-seen
	// count at every sample, and settle low once the churn stops.
	if peak >= keys/2 {
		t.Fatalf("live keys peaked at %d of %d seen — table growth is monotone", peak, keys)
	}
	deadline := time.Now().Add(5 * time.Second)
	settle := m.Tenant("settle", NiceToWeight(0))
	defer settle.Close()
	final := m.Keys()
	for time.Now().Before(deadline) {
		for i := 0; i < 8; i++ { // touch every stripe so each reaper runs
			g := settle.Lock(fmt.Sprintf("settle-%d", i))
			g.Unlock()
		}
		time.Sleep(idle)
		m.Stats()
		if final = m.Keys(); final < 64 {
			break
		}
	}
	if final >= 64 {
		t.Fatalf("table failed to settle: %d live keys after churn", final)
	}
	t.Logf("seen %d keys, peak %d live, settled at %d, reaped %d locks / %d tenant identities",
		st.Materialized, peak, final, st.LocksReaped, st.TenantsReaped)
}
