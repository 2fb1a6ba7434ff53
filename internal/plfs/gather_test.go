package plfs

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ldplfs/internal/plfs/readcache"
	"ldplfs/internal/posix"
)

// meterFS watches what a gather does to its backend's data droppings:
// opens, descriptors held, preads in flight. Every data pread also
// advances a clock by cost, so a test that hands Now to the read engine
// decides what latency the engine observes — no wall clock anywhere.
// Embedding hides the inner Preadv, so batches arrive as plain Preads.
type meterFS struct {
	posix.FS

	mu        sync.Mutex
	data      map[int]bool // open data-dropping descriptors
	opens     int          // data-dropping opens so far
	highFDs   int          // most data descriptors open at once
	inflight  int          // data preads inside the backend right now
	highReads int          // most of them at once
	clock     time.Time
	cost      time.Duration
	limit     int // data descriptors the process has room for; 0 = no limit
}

func newMeterFS(inner posix.FS) *meterFS {
	return &meterFS{FS: inner, data: map[int]bool{}, clock: time.Unix(0, 0)}
}

func (m *meterFS) Open(path string, flags int, mode uint32) (int, error) {
	counted := strings.Contains(path, "dropping.data.")
	m.mu.Lock()
	full := counted && m.limit > 0 && len(m.data) >= m.limit
	m.mu.Unlock()
	if full {
		return -1, posix.EMFILE
	}
	fd, err := m.FS.Open(path, flags, mode)
	if err == nil && counted {
		m.mu.Lock()
		m.data[fd] = true
		m.opens++
		m.highFDs = max(m.highFDs, len(m.data))
		m.mu.Unlock()
	}
	return fd, err
}

func (m *meterFS) Close(fd int) error {
	m.mu.Lock()
	delete(m.data, fd)
	m.mu.Unlock()
	return m.FS.Close(fd)
}

func (m *meterFS) Pread(fd int, p []byte, off int64) (int, error) {
	m.mu.Lock()
	counted := m.data[fd]
	if counted {
		m.clock = m.clock.Add(m.cost)
		m.inflight++
		m.highReads = max(m.highReads, m.inflight)
	}
	m.mu.Unlock()
	n, err := m.FS.Pread(fd, p, off)
	if counted {
		m.mu.Lock()
		m.inflight--
		m.mu.Unlock()
	}
	return n, err
}

func (m *meterFS) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clock
}

// take returns the counters and starts them afresh: opens since the
// last take, and the high-water marks, which restart from what is open
// and in flight now.
func (m *meterFS) take() (opens, highFDs, highReads int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	opens, highFDs, highReads = m.opens, m.highFDs, m.highReads
	m.opens, m.highFDs, m.highReads = 0, len(m.data), m.inflight
	return
}

func (m *meterFS) openFDs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.data)
}

// TestFDCacheScanWindow enumerates the descriptor rule — a plan pins
// what it reads, cached droppings first; the cache evicts only idle
// descriptors, oldest first — over every cap C, container width N
// around it and gather shape: a cyclic scan whose every read touches all
// N droppings opens exactly the N-C it is over capacity by per round,
// and holds no more than C descriptors, during the read or after it.
func TestFDCacheScanWindow(t *testing.T) {
	for _, c := range []int{1, 2, 8} {
		for _, n := range slices.Compact([]int{c - 1, c, c + 1, 2 * c}) {
			for _, workers := range []int{1, 4} {
				if n == 0 {
					continue
				}
				t.Run(fmt.Sprintf("cap%d/width%d/workers%d", c, n, workers), func(t *testing.T) {
					mem := posix.NewMemFS()
					m := newMeterFS(mem)
					p := New(m)
					p.fds = readcache.NewFDCache(m, c)
					p.workers = workers
					want := writeN1(t, p, "/scan", n, 2, 64)
					f, err := p.Open("/scan", posix.O_RDONLY, 999, 0)
					if err != nil {
						t.Fatal(err)
					}
					m.take()
					got := make([]byte, len(want))
					for round := 0; round < 4; round++ {
						clear(got)
						if k, err := f.Read(got, 0); err != nil || k != len(want) || !bytes.Equal(got, want) {
							t.Fatalf("round %d: read = %d, %v", round, k, err)
						}
						opens, high, _ := m.take()
						wantOpens := max(0, n-c)
						if round == 0 {
							wantOpens = n
						}
						if opens != wantOpens {
							t.Errorf("round %d: %d data-dropping opens, want %d", round, opens, wantOpens)
						}
						if high > c {
							t.Errorf("round %d: %d descriptors open at once, want <= cap %d", round, high, c)
						}
						if now := m.openFDs(); now > c || now != p.CachedReadFDs() {
							t.Errorf("round %d: %d descriptors open and %d cached after the read, want both <= cap %d", round, now, p.CachedReadFDs(), c)
						}
					}
					if err := f.Close(999); err != nil {
						t.Fatal(err)
					}
					if m.openFDs() != 0 || mem.OpenFDs() != 0 {
						t.Fatalf("after the last close: %d data descriptors, %d backend descriptors, want 0", m.openFDs(), mem.OpenFDs())
					}
				})
			}
		}
	}
}

// TestReadSurvivesEMFILE: the process running out of descriptors on any
// one open of a wide read, cold or over a full cache, is recoverable —
// the cache gives back its idle descriptors and the open is retried —
// so the read returns the right bytes and nothing leaks.
func TestReadSurvivesEMFILE(t *testing.T) {
	const writers, fdCap = 12, 4
	for _, warm := range []bool{false, true} {
		opens := writers
		if warm {
			opens = writers - fdCap
		}
		for k := 0; k < opens; k++ {
			mem := posix.NewMemFS()
			flt := posix.NewFaultFS(mem)
			p := New(flt)
			p.fds = readcache.NewFDCache(flt, fdCap)
			want := writeN1(t, p, "/wide", writers, 2, 64)
			f, err := p.Open("/wide", posix.O_RDONLY, 999, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			if warm {
				if _, err := f.Read(got, 0); err != nil {
					t.Fatal(err)
				}
			}
			flt.Inject(&posix.FaultRule{Op: posix.FaultOpen, PathContains: "dropping.data.", After: k, Times: 1, Err: posix.EMFILE})
			clear(got)
			if n, err := f.Read(got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
				t.Fatalf("warm=%v, EMFILE on open %d: read = %d, %v", warm, k, n, err)
			}
			if flt.Fired() != 1 {
				t.Fatalf("warm=%v, open %d: fault fired %d times, want 1 (the read made fewer opens than enumerated)", warm, k, flt.Fired())
			}
			if err := f.Close(999); err != nil {
				t.Fatal(err)
			}
			if n := mem.OpenFDs(); n != 0 {
				t.Fatalf("warm=%v, EMFILE on open %d: %d descriptors leaked", warm, k, n)
			}
		}
	}
}

// TestReadWiderThanDescriptorLimit: a process that cannot hold one
// descriptor per dropping of a wide read still reads it, whether the
// cap is under its limit (the cap alone keeps the read inside it) or
// over (a round ends where the descriptors do).
func TestReadWiderThanDescriptorLimit(t *testing.T) {
	const writers, limit = 24, 6
	for _, fdCap := range []int{4, limit, 0} {
		for _, workers := range []int{1, 4} {
			mem := posix.NewMemFS()
			m := newMeterFS(mem)
			p := New(m)
			p.fds = readcache.NewFDCache(m, fdCap)
			p.workers = workers
			want := writeN1(t, p, "/wide", writers, 2, 64)
			f, err := p.Open("/wide", posix.O_RDONLY, 999, 0)
			if err != nil {
				t.Fatal(err)
			}
			m.limit = limit
			m.take()
			got := make([]byte, len(want))
			for pass := 0; pass < 3; pass++ {
				clear(got)
				if n, err := f.Read(got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
					t.Fatalf("cap %d, workers %d, pass %d: read = %d, %v", fdCap, workers, pass, n, err)
				}
			}
			if _, high, _ := m.take(); high > limit {
				t.Fatalf("cap %d, workers %d: %d descriptors open at once past a limit of %d", fdCap, workers, high, limit)
			}
			if err := f.Close(999); err != nil {
				t.Fatal(err)
			}
			if n := mem.OpenFDs(); n != 0 {
				t.Fatalf("cap %d, workers %d: %d descriptors leaked", fdCap, workers, n)
			}
		}
	}
}

// TestGatherModeFollowsBackend pins the one decision the gather makes —
// inline or through the pool — to what it has observed of the backend.
// The backend's latency is the meterFS clock, the mode is read off the
// two readcache counters, and for the plans that matter the fan-out is
// seen directly: every data pread is held at a FaultFS gate until the
// expected number are in flight.
func TestGatherModeFollowsBackend(t *testing.T) {
	const workers, writers = 4, 16
	// Batch costs of a memory-speed and of a service-limited backend. A
	// pooled plan times its first batch, and the shared clock may run on
	// under it for as many of the plan's other batches as the scheduler
	// lets in: even all 16 of them at the fast cost stay under the
	// engine's 10 us threshold, so every outcome below is exact.
	const fast, slow = 500 * time.Nanosecond, 400 * time.Microsecond

	type rig struct {
		flt  *posix.FaultFS
		m    *meterFS
		p    *FS
		f    *File
		want []byte
	}
	build := func(t *testing.T, cost time.Duration) *rig {
		r := &rig{flt: posix.NewFaultFS(posix.NewMemFS())}
		r.m = newMeterFS(r.flt)
		r.m.cost = cost
		r.p = New(r.m)
		r.p.workers = workers
		r.p.gather.now = r.m.Now
		r.want = writeN1(t, r.p, "/g", writers, 1, 64) // one batch per dropping
		f, err := r.p.Open("/g", posix.O_RDONLY, 999, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.f = f
		t.Cleanup(func() { f.Close(999) })
		return r
	}
	// read runs one whole-file gather and reports how it ran. With
	// gated > 0 its data preads are held until that many are in flight.
	read := func(t *testing.T, r *rig, gated int) (mode string, fanout int) {
		t.Helper()
		serial, pooled := r.p.gather.serial.Load(), r.p.gather.pooled.Load()
		r.m.take()
		gate := make(chan struct{})
		if gated > 0 {
			r.flt.Inject(&posix.FaultRule{Op: posix.FaultRead, PathContains: "dropping.data.", Gate: gate})
		}
		got := make([]byte, len(r.want))
		done := make(chan error, 1)
		go func() {
			n, err := r.f.Read(got, 0)
			if err == nil && (n != len(got) || !bytes.Equal(got, r.want)) {
				err = fmt.Errorf("read returned %d bytes, or the wrong ones", n)
			}
			done <- err
		}()
		for deadline := time.Now().Add(30 * time.Second); gated > 0; time.Sleep(50 * time.Microsecond) {
			r.m.mu.Lock()
			held := r.m.inflight
			r.m.mu.Unlock()
			if held >= gated {
				break
			}
			if time.Now().After(deadline) {
				close(gate)
				t.Fatalf("only %d data preads in flight, want %d", held, gated)
			}
		}
		close(gate)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		r.flt.Clear()
		_, _, fanout = r.m.take()
		switch ds, dp := r.p.gather.serial.Load()-serial, r.p.gather.pooled.Load()-pooled; {
		case ds == 1 && dp == 0:
			mode = "serial"
		case ds == 0 && dp == 1:
			mode = "pooled"
		default:
			t.Fatalf("one gather moved the counters by serial %+d, pooled %+d", ds, dp)
		}
		return mode, fanout
	}

	t.Run("service-limited backend is pooled from the first plan on", func(t *testing.T) {
		r := build(t, slow)
		for plan := 0; plan < 4; plan++ {
			if mode, fanout := read(t, r, workers); mode != "pooled" || fanout != workers {
				t.Fatalf("plan %d ran %s with %d preads in flight, want pooled with %d", plan, mode, fanout, workers)
			}
		}
	})

	t.Run("memory-speed backend goes serial after its first plan, and follows the backend from there", func(t *testing.T) {
		r := build(t, fast)
		if mode, fanout := read(t, r, workers); mode != "pooled" || fanout != workers {
			t.Fatalf("first plan ran %s with %d preads in flight, want pooled with %d: nothing is known yet", mode, fanout, workers)
		}
		for plan := 1; plan < 5; plan++ {
			if mode, fanout := read(t, r, 1); mode != "serial" || fanout != 1 {
				t.Fatalf("plan %d ran %s with %d preads in flight, want serial with 1", plan, mode, fanout)
			}
		}

		// The backend turns slow: the serial plan that finds out is the
		// last one.
		r.m.cost = slow
		plans := 0
		for mode := ""; mode != "pooled"; plans++ {
			if plans == 3 {
				t.Fatalf("still serial %d plans after the backend turned slow", plans)
			}
			mode, _ = read(t, r, 0)
		}
		for plan := 0; plan < 4; plan++ {
			if mode, fanout := read(t, r, workers); mode != "pooled" || fanout != workers {
				t.Fatalf("plan %d after the return to the pool ran %s with %d preads in flight", plan, mode, fanout)
			}
		}

		// And fast again: the mean decays by an eighth a plan, so the
		// way back to inline is longer, but it is not one-way.
		r.m.cost = fast
		for plans, mode := 0, ""; mode != "serial"; plans++ {
			if plans == 64 {
				t.Fatalf("still pooled %d plans after the backend turned fast again", plans)
			}
			mode, _ = read(t, r, 0)
		}
	})
}
