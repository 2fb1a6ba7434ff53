package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ldplfs/internal/iostats"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// Multi-backend aggregation benchmarks: the same N-1 container striped
// over 1, 2 or 3 backends whose service rate is finite — each FaultFS
// backend retires one operation per service interval, the regime a
// saturated file server is in. A single backend serializes every dropping
// operation behind one service slot; striping spreads hostdirs across
// independent slots, so the engines' parallel preads and pwrites
// genuinely aggregate. This is the effect PLFS's multi-backend layout
// exists for ("Problems in Modern High Performance Parallel I/O
// Systems"): more servers, more aggregate bandwidth, no application
// change.
const (
	stWriters   = 12 // writer pids 0..11, each its own hostdir (pid mod 32)
	stBlocksPer = 8  // blocks per writer
	stBlock     = 4 << 10
	stService   = 400 * time.Microsecond // per-op backend service time
)

// stripedSet is the rig's backends under one placement layout (the zero
// Layout is mod-N). Each instance composes them afresh, as a new process would.
type stripedSet struct {
	layout   posix.Layout
	backends []posix.FS
}

// instance returns a plfs instance over a fresh composite of the set.
func (s stripedSet) instance() *plfs.FS { return s.instanceAt(runtime.GOMAXPROCS(0)) }

// instanceAt is instance built under GOMAXPROCS procs (see newPLFSAt).
func (s stripedSet) instanceAt(procs int) *plfs.FS {
	return newPLFSAt(procs, posix.NewLayoutFS(s.layout, nil, s.backends...))
}

// stripedOpts builds the rig over n service-limited backends, returning
// the FaultFS handles so service time can be toggled around the setup
// phase.
func stripedOpts(n int) (stripedSet, []*posix.FaultFS) {
	faults := make([]*posix.FaultFS, n)
	opts := stripedSet{backends: make([]posix.FS, n)}
	for i := range faults {
		faults[i] = posix.NewFaultFS(posix.NewMemFS())
		opts.backends[i] = faults[i]
	}
	return opts, faults
}

// newStriped builds the rig's instance at the full fan-out of 8 whatever
// the machine: these backends sleep rather than compute, so overlapping
// their waits needs goroutines, not cores.
func newStriped(opts stripedSet) *plfs.FS { return opts.instanceAt(8) }

// setupStripedN1 writes the canonical N-1 container (service time off,
// so setup cost does not pollute the measurement) and returns a fresh
// cold-cache instance for the read phase plus the expected bytes.
func setupStripedN1(tb testing.TB, n int) (stripedSet, []*posix.FaultFS, []byte) {
	tb.Helper()
	opts, faults := stripedOpts(n)
	p := newStriped(opts)
	want := make([]byte, stWriters*stBlocksPer*stBlock)
	f, err := p.Open("/n1", posix.O_CREAT|posix.O_WRONLY, 0, 0o644)
	if err != nil {
		tb.Fatal(err)
	}
	for w := 0; w < stWriters; w++ {
		payload := bytes.Repeat([]byte{byte(w + 1)}, stBlock)
		for blk := 0; blk < stBlocksPer; blk++ {
			off := int64((blk*stWriters + w) * stBlock)
			copy(want[off:], payload)
			if _, err := f.Write(payload, off, uint32(w)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for w := 0; w < stWriters; w++ {
		if err := f.Close(uint32(w)); err != nil {
			tb.Fatal(err)
		}
	}
	return opts, faults, want
}

// readStripedN1 opens the container cold and streams it end to end,
// returning the wall time of open+read+close under the configured
// service times.
func readStripedN1(tb testing.TB, opts stripedSet, want []byte) time.Duration {
	tb.Helper()
	p := newStriped(opts) // cold caches: index reconstruction included
	start := time.Now()
	f, err := p.Open("/n1", posix.O_RDONLY, 99, 0)
	if err != nil {
		tb.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := f.Read(got, 0); err != nil || n != len(want) {
		tb.Fatalf("read = %d, %v", n, err)
	}
	elapsed := time.Since(start)
	if !bytes.Equal(got, want) {
		tb.Fatal("striped read returned wrong bytes")
	}
	f.Close(99)
	return elapsed
}

func benchStripedN1Read(b *testing.B, n int) {
	opts, faults, want := setupStripedN1(b, n)
	for _, fb := range faults {
		fb.SetServiceTime(posix.FaultRead, stService)
	}
	b.SetBytes(int64(len(want)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readStripedN1(b, opts, want)
	}
}

func BenchmarkStripedN1Read_1Backend(b *testing.B)  { benchStripedN1Read(b, 1) }
func BenchmarkStripedN1Read_2Backends(b *testing.B) { benchStripedN1Read(b, 2) }
func BenchmarkStripedN1Read_3Backends(b *testing.B) { benchStripedN1Read(b, 3) }

// writeStripedN1 runs one N-1 checkpoint pass with stWriters concurrent
// writer goroutines and returns its wall time.
func writeStripedN1(tb testing.TB, opts stripedSet) time.Duration {
	tb.Helper()
	p := newStriped(opts)
	f, err := p.Open("/w1", posix.O_CREAT|posix.O_WRONLY, 0, 0o644)
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, stWriters)
	for w := 0; w < stWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w + 1)}, stBlock)
			for blk := 0; blk < stBlocksPer; blk++ {
				off := int64((blk*stWriters + w) * stBlock)
				if _, err := f.Write(payload, off, uint32(w)); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
			if err := f.Sync(uint32(w)); err != nil {
				errc <- err
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	for err := range errc {
		tb.Fatal(err)
	}
	for w := 0; w < stWriters; w++ {
		f.Close(uint32(w))
	}
	return elapsed
}

func benchStripedN1Write(b *testing.B, n int) {
	opts, faults := stripedOpts(n)
	for _, fb := range faults {
		fb.SetServiceTime(posix.FaultWrite, stService)
	}
	b.SetBytes(int64(stWriters * stBlocksPer * stBlock))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeStripedN1(b, opts)
		b.StopTimer()
		newStriped(opts).Unlink("/w1")
		b.StartTimer()
	}
}

func BenchmarkStripedN1Write_1Backend(b *testing.B)  { benchStripedN1Write(b, 1) }
func BenchmarkStripedN1Write_3Backends(b *testing.B) { benchStripedN1Write(b, 3) }

// dataOps counts the data-dropping ops of one class (reads or writes)
// each backend of a rig serves and how many backends have one in flight
// at once. An op is in flight from its issue until its service ends,
// queueing for the backend's service slot included.
type dataOps struct {
	class  iostats.Op
	mu     sync.Mutex
	busy   []int // ops in flight, per backend
	served []int // ops issued, per backend
	peak   int   // most backends with an op in flight at once
}

func newDataOps(class iostats.Op, n int) *dataOps {
	return &dataOps{class: class, busy: make([]int, n), served: make([]int, n)}
}

// hook returns backend b's counting hook.
func (d *dataOps) hook(b int) dataOpHook { return dataOpHook{d, b} }

// dataOpHook is one backend's counting hook on a dataOps.
type dataOpHook struct {
	d *dataOps
	b int
}

func (h dataOpHook) counts(op posix.Op) bool {
	return op.Class == h.d.class && strings.Contains(op.Path, "dropping.data")
}

func (h dataOpHook) Before(op posix.Op) (posix.Op, error) {
	if h.counts(op) {
		h.d.mu.Lock()
		h.d.busy[h.b]++
		h.d.served[h.b]++
		active := 0
		for _, n := range h.d.busy {
			if n > 0 {
				active++
			}
		}
		h.d.peak = max(h.d.peak, active)
		h.d.mu.Unlock()
	}
	return op, nil
}

func (h dataOpHook) After(op posix.Op, _ int64, _ error) {
	if h.counts(op) {
		h.d.mu.Lock()
		h.d.busy[h.b]--
		h.d.mu.Unlock()
	}
}

// check fails t unless every backend served a data op of the class and
// at least two had one in flight at once.
func (d *dataOps) check(t *testing.T) {
	t.Helper()
	if slices.Contains(d.served, 0) {
		t.Fatalf("data %v ops per backend %v: every backend must serve some", d.class, d.served)
	}
	if d.peak < 2 {
		t.Fatalf("at most %d backend served a data %v op at once, want >= 2", d.peak, d.class)
	}
}

// TestStripedAggregation is the acceptance check behind the benchmarks:
// with per-op backend service time injected, a 3-backend N-1 read must
// spread its data reads over every backend and keep at least two
// backends serving at once — the overlap the aggregation comes from. A
// counting hook on each backend checks it by counts, not by the clock;
// the speed-up over one backend (ideal ~3x) is logged.
func TestStripedAggregation(t *testing.T) {
	times := map[int]time.Duration{}
	reads := newDataOps(iostats.Read, 3)
	for _, n := range []int{1, 3} {
		opts, faults, want := setupStripedN1(t, n)
		for _, fb := range faults {
			fb.SetServiceTime(posix.FaultRead, stService)
		}
		if n == 3 {
			for i := range opts.backends {
				opts.backends[i] = posix.Interpose(faults[i], reads.hook(i))
			}
		}
		times[n] = readStripedN1(t, opts, want)
	}
	t.Logf("N-1 read under %v/op service time: 1 backend %v, 3 backends %v (%.2fx); data reads per backend %v, at most %d backends at once",
		stService, times[1], times[3], float64(times[1])/float64(times[3]), reads.served, reads.peak)
	reads.check(t)
}

// TestStripedWriteAggregation is the write-side twin: the sharded write
// engine over 3 service-limited backends must spread its data writes
// over every backend and keep at least two writing at once. It checks
// counts, not the clock, and logs the speed-up over one backend.
func TestStripedWriteAggregation(t *testing.T) {
	times := map[int]time.Duration{}
	writes := newDataOps(iostats.Write, 3)
	for _, n := range []int{1, 3} {
		opts, faults := stripedOpts(n)
		for _, fb := range faults {
			fb.SetServiceTime(posix.FaultWrite, stService)
		}
		if n == 3 {
			for i := range opts.backends {
				opts.backends[i] = posix.Interpose(faults[i], writes.hook(i))
			}
		}
		times[n] = writeStripedN1(t, opts)
	}
	t.Logf("N-1 write under %v/op service time: 1 backend %v, 3 backends %v (%.2fx); data writes per backend %v, at most %d backends at once",
		stService, times[1], times[3], float64(times[1])/float64(times[3]), writes.served, writes.peak)
	writes.check(t)
}
