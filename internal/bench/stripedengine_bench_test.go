package bench

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

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
	stWriters   = 12 // writer pids = hostdirs (NumHostdirs below)
	stBlocksPer = 8  // blocks per writer
	stBlock     = 4 << 10
	stService   = 400 * time.Microsecond // per-op backend service time
)

// stripedOpts builds a PLFS configuration over n service-limited
// backends, returning the FaultFS handles so service time can be toggled
// around the setup phase.
func stripedOpts(n int) (plfs.Config, []*posix.FaultFS) {
	faults := make([]*posix.FaultFS, n)
	opts := plfs.Config{
		Engine:   plfs.EngineOptions{NumHostdirs: stWriters},
		Backends: make([]posix.FS, n),
	}
	for i := range faults {
		faults[i] = posix.NewFaultFS(posix.NewMemFS())
		opts.Backends[i] = faults[i]
	}
	return opts, faults
}

// newStriped builds the rig's instance at the full fan-out of 8 whatever
// the machine: these backends sleep rather than compute, so overlapping
// their waits needs goroutines, not cores.
func newStriped(opts plfs.Config) *plfs.FS { return newPLFSAt(8, nil, opts) }

// setupStripedN1 writes the canonical N-1 container (service time off,
// so setup cost does not pollute the measurement) and returns a fresh
// cold-cache instance for the read phase plus the expected bytes.
func setupStripedN1(tb testing.TB, n int) (plfs.Config, []*posix.FaultFS, []byte) {
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
func readStripedN1(tb testing.TB, opts plfs.Config, want []byte) time.Duration {
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
func writeStripedN1(tb testing.TB, opts plfs.Config) time.Duration {
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

// TestStripedAggregation is the acceptance check behind the benchmarks:
// with per-op backend service time injected, a 3-backend N-1 read must
// run at least 1.5x faster than the single-backend baseline (ideal is
// ~3x; 1.5x leaves headroom for scheduler noise). The sleeps dominate
// both sides, so the ratio is stable across machines.
func TestStripedAggregation(t *testing.T) {
	times := map[int]time.Duration{}
	for _, n := range []int{1, 3} {
		opts, faults, want := setupStripedN1(t, n)
		for _, fb := range faults {
			fb.SetServiceTime(posix.FaultRead, stService)
		}
		times[n] = readStripedN1(t, opts, want)
	}
	t.Logf("N-1 read under %v/op service time: 1 backend %v, 3 backends %v (%.2fx)",
		stService, times[1], times[3], float64(times[1])/float64(times[3]))
	if float64(times[1]) < 1.5*float64(times[3]) {
		t.Fatalf("3-backend read only %.2fx faster than single backend (want >= 1.5x): %v vs %v",
			float64(times[1])/float64(times[3]), times[1], times[3])
	}
}

// TestStripedWriteAggregation is the write-side twin: the sharded write
// engine over 3 service-limited backends must beat one backend by 1.5x.
func TestStripedWriteAggregation(t *testing.T) {
	times := map[int]time.Duration{}
	for _, n := range []int{1, 3} {
		opts, faults := stripedOpts(n)
		for _, fb := range faults {
			fb.SetServiceTime(posix.FaultWrite, stService)
		}
		times[n] = writeStripedN1(t, opts)
	}
	t.Logf("N-1 write under %v/op service time: 1 backend %v, 3 backends %v (%.2fx)",
		stService, times[1], times[3], float64(times[1])/float64(times[3]))
	if float64(times[1]) < 1.5*float64(times[3]) {
		t.Fatalf("3-backend write only %.2fx faster than single backend (want >= 1.5x): %v vs %v",
			float64(times[1])/float64(times[3]), times[1], times[3])
	}
}
