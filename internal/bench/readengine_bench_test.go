package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// Read-engine benchmarks: N-1 read patterns (many writers striped into
// one logical file, many concurrent readers) over a real OS-backed
// store, where positional reads are genuinely parallel.
const (
	n1Writers   = 16 // data droppings (≥16 per the acceptance criteria)
	n1Readers   = 8  // concurrent reader goroutines (≥8)
	n1Block     = 64 << 10
	n1BlocksPer = 16 // per writer => 16 MiB logical file
	n1ReadSize  = 1 << 20
)

// newPLFSAt builds an instance while GOMAXPROCS is procs. The engines
// size their worker pool from it once, in New, so 1 pins the serial
// shape and 8 the widest pooled one on any machine; the instance runs
// at the machine's own GOMAXPROCS afterwards.
func newPLFSAt(procs int, backend posix.FS, opts ...plfs.Option) *plfs.FS {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return plfs.New(backend, opts...)
}

// setupN1 writes the striped container once and returns the PLFS
// instance plus the expected logical contents.
func setupN1(b *testing.B) (*plfs.FS, []byte) {
	b.Helper()
	osfs, err := posix.NewOSFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	p := plfs.New(osfs)
	want := make([]byte, n1Writers*n1BlocksPer*n1Block)
	f, err := p.Open("/n1", posix.O_CREAT|posix.O_WRONLY, 0, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	for w := 0; w < n1Writers; w++ {
		payload := bytes.Repeat([]byte{byte(w + 1)}, n1Block)
		for blk := 0; blk < n1BlocksPer; blk++ {
			off := int64((blk*n1Writers + w) * n1Block)
			copy(want[off:], payload)
			if _, err := f.Write(payload, off, uint32(w)); err != nil {
				b.Fatal(err)
			}
		}
	}
	for w := 0; w < n1Writers; w++ {
		if err := f.Close(uint32(w)); err != nil {
			b.Fatal(err)
		}
	}
	return p, want
}

// BenchmarkN1Read_Parallel measures n1Readers goroutines each opening
// the container and streaming it end to end — the paper's N-1
// checkpoint restart.
func BenchmarkN1Read_Parallel(b *testing.B) {
	p, want := setupN1(b)
	b.SetBytes(int64(len(want)) * n1Readers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errc := make(chan error, n1Readers)
		for r := 0; r < n1Readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				f, err := p.Open("/n1", posix.O_RDONLY, uint32(100+r), 0)
				if err != nil {
					errc <- err
					return
				}
				defer f.Close(uint32(100 + r))
				buf := make([]byte, n1ReadSize)
				for off := int64(0); off < int64(len(want)); off += n1ReadSize {
					n, err := f.Read(buf, off)
					if err != nil || n != n1ReadSize {
						errc <- fmt.Errorf("read at %d: n=%d err=%v", off, n, err)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			b.Fatal(err)
		}
	}
}

// BenchmarkN1FirstOpen_Parallel measures the cold "first read after
// open" path that dominates checkpoint-restart latency: every iteration
// starts from a fresh instance (cold caches) and times n1Readers
// concurrent open+first-read sequences.
func BenchmarkN1FirstOpen_Parallel(b *testing.B) {
	osfs, err := posix.NewOSFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	seed := plfs.New(osfs)
	f, err := seed.Open("/n1", posix.O_CREAT|posix.O_WRONLY, 0, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, n1Block)
	for w := 0; w < n1Writers; w++ {
		for blk := 0; blk < n1BlocksPer; blk++ {
			off := int64((blk*n1Writers + w) * n1Block)
			if _, err := f.Write(payload, off, uint32(w)); err != nil {
				b.Fatal(err)
			}
		}
	}
	for w := 0; w < n1Writers; w++ {
		f.Close(uint32(w))
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := plfs.New(osfs) // cold caches each iteration
		var wg sync.WaitGroup
		for r := 0; r < n1Readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				f, err := p.Open("/n1", posix.O_RDONLY, uint32(100+r), 0)
				if err != nil {
					b.Error(err)
					return
				}
				defer f.Close(uint32(100 + r))
				buf := make([]byte, n1Block)
				if n, err := f.Read(buf, 0); err != nil || n != n1Block {
					b.Errorf("first read: n=%d err=%v", n, err)
				}
			}(r)
		}
		wg.Wait()
	}
}

// TestN1BenchCorrectness keeps the benchmark honest: the serial and the
// pooled engine shape must both produce the written bytes. Runs in the
// normal test suite.
func TestN1BenchCorrectness(t *testing.T) {
	for name, procs := range map[string]int{"serial": 1, "parallel": 8} {
		t.Run(name, func(t *testing.T) {
			osfs, err := posix.NewOSFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			p := newPLFSAt(procs, osfs)
			f, err := p.Open("/n1", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 4*8*1024)
			for w := 0; w < 4; w++ {
				payload := bytes.Repeat([]byte{byte(w + 1)}, 1024)
				for blk := 0; blk < 8; blk++ {
					off := int64((blk*4 + w) * 1024)
					copy(want[off:], payload)
					if _, err := f.Write(payload, off, uint32(w)); err != nil {
						t.Fatal(err)
					}
				}
			}
			got := make([]byte, len(want))
			if n, err := f.Read(got, 0); err != nil || n != len(want) {
				t.Fatalf("read = %d, %v", n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("benchmark workload corrupted data")
			}
			for w := 0; w < 4; w++ {
				f.Close(uint32(w))
			}
		})
	}
}
