package bench

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// Write-engine benchmarks: the N-1 checkpoint shape (many writers
// striping one logical file, syncing after each burst — plfs_write then
// plfs_sync, as MPI-IO checkpoints do) over a real OS-backed store. Cold
// measures the whole checkpoint lifecycle (container create, first
// writes, close); warm measures steady-state bursts on open writers.
const (
	w1Writers   = 16 // concurrent writer goroutines / data droppings
	w1Block     = 64 << 10
	w1BlocksPer = 16 // per writer => 16 MiB logical file per pass
	w1SyncEvery = 4  // blocks per sync burst
)

// writeN1Pass has every writer stripe its blocks into the container
// concurrently, syncing after each w1SyncEvery-block burst.
func writeN1Pass(b *testing.B, f *plfs.File, pass int) {
	b.Helper()
	var wg sync.WaitGroup
	errc := make(chan error, w1Writers)
	for w := 0; w < w1Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w + 1)}, w1Block)
			for blk := 0; blk < w1BlocksPer; blk++ {
				off := int64(((pass*w1BlocksPer+blk)*w1Writers + w) * w1Block)
				if n, err := f.Write(payload, off, uint32(w)); err != nil || n != w1Block {
					errc <- fmt.Errorf("writer %d block %d: n=%d err=%v", w, blk, n, err)
					return
				}
				if blk%w1SyncEvery == w1SyncEvery-1 {
					if err := f.Sync(uint32(w)); err != nil {
						errc <- fmt.Errorf("writer %d sync: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		b.Fatal(err)
	}
}

// benchN1Write measures one checkpoint pass per iteration over a fresh
// container (unlinked between iterations, outside the timer, so long
// runs stay comparable). Cold times the whole lifecycle — container
// create, writer setup, write bursts, close; warm pre-opens the writers
// outside the timer and times only the bursts.
func benchN1Write(b *testing.B, warm bool) {
	osfs, err := posix.NewOSFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	p := plfs.New(osfs)
	b.SetBytes(int64(w1Writers * w1BlocksPer * w1Block))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := p.Open("/w1", posix.O_CREAT|posix.O_WRONLY, 0, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		if warm {
			// Open every writer (hostdir, droppings, openhosts record)
			// before the clock starts: steady state is bursts only.
			for w := 0; w < w1Writers; w++ {
				if _, err := f.Write([]byte{byte(w + 1)}, int64(w*w1Block), uint32(w)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		writeN1Pass(b, f, 0)
		if !warm {
			for w := 0; w < w1Writers; w++ {
				if err := f.Close(uint32(w)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		if warm {
			for w := 0; w < w1Writers; w++ {
				if err := f.Close(uint32(w)); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := p.Unlink("/w1"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkN1WriteCold_Sharded(b *testing.B) { benchN1Write(b, false) }
func BenchmarkN1WriteWarm_Sharded(b *testing.B) { benchN1Write(b, true) }

// benchWriteV measures one rank's strided multi-extent commit — the
// flattened-datatype write BT-IO issues per timestep — serially per
// extent versus one vectored WriteV.
func benchWriteV(b *testing.B, vectored bool) {
	const (
		extents = 256
		extLen  = 16 << 10
	)
	osfs, err := posix.NewOSFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	p := plfs.New(osfs)
	payload := make([]byte, extLen)
	segs := make([]plfs.WriteSeg, extents)
	for e := 0; e < extents; e++ {
		segs[e] = plfs.WriteSeg{Off: int64(e * 2 * extLen), Data: payload}
	}
	b.SetBytes(extents * extLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := p.Open("/wv", posix.O_CREAT|posix.O_WRONLY, 0, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if vectored {
			if _, err := f.WriteV(segs, 0); err != nil {
				b.Fatal(err)
			}
		} else {
			for e := 0; e < extents; e++ {
				if _, err := f.Write(payload, int64(e*2*extLen), 0); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := f.Sync(0); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := f.Close(0); err != nil {
			b.Fatal(err)
		}
		if err := p.Unlink("/wv"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkStridedCommit_Writes(b *testing.B) { benchWriteV(b, false) }
func BenchmarkStridedCommit_WriteV(b *testing.B) { benchWriteV(b, true) }

// TestN1WriteBenchCorrectness keeps the benchmarks honest: the serial
// and the pooled engine shape must both produce the written bytes. Runs
// in the normal test suite.
func TestN1WriteBenchCorrectness(t *testing.T) {
	for name, procs := range map[string]int{"serial": 1, "sharded": 8} {
		t.Run(name, func(t *testing.T) {
			osfs, err := posix.NewOSFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			p := newPLFSAt(procs, osfs)
			f, err := p.Open("/w1", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			const (
				writers = 4
				blocks  = 8
				block   = 1024
			)
			want := make([]byte, writers*blocks*block)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					payload := bytes.Repeat([]byte{byte(w + 1)}, block)
					for blk := 0; blk < blocks; blk++ {
						off := int64((blk*writers + w) * block)
						copy(want[off:], payload)
						if _, err := f.Write(payload, off, uint32(w)); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			got := make([]byte, len(want))
			if n, err := f.Read(got, 0); err != nil || n != len(want) {
				t.Fatalf("read = %d, %v", n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("benchmark workload corrupted data")
			}
			for w := 0; w < writers; w++ {
				f.Close(uint32(w))
			}
		})
	}
}
