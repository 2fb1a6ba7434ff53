package mpiio

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ldplfs/internal/core"
	"ldplfs/internal/fuse"
	"ldplfs/internal/iostats"
	"ldplfs/internal/mpi"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// methodUnderTest builds a per-rank Driver for one of the paper's four
// access methods over a shared MemFS.
type methodUnderTest struct {
	name string
	// driver returns the ADIO driver a given rank uses, plus a cleanup.
	driver func(t *testing.T, mem *posix.MemFS, rank int) Driver
	// path the application opens.
	path string
}

func methods(t *testing.T) []methodUnderTest {
	return []methodUnderTest{
		{
			name: "mpiio-plain",
			path: "/scratch/file",
			driver: func(t *testing.T, mem *posix.MemFS, rank int) Driver {
				return NewUFS(posix.NewDispatch(mem))
			},
		},
		{
			name: "romio-plfs",
			path: "/scratch/file",
			driver: func(t *testing.T, mem *posix.MemFS, rank int) Driver {
				p := plfs.New(mem)
				return NewPLFSDriver(p, func(path string) (string, bool) {
					return "/backend" + strings.TrimPrefix(path, "/scratch"), true
				})
			},
		},
		{
			name: "ldplfs",
			path: "/mnt/plfs/file",
			driver: func(t *testing.T, mem *posix.MemFS, rank int) Driver {
				d := posix.NewDispatch(mem)
				_, err := core.Preload(d, core.Config{
					Mounts: []core.Mount{{Point: "/mnt/plfs", Backend: "/backend"}},
					Pid:    uint32(rank),
					Plfs:   plfs.New(mem),
				})
				if err != nil {
					t.Fatal(err)
				}
				return NewUFS(d)
			},
		},
		{
			name: "fuse",
			path: "/mnt/plfs/file",
			driver: func(t *testing.T, mem *posix.MemFS, rank int) Driver {
				return NewUFS(fuse.Mount(mem, "/mnt/plfs", "/backend"))
			},
		},
	}
}

func newWorldFS(t *testing.T) *posix.MemFS {
	t.Helper()
	mem := posix.NewMemFS()
	for _, dir := range []string{"/scratch", "/backend"} {
		if err := mem.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return mem
}

// TestCollectiveWriteReadAllMethods runs the MPI-IO Test pattern (N ranks,
// strided contiguous blocks, collective blocking I/O) through all four
// access methods and verifies byte-exact read-back.
func TestCollectiveWriteReadAllMethods(t *testing.T) {
	const (
		ranks = 8
		ppn   = 2
		block = 64 << 10
	)
	for _, m := range methods(t) {
		m := m
		t.Run(m.name, func(t *testing.T) {
			mem := newWorldFS(t)
			err := mpi.Run(ranks, ppn, func(r *mpi.Rank) {
				drv := m.driver(t, mem, r.Rank())
				fh, err := Open(r, drv, m.path, ModeCreate|ModeRdwr, DefaultHints())
				if err != nil {
					panic(err)
				}
				// Write phase: rank i writes block i.
				buf := bytes.Repeat([]byte{byte(r.Rank() + 1)}, block)
				off := int64(r.Rank()) * block
				if n, err := fh.WriteAtAll(buf, off); err != nil || n != block {
					panic(fmt.Sprintf("WriteAtAll = %d, %v", n, err))
				}
				if err := fh.Sync(); err != nil {
					panic(err)
				}
				// Read phase: rank i reads block (i+1) mod ranks.
				peer := (r.Rank() + 1) % ranks
				got := make([]byte, block)
				if n, err := fh.ReadAtAll(got, int64(peer)*block); err != nil || n != block {
					panic(fmt.Sprintf("ReadAtAll = %d, %v", n, err))
				}
				for i, b := range got {
					if b != byte(peer+1) {
						panic(fmt.Sprintf("rank %d byte %d = %d, want %d", r.Rank(), i, b, peer+1))
					}
				}
				if err := fh.Close(); err != nil {
					panic(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCollectiveBufferingAggregatesWrites(t *testing.T) {
	// 8 ranks on 2 nodes => 2 aggregators; with collective buffering the
	// driver sees few large writes, not 8 small ones.
	const (
		ranks = 8
		ppn   = 4
		block = 4 << 10
	)
	mem := newWorldFS(t)
	var stats *iostats.LayerStats
	err := mpi.Run(ranks, ppn, func(r *mpi.Rank) {
		fh, err := Open(r, NewUFS(posix.NewDispatch(mem)), "/scratch/agg", ModeCreate|ModeWronly, DefaultHints())
		if err != nil {
			panic(err)
		}
		buf := bytes.Repeat([]byte{1}, block)
		if _, err := fh.WriteAtAll(buf, int64(r.Rank())*block); err != nil {
			panic(err)
		}
		if r.Rank() == 0 {
			stats = fh.Layer()
		}
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// The whole 32 KiB extent splits into 2 aggregator domains, each
	// contiguous: exactly 2 driver writes.
	if got := stats.Counter("driver_writes").Load(); got != 2 {
		t.Fatalf("driver writes = %d, want 2 (one per aggregator)", got)
	}
	st, err := mem.Stat("/scratch/agg")
	if err != nil || st.Size != ranks*block {
		t.Fatalf("file size = %d, %v", st.Size, err)
	}
}

func TestCollectiveStridedInterleave(t *testing.T) {
	// Interleaved per-rank stripes (BT-like): rank r owns every ranks-th
	// stripe. Exercises multi-segment WriteAll/ReadAll across domains.
	const (
		ranks  = 6
		ppn    = 3
		stripe = 512
		rounds = 8
	)
	mem := newWorldFS(t)
	err := mpi.Run(ranks, ppn, func(r *mpi.Rank) {
		fh, err := Open(r, NewUFS(posix.NewDispatch(mem)), "/scratch/strided", ModeCreate|ModeRdwr, DefaultHints())
		if err != nil {
			panic(err)
		}
		segs := make([]Segment, rounds)
		buf := make([]byte, rounds*stripe)
		for round := 0; round < rounds; round++ {
			segs[round] = Segment{
				Off: int64(round*ranks+r.Rank()) * stripe,
				Len: stripe,
			}
			fill := bytes.Repeat([]byte{byte(r.Rank()*rounds + round)}, stripe)
			copy(buf[round*stripe:], fill)
		}
		if n, err := fh.WriteAll(segs, buf); err != nil || n != len(buf) {
			panic(fmt.Sprintf("WriteAll = %d, %v", n, err))
		}
		fh.Sync()
		// Read back the neighbour's stripes collectively.
		peer := (r.Rank() + 1) % ranks
		rsegs := make([]Segment, rounds)
		for round := 0; round < rounds; round++ {
			rsegs[round] = Segment{Off: int64(round*ranks+peer) * stripe, Len: stripe}
		}
		got := make([]byte, rounds*stripe)
		if n, err := fh.ReadAll(rsegs, got); err != nil || n != len(got) {
			panic(fmt.Sprintf("ReadAll = %d, %v", n, err))
		}
		for round := 0; round < rounds; round++ {
			want := byte(peer*rounds + round)
			for i := 0; i < stripe; i++ {
				if got[round*stripe+i] != want {
					panic(fmt.Sprintf("rank %d round %d byte %d = %d, want %d",
						r.Rank(), round, i, got[round*stripe+i], want))
				}
			}
		}
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndependentWriteAt(t *testing.T) {
	mem := newWorldFS(t)
	err := mpi.Run(4, 2, func(r *mpi.Rank) {
		fh, err := Open(r, NewUFS(posix.NewDispatch(mem)), "/scratch/ind", ModeCreate|ModeRdwr, DefaultHints())
		if err != nil {
			panic(err)
		}
		buf := []byte(fmt.Sprintf("rank%d", r.Rank()))
		if _, err := fh.WriteAt(buf, int64(r.Rank())*8); err != nil {
			panic(err)
		}
		fh.Sync()
		got := make([]byte, 5)
		peer := (r.Rank() + 2) % 4
		if _, err := fh.ReadAt(got, int64(peer)*8); err != nil {
			panic(err)
		}
		if string(got) != fmt.Sprintf("rank%d", peer) {
			panic(fmt.Sprintf("got %q", got))
		}
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDataSievingWrite(t *testing.T) {
	mem := newWorldFS(t)
	err := mpi.Run(1, 1, func(r *mpi.Rank) {
		fh, err := Open(r, NewUFS(posix.NewDispatch(mem)), "/scratch/sieve", ModeCreate|ModeRdwr, DefaultHints())
		if err != nil {
			panic(err)
		}
		// Pre-fill 1 KiB of 0xFF so the sieve's read-modify-write has
		// existing data to preserve.
		base := bytes.Repeat([]byte{0xFF}, 1024)
		fh.WriteAt(base, 0)

		// Strided overwrite: 16 segments of 32 bytes every 64 bytes.
		var segs []Segment
		var buf []byte
		for i := 0; i < 16; i++ {
			segs = append(segs, Segment{Off: int64(i * 64), Len: 32})
			buf = append(buf, bytes.Repeat([]byte{byte(i)}, 32)...)
		}
		before := fh.Layer().Counter("driver_writes").Load()
		if _, err := fh.WriteStrided(segs, buf); err != nil {
			panic(err)
		}
		if got := fh.Layer().Counter("driver_writes").Load() - before; got != 1 {
			panic(fmt.Sprintf("sieved write issued %d driver writes, want 1", got))
		}
		if fh.Layer().Counter("sieve_rmws").Load() != 1 {
			panic("sieve RMW not recorded")
		}
		// Verify overlay: stripes of i and preserved 0xFF gaps.
		got := make([]byte, 1024)
		fh.ReadAt(got, 0)
		for i := 0; i < 16; i++ {
			if got[i*64] != byte(i) || got[i*64+31] != byte(i) {
				panic(fmt.Sprintf("segment %d lost", i))
			}
			if got[i*64+32] != 0xFF {
				panic(fmt.Sprintf("gap %d overwritten: %x", i, got[i*64+32]))
			}
		}
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSievingDisabledIssuesPerSegmentWrites: a sparse strided write —
// its span at least twice the bytes it carries — is not sieved (the
// read-modify-write would move mostly holes), so each segment is its
// own driver write.
func TestSievingDisabledIssuesPerSegmentWrites(t *testing.T) {
	mem := newWorldFS(t)
	err := mpi.Run(1, 1, func(r *mpi.Rank) {
		fh, err := Open(r, NewUFS(posix.NewDispatch(mem)), "/scratch/nosieve", ModeCreate|ModeRdwr, DefaultHints())
		if err != nil {
			panic(err)
		}
		var segs []Segment
		var buf []byte
		for i := 0; i < 8; i++ {
			segs = append(segs, Segment{Off: int64(i * 200), Len: 50}) // span 1450 >= 2 x 400 bytes
			buf = append(buf, bytes.Repeat([]byte{byte(i)}, 50)...)
		}
		before := fh.Layer().Counter("driver_writes").Load()
		fh.WriteStrided(segs, buf)
		if got := fh.Layer().Counter("driver_writes").Load() - before; got != 8 {
			panic(fmt.Sprintf("driver writes = %d, want 8", got))
		}
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetSizeAndSize(t *testing.T) {
	mem := newWorldFS(t)
	err := mpi.Run(3, 1, func(r *mpi.Rank) {
		fh, err := Open(r, NewUFS(posix.NewDispatch(mem)), "/scratch/sz", ModeCreate|ModeRdwr, DefaultHints())
		if err != nil {
			panic(err)
		}
		fh.WriteAtAll(make([]byte, 100), int64(r.Rank())*100)
		if err := fh.SetSize(50); err != nil {
			panic(err)
		}
		r.Barrier()
		if size, err := fh.Size(); err != nil || size != 50 {
			panic(fmt.Sprintf("size = %d, %v", size, err))
		}
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenErrors(t *testing.T) {
	mem := newWorldFS(t)
	err := mpi.Run(2, 1, func(r *mpi.Rank) {
		// Missing file without Create.
		_, err := Open(r, NewUFS(posix.NewDispatch(mem)), "/scratch/absent", ModeRdonly, DefaultHints())
		if err == nil {
			panic("open of missing file succeeded")
		}
		// Bad amode.
		_, err = Open(r, NewUFS(posix.NewDispatch(mem)), "/scratch/x", ModeCreate, DefaultHints())
		if err == nil {
			panic("amode without access mode accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPLFSDriverProducesContainers(t *testing.T) {
	mem := newWorldFS(t)
	p := plfs.New(mem)
	err := mpi.Run(4, 2, func(r *mpi.Rank) {
		drv := NewPLFSDriver(p, nil)
		fh, err := Open(r, drv, "/backend/cont", ModeCreate|ModeWronly, DefaultHints())
		if err != nil {
			panic(err)
		}
		fh.WriteAtAll(bytes.Repeat([]byte{9}, 1000), int64(r.Rank())*1000)
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsContainer("/backend/cont") {
		t.Fatal("no container created by plfs driver")
	}
	st, err := p.Stat("/backend/cont")
	if err != nil || st.Size != 4000 {
		t.Fatalf("container size = %d, %v", st.Size, err)
	}
}

// TestMethodsProduceIdenticalBytes writes the same strided pattern through
// every access method and checks all four logical files are identical —
// the transparency claim at the heart of the paper.
func TestMethodsProduceIdenticalBytes(t *testing.T) {
	const (
		ranks = 4
		ppn   = 2
		block = 8 << 10
		steps = 5
	)
	results := map[string][]byte{}
	for _, m := range methods(t) {
		mem := newWorldFS(t)
		err := mpi.Run(ranks, ppn, func(r *mpi.Rank) {
			drv := m.driver(t, mem, r.Rank())
			fh, err := Open(r, drv, m.path, ModeCreate|ModeRdwr, DefaultHints())
			if err != nil {
				panic(err)
			}
			for s := 0; s < steps; s++ {
				buf := make([]byte, block)
				for i := range buf {
					buf[i] = byte(s*ranks + r.Rank() + i%7)
				}
				off := int64(s*ranks+r.Rank()) * block
				if _, err := fh.WriteAtAll(buf, off); err != nil {
					panic(err)
				}
			}
			fh.Close()
		})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		// Read the logical file back through a fresh reader.
		total := ranks * steps * block
		got := make([]byte, total)
		err = mpi.Run(1, 1, func(r *mpi.Rank) {
			drv := m.driver(t, mem, 0)
			fh, err := Open(r, drv, m.path, ModeRdonly, DefaultHints())
			if err != nil {
				panic(err)
			}
			if n, err := fh.ReadAtAll(got, 0); err != nil || n != total {
				panic(fmt.Sprintf("read back = %d, %v", n, err))
			}
			fh.Close()
		})
		if err != nil {
			t.Fatalf("%s readback: %v", m.name, err)
		}
		results[m.name] = got
	}
	want := results["mpiio-plain"]
	for name, got := range results {
		if !bytes.Equal(got, want) {
			t.Fatalf("method %s produced different bytes than plain MPI-IO", name)
		}
	}
}
