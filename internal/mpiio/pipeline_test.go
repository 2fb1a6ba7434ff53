package mpiio

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"ldplfs/internal/iostats"
	"ldplfs/internal/mpi"
	"ldplfs/internal/posix"
)

// --- satellite: sieved write past EOF --------------------------------------

// eofDriver wraps a Driver so short preads surface as (n, io.EOF), the
// os.File contract — in-tree backends return (n, nil) at EOF, which
// masked the write path treating EOF as fatal.
type eofDriver struct{ Driver }

func (d eofDriver) Open(path string, amode int, rank int) (DriverFile, error) {
	df, err := d.Driver.Open(path, amode, rank)
	if err != nil {
		return nil, err
	}
	return eofFile{df}, nil
}

type eofFile struct{ DriverFile }

func (f eofFile) PreadAt(p []byte, off int64) (int, error) {
	n, err := f.DriverFile.PreadAt(p, off)
	if err == nil && n < len(p) {
		err = io.EOF
	}
	return n, err
}

// TestSievedWritePastEOF is the regression for the data-sieving RMW
// pre-read: a sieved write whose span extends past EOF used to fail on
// the short pre-read instead of zero-filling the hole like the read
// path does.
func TestSievedWritePastEOF(t *testing.T) {
	mem := newWorldFS(t)
	err := mpi.Run(1, 1, func(r *mpi.Rank) {
		fh, err := Open(r, eofDriver{NewUFS(posix.NewDispatch(mem))},
			"/scratch/eof", ModeCreate|ModeRdwr, DefaultHints())
		if err != nil {
			panic(err)
		}
		defer fh.Close()
		// Empty file: the whole sieve span is past EOF, the densest
		// possible trigger of the old fatal path.
		segs := []Segment{{Off: 0, Len: 64}, {Off: 128, Len: 64}}
		buf := bytes.Repeat([]byte{7}, 128)
		if n, err := fh.WriteStrided(segs, buf); err != nil || n != 128 {
			panic(fmt.Sprintf("sieved write past EOF = %d, %v", n, err))
		}
		if fh.Layer().Counter("sieve_rmws").Load() != 1 {
			panic("write did not take the sieve path")
		}
		got := make([]byte, 192)
		if _, err := fh.ReadAt(got, 0); err != nil {
			panic(err)
		}
		for i := 0; i < 64; i++ {
			if got[i] != 7 || got[64+i] != 0 || got[128+i] != 7 {
				panic(fmt.Sprintf("byte layout wrong at %d: %d %d %d",
					i, got[i], got[64+i], got[128+i]))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// --- satellite: unified sieving heuristic ----------------------------------

// TestSieveHeuristicTable pins the shared density cutoff on both paths:
// sieving only when the span is under the sieve buffer AND under twice
// the useful bytes — sparse strided access falls through to per-segment
// I/O instead of sieving mostly-useless holes.
func TestSieveHeuristicTable(t *testing.T) {
	cases := []struct {
		name  string
		segs  []Segment
		sieve bool
	}{
		{
			name:  "dense",
			segs:  []Segment{{0, 256}, {320, 256}, {640, 256}}, // span 896 < 2*768
			sieve: true,
		},
		{
			name:  "sparse",
			segs:  []Segment{{0, 64}, {4096, 64}, {8192, 64}}, // span 8256 >= 2*192
			sieve: false,
		},
		{
			name:  "span-over-buffer",
			segs:  []Segment{{0, 3 << 20}, {5 << 20, 3 << 20}}, // span > SieveBufferSize
			sieve: false,
		},
	}
	for _, tc := range cases {
		for _, op := range []string{"write", "read"} {
			t.Run(tc.name+"/"+op, func(t *testing.T) {
				mem := newWorldFS(t)
				err := mpi.Run(1, 1, func(r *mpi.Rank) {
					fh, err := Open(r, NewUFS(posix.NewDispatch(mem)),
						"/scratch/h", ModeCreate|ModeRdwr, DefaultHints())
					if err != nil {
						panic(err)
					}
					defer fh.Close()
					total := segsBytes(tc.segs)
					buf := make([]byte, total)
					wantOps := int64(len(tc.segs))
					if tc.sieve {
						wantOps = 1
					}
					switch op {
					case "write":
						before := fh.Layer().Counter("driver_writes").Load()
						if _, err := fh.WriteStrided(tc.segs, buf); err != nil {
							panic(err)
						}
						if got := fh.Layer().Counter("driver_writes").Load() - before; got != wantOps {
							panic(fmt.Sprintf("write ops = %d, want %d", got, wantOps))
						}
					case "read":
						before := fh.Layer().Counter("driver_reads").Load()
						if _, err := fh.ReadStrided(tc.segs, buf); err != nil {
							panic(err)
						}
						if got := fh.Layer().Counter("driver_reads").Load() - before; got != wantOps {
							panic(fmt.Sprintf("read ops = %d, want %d", got, wantOps))
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// --- satellite: concurrent sieved writes -----------------------------------

// TestConcurrentSievedWritesSerialized drives two goroutines through
// sieved read-modify-write cycles over interleaved segments of one
// overlapping span. Without the per-handle range lock each cycle reads
// the block, patches its own stripes and writes the whole span back, so
// the later write-back silently erases the earlier goroutine's stripes
// (and the race detector flags the buffer). With the lock, every stripe
// of both goroutines must survive.
func TestConcurrentSievedWritesSerialized(t *testing.T) {
	const (
		stripe  = 128
		stripes = 16
		iters   = 8
	)
	mem := newWorldFS(t)
	err := mpi.Run(1, 1, func(r *mpi.Rank) {
		fh, err := Open(r, NewUFS(posix.NewDispatch(mem)),
			"/scratch/rmw", ModeCreate|ModeRdwr, DefaultHints())
		if err != nil {
			panic(err)
		}
		defer fh.Close()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Goroutine g owns the odd/even stripes; both spans
				// overlap almost entirely, forcing the RMW cycles to
				// serialize.
				segs := make([]Segment, stripes)
				buf := make([]byte, stripes*stripe)
				for s := 0; s < stripes; s++ {
					segs[s] = Segment{Off: int64(2*s+g) * stripe, Len: stripe}
					for i := 0; i < stripe; i++ {
						buf[s*stripe+i] = byte(g + 1)
					}
				}
				for it := 0; it < iters; it++ {
					if _, err := fh.WriteStrided(segs, buf); err != nil {
						panic(err)
					}
				}
			}(g)
		}
		wg.Wait()
		if fh.Layer().Counter("sieve_rmws").Load() == 0 {
			panic("workload did not exercise the sieve path")
		}
		got := make([]byte, 2*stripes*stripe)
		if _, err := fh.ReadAt(got, 0); err != nil {
			panic(err)
		}
		for s := 0; s < 2*stripes; s++ {
			want := byte(s%2 + 1)
			for i := 0; i < stripe; i++ {
				if got[s*stripe+i] != want {
					panic(fmt.Sprintf("stripe %d byte %d = %d, want %d (lost update)",
						s, i, got[s*stripe+i], want))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// --- satellite: collective failure paths -----------------------------------

// faultDriver fails pwrites once the shared allowance runs out —
// injected mid-collective it fails an aggregator between pipeline
// rounds.
type faultDriver struct {
	Driver
	allow *atomic.Int64
}

func (d faultDriver) Open(path string, amode int, rank int) (DriverFile, error) {
	df, err := d.Driver.Open(path, amode, rank)
	if err != nil {
		return nil, err
	}
	return faultFile{df, d.allow}, nil
}

type faultFile struct {
	DriverFile
	allow *atomic.Int64
}

func (f faultFile) PwriteAt(p []byte, off int64) (int, error) {
	if f.allow.Add(-1) < 0 {
		return 0, fmt.Errorf("injected aggregator fault")
	}
	return f.DriverFile.PwriteAt(p, off)
}

// TestPipelinedAggregatorFaultNoDeadlock fails the aggregator mid-flush
// with multiple pipeline rounds in flight: every rank must come out of
// the collective with the error (reaching every exchange and the
// closing allreduce — no deadlock), and the rounds flushed before the
// fault must be durable.
func TestPipelinedAggregatorFaultNoDeadlock(t *testing.T) {
	const (
		ranks = 4
		ppn   = 4 // one node, one aggregator: deterministic fault placement
		block = 4 << 10
	)
	mem := newWorldFS(t)
	var allow atomic.Int64
	allow.Store(1) // round 0 flushes, round 1 faults
	hints := DefaultHints()
	hints.CBBufferSize = block // 4 rounds over the 16 KiB extent
	errs := make([]error, ranks)
	err := mpi.Run(ranks, ppn, func(r *mpi.Rank) {
		fh, err := Open(r, faultDriver{NewUFS(posix.NewDispatch(mem)), &allow},
			"/scratch/fault", ModeCreate|ModeRdwr, hints)
		if err != nil {
			panic(err)
		}
		defer fh.Close()
		buf := bytes.Repeat([]byte{byte(r.Rank() + 1)}, block)
		_, errs[r.Rank()] = fh.WriteAtAll(buf, int64(r.Rank())*block)
	})
	if err != nil {
		t.Fatal(err)
	}
	for rk, e := range errs {
		if e == nil {
			t.Fatalf("rank %d: collective write with faulted aggregator returned nil error", rk)
		}
	}
	// Durable prefix: exactly the pre-fault round's bytes. 4 rounds over
	// a 16 KiB extent = 4 KiB per round; round 0 is rank 0's block.
	st, err := mem.Stat("/scratch/fault")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != block {
		t.Fatalf("durable bytes = %d, want %d (round 0 only)", st.Size, block)
	}
	got := make([]byte, block)
	fd, err := mem.Open("/scratch/fault", posix.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close(fd)
	if _, err := mem.Pread(fd, got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 1 {
			t.Fatalf("durable round-0 byte %d = %d, want 1", i, b)
		}
	}
}

// TestReadAllAggregatorFaultNoDeadlock is the read-side twin: a faulted
// prefetch must surface on every rank without deadlocking the exchange
// schedule.
func TestReadAllAggregatorFaultNoDeadlock(t *testing.T) {
	const (
		ranks = 4
		ppn   = 4
		block = 4 << 10
	)
	mem := newWorldFS(t)
	// Seed the file so the collective has something to read.
	seedErr := mpi.Run(ranks, ppn, func(r *mpi.Rank) {
		fh, err := Open(r, NewUFS(posix.NewDispatch(mem)),
			"/scratch/rfault", ModeCreate|ModeRdwr, DefaultHints())
		if err != nil {
			panic(err)
		}
		defer fh.Close()
		buf := bytes.Repeat([]byte{byte(r.Rank() + 1)}, block)
		if _, err := fh.WriteAtAll(buf, int64(r.Rank())*block); err != nil {
			panic(err)
		}
	})
	if seedErr != nil {
		t.Fatal(seedErr)
	}
	hints := DefaultHints()
	hints.CBBufferSize = block // 4 rounds over the 16 KiB extent
	errs := make([]error, ranks)
	err := mpi.Run(ranks, ppn, func(r *mpi.Rank) {
		fh, err := Open(r, readFaultDriver{NewUFS(posix.NewDispatch(mem))},
			"/scratch/rfault", ModeRdonly, hints)
		if err != nil {
			panic(err)
		}
		defer fh.Close()
		buf := make([]byte, block)
		_, errs[r.Rank()] = fh.ReadAtAll(buf, int64(r.Rank())*block)
	})
	if err != nil {
		t.Fatal(err)
	}
	for rk, e := range errs {
		if e == nil {
			t.Fatalf("rank %d: collective read with faulted aggregator returned nil error", rk)
		}
	}
}

type readFaultDriver struct{ Driver }

func (d readFaultDriver) Open(path string, amode int, rank int) (DriverFile, error) {
	df, err := d.Driver.Open(path, amode, rank)
	if err != nil {
		return nil, err
	}
	return readFaultFile{df}, nil
}

type readFaultFile struct{ DriverFile }

func (f readFaultFile) PreadAt(p []byte, off int64) (int, error) {
	return 0, fmt.Errorf("injected prefetch fault")
}

// --- satellite: differential byte-identity ---------------------------------

// TestCollectivePathDifferential pins byte-identity of the pipelined
// and independent paths over randomized disjoint strided
// scripts: whatever the shuffle schedule, the file and every rank's
// read-back must be identical. Pipelined variants also sweep the round
// and aggregator knobs.
func TestCollectivePathDifferential(t *testing.T) {
	const (
		ranks = 6
		ppn   = 3
		block = 512
	)
	modes := []struct {
		name string
		tune func(*Hints)
		// independent writes and reads each rank's stripes itself
		// (WriteStrided/ReadStrided), with no collective buffering.
		independent bool
	}{
		{"pipelined", func(h *Hints) {}, false},
		{"pipelined-odd-cb-a2", func(h *Hints) { h.CBBufferSize = 3*block + 7; h.CBAggregators = 2 }, false},
		{"pipelined-small-cb", func(h *Hints) { h.CBBufferSize = 2 * block }, false},
		{"independent", func(h *Hints) {}, true},
	}
	for seed := int64(1); seed <= 3; seed++ {
		var refFile []byte
		var refName string
		for _, mode := range modes {
			mem := newWorldFS(t)
			hints := DefaultHints()
			mode.tune(&hints)
			readback := make([][]byte, ranks)
			err := mpi.Run(ranks, ppn, func(r *mpi.Rank) {
				fh, err := Open(r, NewUFS(posix.NewDispatch(mem)),
					"/scratch/diff", ModeCreate|ModeRdwr, hints)
				if err != nil {
					panic(err)
				}
				defer fh.Close()
				rnd := seed*2654435761 + int64(r.Rank()) + 1
				next := func(n int64) int64 {
					rnd = rnd*6364136223846793005 + 1442695040888963407
					v := rnd % n
					if v < 0 {
						v += n
					}
					return v
				}
				for round := 0; round < 4; round++ {
					// Rank-disjoint randomized stripes: rank r owns every
					// ranks-th block slot, with randomized lengths and
					// content (identical across modes by construction).
					segs := make([]Segment, 0, 8)
					var buf []byte
					for s := 0; s < 8; s++ {
						off := int64(s*ranks+r.Rank()) * block
						l := next(int64(block)-1) + 1
						segs = append(segs, Segment{Off: off, Len: l})
						for j := int64(0); j < l; j++ {
							buf = append(buf, byte(off+j+next(251)))
						}
					}
					write := fh.WriteAll
					if mode.independent {
						write = fh.WriteStrided
					}
					if n, err := write(segs, buf); err != nil || n != len(buf) {
						panic(fmt.Sprintf("%s write = %d, %v", mode.name, n, err))
					}
				}
				r.Barrier() // every stripe is down before any is read back
				// Collective read-back of the neighbour's stripes.
				peer := (r.Rank() + 1) % ranks
				rsegs := make([]Segment, 8)
				for s := 0; s < 8; s++ {
					rsegs[s] = Segment{Off: int64(s*ranks+peer) * block, Len: block}
				}
				got := make([]byte, 8*block)
				read := fh.ReadAll
				if mode.independent {
					read = fh.ReadStrided
				}
				if _, err := read(rsegs, got); err != nil {
					panic(err)
				}
				readback[r.Rank()] = got
			})
			if err != nil {
				t.Fatalf("seed %d mode %s: %v", seed, mode.name, err)
			}
			final := dumpFile(t, mem, "/scratch/diff")
			flat := bytes.Join(readback, nil)
			if refFile == nil {
				refFile, refName = append(final, flat...), mode.name
				continue
			}
			if !bytes.Equal(append(final, flat...), refFile) {
				t.Fatalf("seed %d: mode %s diverges from %s", seed, mode.name, refName)
			}
		}
	}
}

func dumpFile(t *testing.T, mem *posix.MemFS, path string) []byte {
	t.Helper()
	fd, err := mem.Open(path, posix.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close(fd)
	st, err := mem.Fstat(fd)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, st.Size)
	if _, err := mem.Pread(fd, out, 0); err != nil {
		t.Fatal(err)
	}
	return out
}

// --- satellite: aggregator hot-loop alloc ceiling --------------------------

// nullFile swallows writes — the flush target for the alloc floor.
type nullFile struct{}

func (nullFile) PreadAt(p []byte, off int64) (int, error)  { return len(p), nil }
func (nullFile) PwriteAt(p []byte, off int64) (int, error) { return len(p), nil }
func (nullFile) Size() (int64, error)                      { return 0, nil }
func (nullFile) Truncate(size int64) error                 { return nil }
func (nullFile) Sync() error                               { return nil }
func (nullFile) Close() error                              { return nil }

// TestAggregatorStageAllocs is the CI-enforced ceiling on the warm
// aggregator hot loop: collect + sort + stage + flush of a round's
// pieces must not allocate once the arena is warm — the pooled arena,
// the merge-sort scratch and the grow helpers make it zero-alloc.
func TestAggregatorStageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the floor only holds on plain builds")
	}
	f := &File{df: nullFile{}, hints: DefaultHints()}
	f.ls = iostats.NewLayerStats("mpiio")
	f.cdw = f.ls.Counter("driver_writes")
	f.cbw = f.ls.Counter("bytes_written")
	f.cago = f.ls.Counter("agg_flush_ops")

	// A round's worth of pieces from 8 ranks, interleaved so sorting and
	// coalescing both do real work.
	const ranks, stripes, stripe = 8, 16, 1024
	backing := make([]byte, ranks*stripes*stripe)
	recv := make([]any, ranks)
	for rk := 0; rk < ranks; rk++ {
		ps := make([]pieceRef, stripes)
		for s := 0; s < stripes; s++ {
			off := int64(s*ranks+rk) * stripe
			ps[s] = pieceRef{off: off, data: backing[off : off+stripe]}
		}
		recv[rk] = ps
	}
	a := arenaPool.Get().(*arena)
	defer a.release()
	for i := 0; i < 3; i++ { // warm the arena buffers and run slices
		a.stageWrite(recv, 16<<20)
		if err := f.flushArena(a); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		a.stageWrite(recv, 16<<20)
		if err := f.flushArena(a); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Fatalf("warm aggregator stage+flush allocates %.1f/op, budget is 1", avg)
	}
}
