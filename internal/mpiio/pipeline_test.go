package mpiio

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"ldplfs/internal/iostats"
	"ldplfs/internal/mpi"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// --- satellite: collective failure paths -----------------------------------

// faultDriver fails pwrites once the shared allowance runs out —
// injected mid-collective it fails an aggregator between staging
// buffers.
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
// with several staging buffers to flush: every rank must come out of
// the collective with the error (reaching the exchanges and the closing
// allreduce — no deadlock), and the buffers flushed before the fault
// must be durable.
func TestPipelinedAggregatorFaultNoDeadlock(t *testing.T) {
	const (
		ranks = 4
		ppn   = 4 // one node, one aggregator: deterministic fault placement
		block = 4 << 10
	)
	mem := newWorldFS(t)
	var allow atomic.Int64
	allow.Store(1) // buffer 0 flushes, buffer 1 faults
	hints := DefaultHints()
	hints.CBBufferSize = block // 4 buffers over the 16 KiB extent
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
	// Durable prefix: exactly the pre-fault buffer's bytes. 4 buffers
	// over a 16 KiB extent = 4 KiB per buffer; buffer 0 is rank 0's
	// block.
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
// fetch must surface on every rank without deadlocking the exchange.
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
	hints.CBBufferSize = block // 4 buffers over the 16 KiB extent
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

// --- staging buffers filled with data, not file span ----------------------

// callCountDriver counts the driver calls each rank's file receives, by
// direction, and keeps the vector capabilities of the files it wraps.
type callCountDriver struct {
	Driver
	writes, reads *[shRanks]atomic.Int64
}

func (d callCountDriver) Open(path string, amode int, rank int) (DriverFile, error) {
	df, err := d.Driver.Open(path, amode, rank)
	if err != nil {
		return nil, err
	}
	return callCountFile{df, &d.writes[rank], &d.reads[rank]}, nil
}

type callCountFile struct {
	DriverFile
	writes, reads *atomic.Int64
}

func (f callCountFile) PwriteAt(p []byte, off int64) (int, error) {
	f.writes.Add(1)
	return f.DriverFile.PwriteAt(p, off)
}

func (f callCountFile) PreadAt(p []byte, off int64) (int, error) {
	f.reads.Add(1)
	return f.DriverFile.PreadAt(p, off)
}

func (f callCountFile) PwritevAt(segs []Segment, buf []byte) (int, error) {
	f.writes.Add(1)
	return f.DriverFile.(VectorWriter).PwritevAt(segs, buf)
}

func (f callCountFile) PreadvAt(segs []Segment, buf []byte) (int, error) {
	f.reads.Add(1)
	return f.DriverFile.(VectorReader).PreadvAt(segs, buf)
}

// TestSparseCollectiveOneRoundPerDomain runs collective_romio_svc3's
// shape — 4 ranks on 4 nodes, so 4 aggregators, each rank its own plfs
// instance over a mod-3 StripedFS, stripes of 4 KiB each followed by a
// hole as large, 64 KiB staging buffers — and counts the driver calls
// per aggregator. Each domain spans 128 KiB but holds 64 KiB of data,
// one staging buffer's worth, so each aggregator makes one driver write
// per WriteAll and one driver read per ReadAll (span cutting made two).
// Its dense twin, the same stripes with the holes filled, stages
// 128 KiB per domain: two buffers, so two of each, as span cutting
// made. Every rank reads back the bytes it wrote.
func TestSparseCollectiveOneRoundPerDomain(t *testing.T) {
	shapes := []struct {
		name   string
		stripe int64 // each rank's stripes; the period is 4 ranks x 8 KiB
		rounds int64
	}{
		{"sparse", shStripe, 1},
		{"dense-twin", 2 * shStripe, 2},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			backends := []posix.FS{posix.NewMemFS(), posix.NewMemFS(), posix.NewMemFS()}
			var writes, reads [shRanks]atomic.Int64
			drv := make([]Driver, shRanks)
			for rank := range drv {
				drv[rank] = callCountDriver{NewPLFSDriver(plfs.New(posix.NewStripedFS(backends...)), nil), &writes, &reads}
			}
			hints := DefaultHints()
			hints.CBBufferSize = 64 << 10
			segsOf := func(rank, c int) []Segment {
				segs := shSegs(rank, c)
				for i := range segs {
					segs[i].Len = sh.stripe
				}
				return segs
			}
			err := runUnderDeadline(t, shRanks, 1, func(r *mpi.Rank) {
				me := r.Rank()
				fh, err := Open(r, drv[me], shPath, ModeCreate|ModeWronly, hints)
				if err != nil {
					panic(err)
				}
				for c := 0; c < shCalls; c++ {
					segs := segsOf(me, c)
					if _, err := fh.WriteAll(segs, shFill(segs)); err != nil {
						panic(err)
					}
				}
				if err := fh.Close(); err != nil {
					panic(err)
				}
				if fh, err = Open(r, drv[me], shPath, ModeRdonly, hints); err != nil {
					panic(err)
				}
				for c := 0; c < shCalls; c++ {
					segs := segsOf(me, c)
					got := make([]byte, segsBytes(segs))
					if _, err := fh.ReadAll(segs, got); err != nil {
						panic(err)
					}
					if !bytes.Equal(got, shFill(segs)) {
						panic(fmt.Sprintf("rank %d: collective %d read back different bytes", me, c))
					}
				}
				if err := fh.Close(); err != nil {
					panic(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for rank := 0; rank < shRanks; rank++ {
				if w, r := writes[rank].Load(), reads[rank].Load(); w != sh.rounds*shCalls || r != sh.rounds*shCalls {
					t.Errorf("aggregator %d: %d driver writes and %d reads in %d WriteAll and %d ReadAll, want %d of each per collective",
						rank, w, r, shCalls, shCalls, sh.rounds)
				}
			}
		})
	}
}

// TestCollectiveOverlapRankOrder pins how a collective write resolves
// pieces of different ranks that overlap: the aggregator stages its
// domain's pieces at one offset in rank order, so the highest rank's
// bytes land last and win. Every rank writes the same strided stripes,
// so each aggregator merges one run of equal offsets per rank.
func TestCollectiveOverlapRankOrder(t *testing.T) {
	const ranks, stripe, stripes = 4, 512, 8
	drv := NewPLFSDriver(plfs.New(posix.NewMemFS()), nil)
	segs := make([]Segment, stripes)
	for k := range segs {
		segs[k] = Segment{Off: int64(k) * 2 * stripe, Len: stripe}
	}
	got := make([]byte, stripes*stripe)
	err := runUnderDeadline(t, ranks, 1, func(r *mpi.Rank) {
		fh, err := Open(r, drv, "/overlap", ModeCreate|ModeRdwr, DefaultHints())
		if err != nil {
			panic(err)
		}
		if _, err := fh.WriteAll(segs, bytes.Repeat([]byte{byte(r.Rank() + 1)}, stripes*stripe)); err != nil {
			panic(err)
		}
		if err := fh.Sync(); err != nil {
			panic(err)
		}
		if r.Rank() == 0 {
			if _, err := fh.ReadAll(segs, got); err != nil {
				panic(err)
			}
		} else if _, err := fh.ReadAll(nil, nil); err != nil {
			panic(err)
		}
		if err := fh.Close(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if i := slices.IndexFunc(got, func(b byte) bool { return b != ranks }); i >= 0 {
		t.Fatalf("byte %d of the overlapped stripes holds rank %d's write, want the last rank's (%d)", i, got[i]-1, ranks-1)
	}
}

// --- satellite: differential byte-identity ---------------------------------

// TestCollectivePathDifferential pins byte-identity of the pipelined
// collective path against independent per-segment calls over randomized
// disjoint strided scripts: whatever the shuffle schedule, the file and
// every rank's read-back must be identical. Pipelined variants also
// sweep the staging and aggregator knobs, down to a staging buffer
// smaller than a stripe, so that buffer ends split pieces.
func TestCollectivePathDifferential(t *testing.T) {
	const (
		ranks = 6
		ppn   = 3
		block = 512
	)
	modes := []struct {
		name string
		tune func(*Hints)
		// independent writes and reads each rank's stripes itself, one
		// WriteAt/ReadAt per segment, with no collective buffering.
		independent bool
	}{
		{"pipelined", func(h *Hints) {}, false},
		{"pipelined-odd-cb-a2", func(h *Hints) { h.CBBufferSize = 3*block + 7; h.CBAggregators = 2 }, false},
		{"pipelined-small-cb", func(h *Hints) { h.CBBufferSize = 2 * block }, false},
		{"pipelined-sub-stripe-cb", func(h *Hints) { h.CBBufferSize = block/3 + 1 }, false},
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
						write = fh.writeEach
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
					read = fh.readEach
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

// writeEach writes segs one independent WriteAt per segment.
func (f *File) writeEach(segs []Segment, buf []byte) (int, error) {
	n := 0
	for _, s := range segs {
		w, err := f.WriteAt(buf[:s.Len], s.Off)
		n += w
		if err != nil {
			return n, err
		}
		buf = buf[s.Len:]
	}
	return n, nil
}

// readEach reads segs one independent ReadAt per segment.
func (f *File) readEach(segs []Segment, buf []byte) (int, error) {
	n := 0
	for _, s := range segs {
		r, err := f.ReadAt(buf[:s.Len], s.Off)
		n += r
		if err != nil {
			return n, err
		}
		buf = buf[s.Len:]
	}
	return n, nil
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
// aggregator hot loop: collect + sort once, then stage + flush a buffer
// at a time, must not allocate once the arena is warm — the pooled
// arena, the merge-sort scratch and the grow helpers make it zero-alloc.
func TestAggregatorStageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the floor only holds on plain builds")
	}
	f := &File{df: nullFile{}, hints: DefaultHints()}
	f.ls = iostats.NewLayerStats("mpiio")
	f.cdw = f.ls.Counter("driver_writes")
	f.cbw = f.ls.Counter("bytes_written")
	f.cago = f.ls.Counter("agg_flush_ops")

	// A domain's worth of pieces from 8 ranks, interleaved so sorting
	// and coalescing both do real work, staged in 4 buffers, so a piece
	// is split at each buffer's end.
	const ranks, stripes, stripe = 8, 16, 1024
	const staging = ranks*stripes*stripe/4 + 100
	backing := make([]byte, ranks*stripes*stripe)
	recv := make([]any, ranks)
	for rk := 0; rk < ranks; rk++ {
		ps := make([]pieceRef, stripes)
		for s := 0; s < stripes; s++ {
			off := int64(s*ranks+rk) * stripe
			ps[s] = pieceRef{off: off, data: backing[off : off+stripe]}
		}
		recv[rk] = &ps
	}
	a := arenaPool.Get().(*arena)
	defer a.release()
	stage := func() {
		a.collect(recv)
		for a.stageWrite(staging) {
			if err := f.flushArena(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ { // warm the arena buffers and run slices
		stage()
	}
	if avg := testing.AllocsPerRun(100, stage); avg > 1 {
		t.Fatalf("warm aggregator stage+flush allocates %.1f/op, budget is 1", avg)
	}
}

// TestOneRoundCollectiveAllocs is the ceiling on a warm WriteAll plus
// ReadAll of 4 ranks' strided stripes, each rank an aggregator staging
// one buffer, over MemFS. Rank 0 measures while the other ranks meet
// it in every call; testing.AllocsPerRun counts the whole process, so
// their side is counted too. Each rank's plan entry and buckets live
// in its pooled route plan, and the send vector carries pointers to
// them, so nothing is boxed; an aggregator stages in one pooled arena
// on its own goroutine. The budget is room for a pool the collector
// emptied.
func TestOneRoundCollectiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the ceiling only holds on plain builds")
	}
	const ranks, stripes, stripe, runs, budget = 4, 8, 512, 50, 1
	drv := NewUFS(newWorldFS(t))
	var allocs float64
	err := runUnderDeadline(t, ranks, 1, func(r *mpi.Rank) {
		fh, err := Open(r, drv, "/scratch/allocs", ModeCreate|ModeRdwr, DefaultHints())
		if err != nil {
			panic(err)
		}
		segs := make([]Segment, stripes)
		for k := range segs {
			segs[k] = Segment{Off: int64(k*ranks+r.Rank()) * stripe, Len: stripe}
		}
		buf := make([]byte, stripes*stripe)
		collective := func() {
			if _, err := fh.WriteAll(segs, buf); err != nil {
				panic(err)
			}
			if _, err := fh.ReadAll(segs, buf); err != nil {
				panic(err)
			}
		}
		collective() // warm the pools and the file
		if r.Rank() == 0 {
			allocs = testing.AllocsPerRun(runs, collective)
		} else {
			for i := 0; i <= runs; i++ { // AllocsPerRun's warm-up call, then runs
				collective()
			}
		}
		if err := fh.Close(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > budget {
		t.Fatalf("a warm one-round WriteAll plus ReadAll on %d ranks allocates %.1f, budget is %d", ranks, allocs, budget)
	}
}
