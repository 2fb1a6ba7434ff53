package bench

import (
	"bytes"
	"fmt"
	"testing"

	"ldplfs/internal/iostats"
	"ldplfs/internal/mpi"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// Collective I/O benchmarks on the 3-backend service-limited rig: the
// strided-with-gaps workload where the pipelined collective path's
// vectored aggregator flushes collapse a round's runs into a handful of
// batched engine submissions. With each backend retiring one op per
// service interval, the op-count collapse is the wall-clock story.
const (
	colRanks   = 8
	colPPN     = 4 // 2 nodes -> 2 aggregators by default
	colStripes = 8 // stripes per rank per collective
	colStripe  = 4 << 10
	colGap     = colStripe // hole between stripes: defeats run coalescing
)

// colSegs builds rank r's strided-with-gaps access for one collective:
// stripe s of rank r sits at ((s*ranks)+r) * (stripe+gap), so adjacent
// pieces of one aggregator domain never touch and no two runs coalesce.
func colSegs(rank int) ([]mpiio.Segment, []byte) {
	segs := make([]mpiio.Segment, colStripes)
	buf := bytes.Repeat([]byte{byte(rank + 1)}, colStripes*colStripe)
	for s := 0; s < colStripes; s++ {
		segs[s] = mpiio.Segment{
			Off: int64(s*colRanks+rank) * (colStripe + colGap),
			Len: colStripe,
		}
	}
	return segs, buf
}

// colRig assembles the mpiio-over-PLFS stack on n service-limited
// backends. Service time starts off; callers toggle it around setup.
func colRig(n int) (*plfs.FS, []*posix.FaultFS) {
	opts, faults := stripedOpts(n)
	return plfs.New(nil, opts), faults
}

func colHints(plane iostats.Collector) mpiio.Hints {
	h := mpiio.DefaultHints()
	h.Collector = plane
	return h
}

// colWrite runs one collective write phase (all ranks, one WriteAll).
func colWrite(tb testing.TB, p *plfs.FS, path string, hints mpiio.Hints) {
	tb.Helper()
	err := mpi.Run(colRanks, colPPN, func(r *mpi.Rank) {
		d := mpiio.NewPLFSDriver(p, nil)
		fh, err := mpiio.Open(r, d, path, mpiio.ModeCreate|mpiio.ModeRdwr, hints)
		if err != nil {
			panic(err)
		}
		defer fh.Close()
		segs, buf := colSegs(r.Rank())
		if n, err := fh.WriteAll(segs, buf); err != nil || n != len(buf) {
			panic(fmt.Sprintf("WriteAll = %d, %v", n, err))
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// colRead runs one collective read phase over a previously written file.
func colRead(tb testing.TB, p *plfs.FS, path string, hints mpiio.Hints) {
	tb.Helper()
	err := mpi.Run(colRanks, colPPN, func(r *mpi.Rank) {
		d := mpiio.NewPLFSDriver(p, nil)
		fh, err := mpiio.Open(r, d, path, mpiio.ModeRdonly, hints)
		if err != nil {
			panic(err)
		}
		defer fh.Close()
		segs, want := colSegs(r.Rank())
		got := make([]byte, len(want))
		if n, err := fh.ReadAll(segs, got); err != nil || n != len(got) {
			panic(fmt.Sprintf("ReadAll = %d, %v", n, err))
		}
		if !bytes.Equal(got, want) {
			panic("collective read returned wrong bytes")
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkCollectiveStridedWritePipelined(b *testing.B) {
	p, faults := colRig(3)
	for _, fb := range faults {
		fb.SetServiceTime(posix.FaultWrite, stService)
	}
	hints := colHints(nil)
	b.SetBytes(int64(colRanks * colStripes * colStripe))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		colWrite(b, p, fmt.Sprintf("/col-w-%d", i), hints)
	}
}

func BenchmarkCollectiveStridedReadPipelined(b *testing.B) {
	p, faults := colRig(3)
	colWrite(b, p, "/col-r", colHints(nil)) // seed with service time off
	for _, fb := range faults {
		fb.SetServiceTime(posix.FaultRead, stService)
	}
	hints := colHints(nil)
	b.SetBytes(int64(colRanks * colStripes * colStripe))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		colRead(b, p, "/col-r", hints)
	}
}

// TestCollectiveEngineOpsCollapse is the CI op-count floor: the
// pipelined aggregators must issue at least 4x fewer driver flush ops
// than the pieces they shuffle — the structural guarantee that staging
// coalesces and the vectored driver path batches, measured on the mpiio
// layer's counters rather than wall clock.
func TestCollectiveEngineOpsCollapse(t *testing.T) {
	plane := iostats.NewPlane()
	p, _ := colRig(3)
	colWrite(t, p, "/collapse", colHints(plane))
	colRead(t, p, "/collapse", colHints(plane))
	ls := plane.Layer("mpiio")
	pieces := ls.Counter("shuffle_pieces").Load()
	flushes := ls.Counter("agg_flush_ops").Load()
	if pieces == 0 || flushes == 0 {
		t.Fatalf("shuffle counters did not move (pieces=%d flushes=%d)", pieces, flushes)
	}
	if flushes*4 > pieces {
		t.Fatalf("aggregators issued %d flush ops for %d pieces: less than the 4x collapse floor", flushes, pieces)
	}
	t.Logf("shuffle pieces=%d, aggregator flush ops=%d (%.1fx collapse)", pieces, flushes, float64(pieces)/float64(flushes))
}
