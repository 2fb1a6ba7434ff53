package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ldplfs/internal/mpi"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// The rig of the shared-index tests: collective_romio_svc3's geometry —
// 4 ranks, each its own plfs instance over a mod-3 StripedFS, writing
// strided stripes of 4 KiB, each followed by a 4 KiB hole, through
// 64 KiB staging buffers — on MemFS without the service time.
const (
	shRanks   = 4
	shCalls   = 2
	shStripes = 16
	shStripe  = 4 << 10
	shPath    = "/ckpt"
)

// opCounts tallies the backend calls one rank's instance made on one
// backend, by call.
type opCounts struct {
	mu sync.Mutex
	n  map[posix.Call]int
}

func (c *opCounts) Before(op posix.Op) (posix.Op, error) { return op, nil }

func (c *opCounts) After(op posix.Op, _ int64, _ error) {
	c.mu.Lock()
	c.n[op.Call]++
	c.mu.Unlock()
}

func (c *opCounts) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.n {
		n += v
	}
	return n
}

func (c *opCounts) of(calls ...posix.Call) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, call := range calls {
		n += c.n[call]
	}
	return n
}

// shareRig is three backends shared by every rank, and the per-rank,
// per-backend counters of the instances built over them.
type shareRig struct {
	backends [3]posix.FS
	counts   [shRanks][3]*opCounts
	fs       [shRanks]*plfs.FS
}

func newShareRig(backend0 posix.FS) *shareRig {
	g := &shareRig{backends: [3]posix.FS{backend0, posix.NewMemFS(), posix.NewMemFS()}}
	if backend0 == nil {
		g.backends[0] = posix.NewMemFS()
	}
	return g
}

// hiddenShare is a driver with the index-sharing capability hidden: the
// per-rank open every driver had before it.
type hiddenShare struct{ Driver }

// drivers builds a fresh instance per rank, as MPI processes have, with
// fresh counters, and its PLFS driver — the capability hidden when
// shared is false.
func (g *shareRig) drivers(shared bool) []Driver {
	out := make([]Driver, shRanks)
	for rank := range out {
		var bs [3]posix.FS
		for i := range bs {
			g.counts[rank][i] = &opCounts{n: map[posix.Call]int{}}
			bs[i] = posix.Interpose(g.backends[i], g.counts[rank][i])
		}
		g.fs[rank] = plfs.New(posix.NewStripedFS(bs[:]...))
		var d Driver = NewPLFSDriver(g.fs[rank], nil)
		if !shared {
			d = hiddenShare{d}
		}
		out[rank] = d
	}
	return out
}

// shSegs is rank's access in collective call c: stripes of shStripe,
// each followed by a hole as large, the ranks' stripes interleaved.
func shSegs(rank, c int) []Segment {
	segs := make([]Segment, shStripes)
	for i := range segs {
		off := (int64(c*shStripes+i)*shRanks + int64(rank)) * 2 * shStripe
		segs[i] = Segment{Off: off, Len: shStripe}
	}
	return segs
}

func shByte(off int64) byte { return byte(off*7 + off>>12 + 1) }

// shFill is the payload of segs.
func shFill(segs []Segment) []byte {
	var buf []byte
	for _, s := range segs {
		for o := s.Off; o < s.Off+s.Len; o++ {
			buf = append(buf, shByte(o))
		}
	}
	return buf
}

// write builds the container the way the benchmark does: a collective
// create, each rank's first write in turn, the collective writes, close.
func (g *shareRig) write(t *testing.T) int64 {
	t.Helper()
	hints := DefaultHints()
	hints.CBBufferSize = 64 << 10
	drv := g.drivers(true)
	err := mpi.Run(shRanks, 1, func(r *mpi.Rank) {
		me := r.Rank()
		fh, err := Open(r, drv[me], shPath, ModeCreate|ModeWronly, hints)
		if err != nil {
			panic(err)
		}
		first := shSegs(me, 0)[0]
		for turn := 0; turn < shRanks; turn++ {
			if turn == me {
				if _, err := fh.WriteAt(shFill([]Segment{first})[:8], first.Off); err != nil {
					panic(err)
				}
			}
			r.Barrier()
		}
		for c := 0; c < shCalls; c++ {
			segs := shSegs(me, c)
			if _, err := fh.WriteAll(segs, shFill(segs)); err != nil {
				panic(err)
			}
		}
		if err := fh.Close(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	last := shSegs(shRanks-1, shCalls-1)
	return last[len(last)-1].Off + shStripe
}

// coldOpen is the benchmark's cold open on fresh instances: a
// collective read-only open, 4 KiB at each rank's first stripe, close.
// It returns each rank's error.
func (g *shareRig) coldOpen(t *testing.T, shared bool, path func(rank int) string) []error {
	t.Helper()
	drv := g.drivers(shared)
	errs := make([]error, shRanks)
	err := runUnderDeadline(t, shRanks, 1, func(r *mpi.Rank) {
		me := r.Rank()
		fh, err := Open(r, drv[me], path(me), ModeRdonly, DefaultHints())
		if errs[me] = err; err != nil {
			return
		}
		first := shSegs(me, 0)[0]
		buf := make([]byte, shStripe)
		if _, err := fh.ReadAt(buf, first.Off); err != nil {
			errs[me] = err
		} else if !bytes.Equal(buf, shFill([]Segment{first})) {
			errs[me] = fmt.Errorf("rank %d: first stripe differs", me)
		}
		if err := fh.Close(); err != nil && errs[me] == nil {
			errs[me] = err
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return errs
}

// readBack is what one collective read-only open returns: per rank, the
// file's size, the whole file read independently past its end, and the
// rank's stripes read collectively.
type readBack struct {
	size  [shRanks]int64
	whole [shRanks][]byte
	all   [shRanks][]byte
}

func (g *shareRig) readBack(t *testing.T, shared bool, size int64) *readBack {
	t.Helper()
	hints := DefaultHints()
	hints.CBBufferSize = 64 << 10
	drv := g.drivers(shared)
	var out readBack
	err := runUnderDeadline(t, shRanks, 1, func(r *mpi.Rank) {
		me := r.Rank()
		fh, err := Open(r, drv[me], shPath, ModeRdonly, hints)
		if err != nil {
			panic(err)
		}
		if out.size[me], err = fh.Size(); err != nil {
			panic(err)
		}
		out.whole[me] = make([]byte, size+shStripe)
		n, err := fh.ReadAt(out.whole[me], 0)
		if err != nil {
			panic(err)
		}
		out.whole[me] = out.whole[me][:n]
		for c := 0; c < shCalls; c++ {
			segs := shSegs(me, c)
			buf := make([]byte, shStripes*shStripe)
			if _, err := fh.ReadAll(segs, buf); err != nil {
				panic(err)
			}
			out.all[me] = append(out.all[me], buf...)
		}
		if err := fh.Close(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return &out
}

// tally is one cold open's backend calls: total, on backend 0, and the
// Stat and listing calls of ranks 1 and up.
type tally struct{ total, backend0, peerMeta int }

func (g *shareRig) tally() tally {
	var s tally
	for rank := range g.counts {
		for b, c := range g.counts[rank] {
			s.total += c.total()
			if b == 0 {
				s.backend0 += c.total()
			}
			if rank > 0 {
				s.peerMeta += c.of(posix.CallStat, posix.CallReaddir, posix.CallReaddirStat)
			}
		}
	}
	return s
}

// TestSharedOpenDifferential runs the benchmark's cold collective open
// through the shared index and through per-rank opens (the capability
// hidden), over a trusted flattened record and over raw droppings: every
// byte, size and hole must match, and the backend calls are pinned —
// ranks 1 and up make no metadata call in the shared open. A
// communicator whose ranks name files of their own takes the per-rank
// path.
func TestSharedOpenDifferential(t *testing.T) {
	g := newShareRig(nil)
	size := g.write(t)
	want := make([]byte, size)
	for rank := 0; rank < shRanks; rank++ {
		for c := 0; c < shCalls; c++ {
			for _, s := range shSegs(rank, c) {
				copy(want[s.Off:], shFill([]Segment{s}))
			}
		}
	}
	admin := plfs.New(posix.NewStripedFS(g.backends[:]...))
	same := func(int) string { return shPath }
	// Backend calls of one cold open. Per rank, every rank walks the
	// container's metadata (rank 0's arbitrating pre-open, 2 stats more,
	// is gone from a read-only open: 94 and 146 before). A walk makes
	// one Stat to find the container and lists each of its 4 hostdirs
	// with attributes, so no dropping is statted: 5 calls fewer per
	// walk, 3 of them on backend 0, than with a Stat of the container
	// directory and of each dropping (32, 92, 45 and 144 before). A raw
	// merge opens each of the 4 index droppings from its listed size:
	// an open, one read of header and records, a close — no Fstat and
	// no read of the header alone, 2 calls fewer per dropping per walk
	// that merges (raw 40 (26) and 124 (68) before). A walk lists the
	// container root with attributes too, so a trusted open reads the
	// record at its listed size: no Fstat, one call fewer per walk that
	// reads it (trusted 27 (21) and 72 (48) before).
	pinned := map[string]tally{
		"trusted/shared":   {total: 26, backend0: 20},
		"trusted/per-rank": {total: 68, backend0: 44, peerMeta: 33},
		"raw/shared":       {total: 32, backend0: 22},
		"raw/per-rank":     {total: 92, backend0: 52, peerMeta: 24},
	}
	for _, state := range []string{"trusted", "raw"} {
		if state == "raw" {
			if n, err := admin.DropFlattenedIndex(shPath); err != nil || n == 0 {
				t.Fatalf("DropFlattenedIndex = %d, %v", n, err)
			}
		}
		var ref *readBack
		for _, shared := range []bool{true, false} {
			name := state + "/shared"
			if !shared {
				name = state + "/per-rank"
			}
			for rank, err := range g.coldOpen(t, shared, same) {
				if err != nil {
					t.Fatalf("%s: rank %d: %v", name, rank, err)
				}
			}
			if got := g.tally(); got != pinned[name] {
				t.Errorf("%s: backend calls %+v, want %+v", name, got, pinned[name])
			}
			got := g.readBack(t, shared, size)
			for rank := 0; rank < shRanks; rank++ {
				if got.size[rank] != size {
					t.Errorf("%s: rank %d: Size = %d, want %d", name, rank, got.size[rank], size)
				}
				if !bytes.Equal(got.whole[rank], want) {
					t.Errorf("%s: rank %d: the file read back differs (%d bytes, want %d)", name, rank, len(got.whole[rank]), len(want))
				}
				var stripes []byte
				for c := 0; c < shCalls; c++ {
					stripes = append(stripes, shFill(shSegs(rank, c))...)
				}
				if !bytes.Equal(got.all[rank], stripes) {
					t.Errorf("%s: rank %d: ReadAll differs", name, rank)
				}
			}
			if ref == nil {
				ref = got
			} else if fmt.Sprint(ref.size) != fmt.Sprint(got.size) || !bytes.Equal(bytes.Join(ref.whole[:], nil), bytes.Join(got.whole[:], nil)) {
				t.Errorf("%s: differs from the shared open", name)
			}
		}
	}

	t.Run("per-rank-paths", func(t *testing.T) {
		own := func(rank int) string { return fmt.Sprintf("%s.%d", shPath, rank) }
		for rank := 0; rank < shRanks; rank++ {
			f, err := admin.Open(own(rank), posix.O_CREAT|posix.O_WRONLY, uint32(rank), 0o644)
			if err != nil {
				t.Fatal(err)
			}
			first := shSegs(rank, 0)[0]
			if _, err := f.Write(shFill([]Segment{first}), first.Off, uint32(rank)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(uint32(rank)); err != nil {
				t.Fatal(err)
			}
		}
		for rank, err := range g.coldOpen(t, true, own) {
			if err != nil {
				t.Fatalf("rank %d: %v", rank, err)
			}
		}
		if got := g.tally(); got.peerMeta == 0 {
			t.Fatalf("backend calls %+v: ranks 1 and up made no metadata call, so they shared rank 0's index", got)
		}
	})
}

// TestSharedOpenFaultNoDeadlock refuses rank 0's build of the shared
// index at each step that can fail it — the listing, the flattened
// record together with the merge it falls back to, and a raw dropping —
// on backend 0: every rank must return an error, none may wait for
// another, and rank 0 must hold nothing afterwards. A record refused
// alone is a memo lost, not an error: the merge serves the open.
func TestSharedOpenFaultNoDeadlock(t *testing.T) {
	errRefused := errors.New("injected backend fault")
	rows := []struct {
		name  string
		raw   bool // drop the flattened record first
		rules []*posix.FaultRule
		fails bool
	}{
		{"listing", false, []*posix.FaultRule{{Op: posix.FaultMeta, PathContains: "hostdir.", Times: 1, Err: errRefused}}, true},
		{"record+merge", false, []*posix.FaultRule{
			{Op: posix.FaultRead, PathContains: "index.flattened.", Times: 1, Err: errRefused},
			{Op: posix.FaultRead, PathContains: "dropping.index.", Times: 1, Err: errRefused},
		}, true},
		{"raw-dropping", true, []*posix.FaultRule{{Op: posix.FaultRead, PathContains: "dropping.index.", Times: 1, Err: errRefused}}, true},
		{"record-alone", false, []*posix.FaultRule{{Op: posix.FaultRead, PathContains: "index.flattened.", Times: 1, Err: errRefused}}, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fault := posix.NewFaultFS(posix.NewMemFS())
			g := newShareRig(fault)
			g.write(t)
			if row.raw {
				admin := plfs.New(posix.NewStripedFS(g.backends[:]...))
				if _, err := admin.DropFlattenedIndex(shPath); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range row.rules {
				fault.Inject(r)
			}
			errs := g.coldOpen(t, true, func(int) string { return shPath })
			if fault.Fired() == 0 {
				t.Fatal("no fault fired")
			}
			for rank, err := range errs {
				switch {
				case !row.fails && err != nil:
					t.Errorf("rank %d: %v", rank, err)
				case row.fails && err == nil:
					t.Errorf("rank %d: open succeeded though rank 0's build failed", rank)
				case row.fails && !errors.Is(err, errRefused):
					t.Errorf("rank %d: error %q does not carry the refusal", rank, err)
				case row.fails && rank > 0 && !strings.Contains(err.Error(), "another rank"):
					t.Errorf("rank %d: error %q does not blame another rank", rank, err)
				}
			}
			for rank, p := range g.fs {
				if n := p.CachedReadFDs(); n != 0 {
					t.Errorf("rank %d holds %d read descriptors", rank, n)
				}
				if n := p.OpenContainers(); n != 0 {
					t.Errorf("rank %d holds %d containers open", rank, n)
				}
			}
		})
	}
}

// countingDriver counts the driver opens a collective open makes, and
// forwards the index-sharing capability when the driver it wraps has it.
type countingDriver struct {
	Driver
	mu    sync.Mutex
	opens int
}

func (d *countingDriver) count() {
	d.mu.Lock()
	d.opens++
	d.mu.Unlock()
}

func (d *countingDriver) Open(path string, amode int, rank int) (DriverFile, error) {
	d.count()
	return d.Driver.Open(path, amode, rank)
}

type countingSharer struct{ *countingDriver }

func (d countingSharer) OpenSharing(path string, rank int) (DriverFile, plfs.SharedIndex, error) {
	d.count()
	return d.Driver.(indexSharer).OpenSharing(path, rank)
}

func (d countingSharer) OpenShared(path string, rank int, shared plfs.SharedIndex) (DriverFile, error) {
	d.count()
	return d.Driver.(indexSharer).OpenShared(path, rank, shared)
}

// TestOpenDriverOpens pins the driver opens of one collective open per
// amode: one per rank, plus rank 0's arbitrating pre-open only for a
// creating open; a read-only open through a sharing driver opens once
// per rank too, rank 0's open being the one that builds the index.
func TestOpenDriverOpens(t *testing.T) {
	const ranks = 4
	rows := []struct {
		amode int
		share bool
		want  int
	}{
		{ModeCreate | ModeWronly, true, ranks + 1},
		{ModeCreate | ModeRdwr, true, ranks + 1},
		{ModeCreate | ModeExcl | ModeRdwr, false, ranks + 1},
		{ModeWronly, true, ranks},
		{ModeRdwr, true, ranks},
		{ModeRdwr | ModeAppend, true, ranks},
		{ModeRdonly, false, ranks},
		{ModeRdonly, true, ranks},
		{ModeRdonly | ModeCreate, true, ranks + 1},
	}
	for i, row := range rows {
		t.Run(fmt.Sprintf("amode=%#x/share=%v", row.amode, row.share), func(t *testing.T) {
			path := fmt.Sprintf("/f%d", i)
			cd := &countingDriver{Driver: NewPLFSDriver(plfs.New(posix.NewMemFS()), nil)}
			var drv Driver = cd
			if row.share {
				drv = countingSharer{cd}
			}
			if row.amode&ModeCreate == 0 {
				// The file exists before the counted open.
				if err := mpi.Run(ranks, 2, func(r *mpi.Rank) {
					fh, err := Open(r, drv, path, ModeCreate|ModeWronly, DefaultHints())
					if err != nil {
						panic(err)
					}
					fh.Close()
				}); err != nil {
					t.Fatal(err)
				}
				cd.opens = 0
			}
			err := mpi.Run(ranks, 2, func(r *mpi.Rank) {
				fh, err := Open(r, drv, path, row.amode, DefaultHints())
				if err != nil {
					panic(err)
				}
				fh.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
			if cd.opens != row.want {
				t.Fatalf("%d driver opens, want %d", cd.opens, row.want)
			}
		})
	}
}
