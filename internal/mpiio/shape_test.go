package mpiio

import (
	"bytes"
	"cmp"
	"crypto/md5"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ldplfs/internal/iostats"
	"ldplfs/internal/mpi"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// runUnderDeadline is mpi.Run for tests whose failure mode is a hung
// communicator: the test fails instead of waiting out the suite timeout.
func runUnderDeadline(t *testing.T, size, ppn int, body func(r *mpi.Rank)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- mpi.Run(size, ppn, body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		t.Fatalf("communicator of %d ranks deadlocked", size)
		return nil
	}
}

// TestHintsSurface pins the settable surface of the layer: a field added
// to Hints is a knob added to every tool that renders them.
func TestHintsSurface(t *testing.T) {
	want := []string{"CBAggregators", "CBBufferSize", "Collector"}
	var got []string
	ht := reflect.TypeOf(Hints{})
	for i := 0; i < ht.NumField(); i++ {
		got = append(got, ht.Field(i).Name)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("Hints fields:\n got %v\nwant %v", got, want)
	}
	d := DefaultHints()
	if d.CBBufferSize != 16<<20 || d.CBAggregators != 0 || d.Collector != nil {
		t.Fatalf("defaults = %+v", d)
	}
}

// geomPatterns are the collective accesses TestCollectiveGeometry cuts:
// rank's segment list, given the world size, the first offset and the
// extent the pattern may fill.
var geomPatterns = []struct {
	name string
	segs func(ranks, rank int, lo, ext int64) []Segment
}{
	// Each rank one block of the extent, every byte once.
	{"dense", func(ranks, rank int, lo, ext int64) []Segment {
		size := (ext + int64(ranks) - 1) / int64(ranks)
		off, end := lo+int64(rank)*size, min(lo+int64(rank+1)*size, lo+ext)
		if off >= end {
			return nil
		}
		return []Segment{{off, end - off}}
	}},
	// 3-byte stripes dealt round-robin, every byte once.
	{"dense-interleaved", func(ranks, rank int, lo, ext int64) []Segment {
		return geomStripes(lo, ext, 3, 3*int64(ranks), int64(rank)*3)
	}},
	// collective_romio_svc3's shape: stripes dealt round-robin, each
	// followed by a hole as large.
	{"strided-holes", func(ranks, rank int, lo, ext int64) []Segment {
		return geomStripes(lo, ext, 5, 10*int64(ranks), int64(rank)*10)
	}},
	// One rank strided with holes, the others with nothing.
	{"single-rank", func(ranks, rank int, lo, ext int64) []Segment {
		if rank != 0 {
			return nil
		}
		return geomStripes(lo, ext, 7, 16, 0)
	}},
	// Ranks r and r+3 write the same stripes; neighbours' stripes
	// overlap by a byte or two.
	{"overlapping", func(ranks, rank int, lo, ext int64) []Segment {
		return geomStripes(lo, ext, 4, 6, int64(rank%3))
	}},
	// Each rank a window of half the extent, the windows staggered.
	{"overlapping-windows", func(ranks, rank int, lo, ext int64) []Segment {
		off := lo + int64(rank)*ext/int64(2*ranks)
		return []Segment{{off, min(ext/2+1, lo+ext-off)}}
	}},
	// Rank 1 writes one of rank 0's bytes again, next to the byte no rank
	// writes: the pieces add up to the extent without tiling it, so the
	// access must not be cut as a dense one.
	{"overlap-fills-hole", func(ranks, rank int, lo, ext int64) []Segment {
		mid := lo + ext/2
		switch {
		case ranks < 2 || ext < 5:
			if rank == 0 {
				return []Segment{{lo, ext}}
			}
		case rank == 0:
			return []Segment{{lo, mid - lo + 1}, {mid + 2, lo + ext - mid - 2}}
		case rank == 1:
			return []Segment{{mid, 1}}
		}
		return nil
	}},
}

// geomStripes is stripes of width every period from lo+phase, clipped
// to [lo, lo+ext).
func geomStripes(lo, ext, width, period, phase int64) []Segment {
	var segs []Segment
	for off := lo + phase; off < lo+ext; off += period {
		segs = append(segs, Segment{off, min(width, lo+ext-off)})
	}
	return segs
}

// TestCollectiveGeometry enumerates the collective shape: which ranks
// aggregate, and how each aggregator stages its domain of each access —
// dense, strided with holes, one rank's alone, and overlapping pieces
// of different ranks — as a write and as a read. Every rank routes its
// access as twoPhase does, and each aggregator collects what the
// exchange hands it and stages it a buffer at a time. No buffer holds
// more than the staging size, and every buffer but an aggregator's last
// is full, so it could take no more of the next data. A write's
// buffers hold every byte of every piece in the domain exactly once,
// in offset order and rank order on ties, adjacent pieces coalesced. A
// read's buffers hold the union of the requests in the domain exactly
// once, and delivering each fetched buffer fills every requester.
func TestCollectiveGeometry(t *testing.T) {
	extents := []int64{1, 13, 4096, 10007}
	stagings := []int64{1, 7, 1000, 4096, 16 << 20}
	for ranks := 1; ranks <= 8; ranks++ {
		for _, ppn := range []int{1, 2, 4} {
			for _, cb := range []int{0, 1, 2, 4} {
				aggs := aggregators(ranks, ppn, cb)
				var want []int
				for r := 0; r < ranks; r++ {
					if r%ppn < min(max(cb, 1), ppn) {
						want = append(want, r)
					}
				}
				if !slices.Equal(aggs, want) {
					t.Fatalf("ranks %d ppn %d cb_aggregators %d: aggregators %v, want %v", ranks, ppn, cb, aggs, want)
				}
			}
		}
		// The staging depends on the aggregators only through their count.
		for naggs := 1; naggs <= ranks; naggs++ {
			aggs := make([]int, naggs)
			for a := range aggs {
				aggs[a] = a
			}
			for _, ext := range extents {
				lo := int64(ranks) * 5 // unaligned on purpose
				for _, pat := range geomPatterns {
					all := make([][]Segment, ranks)
					for r := range all {
						all[r] = pat.segs(ranks, r, lo, ext)
					}
					for _, read := range []bool{false, true} {
						name := fmt.Sprintf("ranks %d aggs %d %s extent %d read %v", ranks, naggs, pat.name, ext, read)
						checkStaging(t, name, all, aggs, stagings, read)
					}
				}
			}
		}
	}
}

// geomByte is the byte rank writes at off, or (rank -1) the file holds
// there for a read: distinct ranks' bytes at one offset differ.
func geomByte(rank int, off int64) byte { return byte(off*7 + int64(rank+1)*101) }

// staged is one byte of a staging buffer: its file offset and value.
type staged struct {
	off int64
	b   byte
}

// checkStaging routes every rank's access in all to aggs, stages each
// aggregator's domain in buffers of at most each of stagings bytes, and
// checks the buffers against the access.
func checkStaging(t *testing.T, name string, all [][]Segment, aggs []int, stagings []int64, read bool) {
	t.Helper()
	lo, hi := int64(1<<62), int64(0)
	for _, segs := range all {
		e := extentOf(segs)
		lo, hi = min(lo, e.lo), max(hi, e.hi)
	}
	g := newGeom(lo, hi, aggs)
	bufs := make([][]byte, len(all))
	sends := make([][]any, len(all))
	fill := func(r int) {
		cursor := 0
		for _, s := range all[r] {
			for o := s.Off; o < s.Off+s.Len; o++ {
				if read {
					bufs[r][cursor] = ^geomByte(-1, o) // not what the file holds
				} else {
					bufs[r][cursor] = geomByte(r, o)
				}
				cursor++
			}
		}
	}
	for r, segs := range all {
		bufs[r] = make([]byte, segsBytes(segs))
		fill(r)
		sends[r] = new(routePlan).route(segs, bufs[r], &g, len(all))
	}
	wants := make([][]staged, len(aggs))
	for a := range aggs {
		wants[a] = wantStaged(all, lo+int64(a)*g.domain, lo+int64(a+1)*g.domain, read)
	}
	ar := new(arena)
	for _, staging := range stagings {
		for r := range all {
			fill(r)
		}
		for a, rank := range aggs {
			recv := make([]any, len(all))
			for src := range recv {
				recv[src] = sends[src][rank]
			}
			ar.collect(recv)
			if read {
				ar.union()
			}
			got := make([]staged, 0, len(wants[a]))
			var sizes []int64
			for {
				more := ar.stageWrite
				if read {
					more = ar.stageRead
				}
				if !more(staging) {
					break
				}
				var n int64
				for i, run := range ar.runs {
					if i > 0 && !read && ar.runs[i-1].Off+ar.runs[i-1].Len == run.Off {
						t.Fatalf("%s staging %d: aggregator %d buffer %d: adjacent runs %v and %v not coalesced", name, staging, a, len(sizes), ar.runs[i-1], run)
					}
					if i > 0 && read && ar.runs[i-1].Off+ar.runs[i-1].Len >= run.Off {
						t.Fatalf("%s staging %d: aggregator %d buffer %d: read runs %v and %v touch", name, staging, a, len(sizes), ar.runs[i-1], run)
					}
					if read && ar.pos[i] != n {
						t.Fatalf("%s staging %d: aggregator %d buffer %d: run %d at %d, want %d", name, staging, a, len(sizes), i, ar.pos[i], n)
					}
					for o := run.Off; o < run.Off+run.Len; o++ {
						if read { // the fetch
							ar.buf[n] = geomByte(-1, o)
						}
						got = append(got, staged{o, ar.buf[n]})
						n++
					}
				}
				if n != int64(len(ar.buf)) {
					t.Fatalf("%s staging %d: aggregator %d buffer %d: runs hold %d bytes, buffer %d", name, staging, a, len(sizes), n, len(ar.buf))
				}
				if read {
					ar.deliver()
				}
				sizes = append(sizes, n)
			}
			for i, n := range sizes {
				if n > staging || (n < staging && i < len(sizes)-1) {
					t.Fatalf("%s staging %d: aggregator %d buffer %d of %d stages %d bytes", name, staging, a, i, len(sizes), n)
				}
			}
			if i := firstDiff(got, wants[a]); i >= 0 {
				t.Fatalf("%s staging %d: aggregator %d stages %d bytes, want %d; they differ at byte %d", name, staging, a, len(got), len(wants[a]), i)
			}
		}
		if !read {
			continue
		}
		for r, segs := range all {
			cursor := 0
			for _, s := range segs {
				for o := s.Off; o < s.Off+s.Len; o++ {
					if bufs[r][cursor] != geomByte(-1, o) {
						t.Fatalf("%s staging %d: rank %d was not delivered offset %d", name, staging, r, o)
					}
					cursor++
				}
			}
		}
	}
}

// wantStaged is what the domain [domLo, domHi) stages, byte by byte in
// order: for a write every piece's bytes, the pieces in offset order
// and rank order on ties; for a read the union of the requests.
func wantStaged(all [][]Segment, domLo, domHi int64, read bool) []staged {
	var want []staged
	if read {
		covered := make([]bool, max(domHi-domLo, 0))
		for _, segs := range all {
			for _, s := range segs {
				for o := max(s.Off, domLo); o < min(s.Off+s.Len, domHi); o++ {
					covered[o-domLo] = true
				}
			}
		}
		for i, c := range covered {
			if c {
				want = append(want, staged{domLo + int64(i), geomByte(-1, domLo+int64(i))})
			}
		}
		return want
	}
	type piece struct {
		rank    int
		off, to int64
	}
	var pieces []piece
	for r, segs := range all {
		for _, s := range segs {
			if p := (piece{r, max(s.Off, domLo), min(s.Off+s.Len, domHi)}); p.off < p.to {
				pieces = append(pieces, p)
			}
		}
	}
	slices.SortStableFunc(pieces, func(x, y piece) int { return cmp.Compare(x.off, y.off) })
	for _, p := range pieces {
		for o := p.off; o < p.to; o++ {
			want = append(want, staged{o, geomByte(p.rank, o)})
		}
	}
	return want
}

// firstDiff is the first index where got and want differ, or -1.
func firstDiff[T comparable](got, want []T) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// TestCollectiveBytesIgnoreStaging writes pieces of different ranks
// that overlap — ranks r and r+3 the same stripes, neighbours' stripes
// sharing a byte or two — with 4 ranks on 4 nodes, so 4 aggregators,
// at staging sizes from 7 bytes to 16 MiB, through the PLFS and the
// UFS drivers. Which rank's byte lands last at an offset is decided by
// the aggregator's one sort of its domain, so the file is the same
// whatever the staging size, byte for byte.
func TestCollectiveBytesIgnoreStaging(t *testing.T) {
	const ranks, lo, ext = 4, 40, 10007
	var pat func(ranks, rank int, lo, ext int64) []Segment
	for _, p := range geomPatterns {
		if p.name == "overlapping" {
			pat = p.segs
		}
	}
	drivers := []struct {
		name string
		new  func() Driver
	}{
		{"plfs", func() Driver { return NewPLFSDriver(plfs.New(newWorldFS(t)), nil) }},
		{"ufs", func() Driver { return NewUFS(newWorldFS(t)) }},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			var want [md5.Size]byte
			for i, staging := range []int{7, 100, 1000, 16 << 20} {
				drv := d.new()
				hints := DefaultHints()
				hints.CBBufferSize = staging
				err := runUnderDeadline(t, ranks, 1, func(r *mpi.Rank) {
					segs := pat(ranks, r.Rank(), lo, ext)
					buf := make([]byte, 0, segsBytes(segs))
					for _, s := range segs {
						for o := s.Off; o < s.Off+s.Len; o++ {
							buf = append(buf, geomByte(r.Rank(), o))
						}
					}
					fh, err := Open(r, drv, "/scratch/staging", ModeCreate|ModeWronly, hints)
					if err != nil {
						panic(err)
					}
					if _, err := fh.WriteAll(segs, buf); err != nil {
						panic(err)
					}
					if err := fh.Close(); err != nil {
						panic(err)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				df, err := drv.Open("/scratch/staging", ModeRdonly, 0)
				if err != nil {
					t.Fatal(err)
				}
				file := make([]byte, lo+ext)
				if n, err := df.PreadAt(file, 0); n != len(file) || (err != nil && !errors.Is(err, io.EOF)) {
					t.Fatalf("staging %d: read %d of %d bytes: %v", staging, n, len(file), err)
				}
				if err := df.Close(); err != nil {
					t.Fatal(err)
				}
				if sum := md5.Sum(file); i == 0 {
					want = sum
				} else if sum != want {
					t.Fatalf("staging %d: file md5 %x, at staging 7 %x", staging, sum, want)
				}
			}
		})
	}
}

// TestHintsAgreeAtOpen hands every rank different cb_* hints. Every rank
// routes its pieces to the aggregators cb_aggregators picks, so the
// file is the uniform-hints run's, byte for byte, only if Open made
// rank 0's values everyone's: ranks that disagreed would send pieces to
// a rank that does not aggregate them. (cb_buffer_size is each
// aggregator's own business, and no longer has to agree.)
func TestHintsAgreeAtOpen(t *testing.T) {
	const (
		ranks  = 4
		ppn    = 2
		stripe = 512
		slots  = 8
	)
	run := func(hintsFor func(rank int) Hints) ([]byte, [][]byte) {
		mem := newWorldFS(t)
		readback := make([][]byte, ranks)
		err := runUnderDeadline(t, ranks, ppn, func(r *mpi.Rank) {
			fh, err := Open(r, NewUFS(posix.NewDispatch(mem)), "/scratch/agree", ModeCreate|ModeRdwr, hintsFor(r.Rank()))
			if err != nil {
				panic(err)
			}
			defer fh.Close()
			segs := make([]Segment, slots)
			buf := make([]byte, 0, slots*stripe)
			for s := range segs {
				segs[s] = Segment{Off: int64(s*ranks+r.Rank()) * stripe, Len: stripe}
				buf = append(buf, bytes.Repeat([]byte{byte(s*ranks + r.Rank() + 1)}, stripe)...)
			}
			if n, err := fh.WriteAll(segs, buf); err != nil || n != len(buf) {
				panic(fmt.Sprintf("WriteAll = %d, %v", n, err))
			}
			peer := (r.Rank() + 1) % ranks
			for s := range segs {
				segs[s].Off = int64(s*ranks+peer) * stripe
			}
			got := make([]byte, slots*stripe)
			if n, err := fh.ReadAll(segs, got); err != nil || n != len(got) {
				panic(fmt.Sprintf("ReadAll = %d, %v", n, err))
			}
			readback[r.Rank()] = got
		})
		if err != nil {
			t.Fatal(err)
		}
		return dumpFile(t, mem, "/scratch/agree"), readback
	}
	uniform := func(int) Hints {
		h := DefaultHints()
		h.CBBufferSize = 3 * stripe // 16 KiB over 4 aggregators: 3 buffers each
		h.CBAggregators = 2
		return h
	}
	wantFile, wantRead := run(uniform)
	gotFile, gotRead := run(func(rank int) Hints {
		h := uniform(rank)
		h.CBBufferSize *= rank + 1
		h.CBAggregators = []int{2, 1, 0, 4}[rank]
		return h
	})
	if !bytes.Equal(gotFile, wantFile) {
		t.Fatal("file written under per-rank hints differs from the uniform-hints file")
	}
	for rank := range wantRead {
		if !bytes.Equal(gotRead[rank], wantRead[rank]) {
			t.Fatalf("rank %d read back different bytes under per-rank hints", rank)
		}
	}
}

// openFaultDriver fails one rank's own open (not rank 0's create probe,
// whose error Open has always broadcast).
type openFaultDriver struct {
	Driver
	bad    int
	probed atomic.Bool
}

var errInjectedOpen = errors.New("injected open fault")

func (d *openFaultDriver) Open(path string, amode int, rank int) (DriverFile, error) {
	if rank == d.bad && (rank != 0 || d.probed.Swap(true)) {
		return nil, errInjectedOpen
	}
	return d.Driver.Open(path, amode, rank)
}

// TestOpenFaultNoDeadlock fails each rank's open in turn: the open must
// fail on every rank (the faulted one keeping its own error), nobody may
// be left waiting in a collective the faulted rank never reaches, and the
// ranks that did open must not leak their driver file.
func TestOpenFaultNoDeadlock(t *testing.T) {
	const ranks, ppn = 4, 2
	for bad := 0; bad < ranks; bad++ {
		for _, withPlane := range []bool{false, true} {
			t.Run(fmt.Sprintf("rank%d/plane=%v", bad, withPlane), func(t *testing.T) {
				mem := newWorldFS(t)
				hints := DefaultHints()
				if withPlane {
					hints.Collector = iostats.NewPlane()
				}
				drv := &openFaultDriver{Driver: NewUFS(posix.NewDispatch(mem)), bad: bad}
				errs := make([]error, ranks)
				err := runUnderDeadline(t, ranks, ppn, func(r *mpi.Rank) {
					var fh *File
					fh, errs[r.Rank()] = Open(r, drv, "/scratch/openfault", ModeCreate|ModeRdwr, hints)
					if errs[r.Rank()] == nil {
						// The survivors' next collective: without the funnel
						// this is where they wait for the faulted rank.
						fh.WriteAtAll([]byte{1}, int64(r.Rank()))
						fh.Close()
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				for rank, e := range errs {
					switch {
					case e == nil:
						t.Errorf("rank %d: open succeeded though rank %d's failed", rank, bad)
					case rank == bad && !errors.Is(e, errInjectedOpen):
						t.Errorf("faulted rank %d lost its own error: %v", rank, e)
					case rank != bad && !strings.Contains(e.Error(), "another rank"):
						t.Errorf("rank %d: error %q does not blame another rank", rank, e)
					}
				}
				if n := mem.OpenFDs(); n != 0 {
					t.Errorf("%d driver files left open", n)
				}
			})
		}
	}
}

// callCounts tallies the driver calls a stub file received.
type callCounts struct{ pread, pwrite, preadv, pwritev int }

// scalarStub is a DriverFile with no vector capability.
type scalarStub struct {
	nullFile
	c *callCounts
}

func (s scalarStub) PreadAt(p []byte, off int64) (int, error)  { s.c.pread++; return len(p), nil }
func (s scalarStub) PwriteAt(p []byte, off int64) (int, error) { s.c.pwrite++; return len(p), nil }

// vectorStub adds VectorWriter and VectorReader.
type vectorStub struct{ scalarStub }

func (s vectorStub) PwritevAt(segs []Segment, buf []byte) (int, error) {
	s.c.pwritev++
	return len(buf), nil
}

func (s vectorStub) PreadvAt(segs []Segment, buf []byte) (int, error) {
	s.c.preadv++
	return len(buf), nil
}

type stubDriver struct {
	Driver
	df DriverFile
}

func (d stubDriver) Open(string, int, int) (DriverFile, error) { return d.df, nil }

// TestDriverCallShape pins the one driver-call rule on both paths that
// reach the driver with a run list, an aggregator's flushed and fetched
// staging buffers: a vector-capable driver gets the whole list in one
// call, any other a call per run.
func TestDriverCallShape(t *testing.T) {
	runs := []Segment{{0, 64}, {4096, 64}, {8192, 64}}
	buf := make([]byte, 3*64)
	staged := func() *arena { return &arena{runs: runs, buf: buf} }
	paths := []struct {
		name string
		read bool
		do   func(f *File) error
	}{
		{"flushed round", false, func(f *File) error { return f.flushArena(staged()) }},
		{"fetched round", true, func(f *File) error { return f.fetchArena(staged()) }},
	}
	for _, p := range paths {
		for _, vector := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/vector=%v", p.name, vector), func(t *testing.T) {
				var got, want callCounts
				var df DriverFile = scalarStub{c: &got}
				if vector {
					df = vectorStub{scalarStub{c: &got}}
				}
				switch {
				case vector && p.read:
					want.preadv = 1
				case vector:
					want.pwritev = 1
				case p.read:
					want.pread = len(runs)
				default:
					want.pwrite = len(runs)
				}
				var flushOps int64
				err := mpi.Run(1, 1, func(r *mpi.Rank) {
					f, err := Open(r, stubDriver{df: df}, "/stub", ModeRdwr, DefaultHints())
					if err != nil {
						panic(err)
					}
					got = callCounts{} // drop whatever Open itself did
					if err := p.do(f); err != nil {
						panic(err)
					}
					flushOps = f.Layer().Counter("agg_flush_ops").Load()
				})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("driver calls = %+v, want %+v", got, want)
				}
				calls := int64(want.pread + want.pwrite + want.preadv + want.pwritev)
				if flushOps != calls {
					t.Fatalf("agg_flush_ops = %d, want the %d driver calls", flushOps, calls)
				}
			})
		}
	}
}
