package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ldplfs/internal/iostats"
	"ldplfs/internal/mpi"
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
// aggregate, and how the rounds cut each access — dense, strided with
// holes, one rank's alone, and overlapping pieces of different ranks —
// as a write and as a read. The buckets tile the extent in (aggregator,
// round) order, end to end; no bucket stages more than the staging size
// (unless it holds one offset that more pieces cover than that); every
// bucket but a domain's last is full, so it could take no more of the
// next data; and a dense access is cut every staging bytes, at the
// boundaries and round count ceil(domain / staging) of span cutting.
func TestCollectiveGeometry(t *testing.T) {
	extents := []int64{1, 13, 4096, 10007}
	stagings := []int64{1, 7, 1000, 4096, 16 << 20}
	rp := new(routePlan)
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
		// The cuts depend on the aggregators only through their count.
		for naggs := 1; naggs <= ranks; naggs++ {
			aggs := make([]int, naggs)
			for _, ext := range extents {
				lo := int64(ranks) * 5 // unaligned on purpose
				for _, pat := range geomPatterns {
					all := make([][]Segment, ranks)
					accs := make([]*rankAccess, ranks)
					for r := range all {
						all[r] = pat.segs(ranks, r, lo, ext)
						ra := summarize(all[r])
						accs[r] = &ra
					}
					for _, union := range []bool{false, true} {
						staged := stagedBytes(all, union)
						for _, staging := range stagings {
							name := fmt.Sprintf("ranks %d aggs %d %s extent %d staging %d read %v", ranks, naggs, pat.name, ext, staging, union)
							g := newGeom(accs, staging, aggs, rp)
							g.cutAll(accs, union, rp)
							checkGeom(t, name, &g, staged)
						}
					}
				}
			}
		}
	}
}

// stagedBytes is what an arena stages for each offset of the access's
// extent: the pieces covering it, or for a read (union) 1 if any does.
func stagedBytes(all [][]Segment, union bool) []int64 {
	lo, hi := int64(1<<62), int64(0)
	for _, segs := range all {
		for _, s := range segs {
			lo, hi = min(lo, s.Off), max(hi, s.Off+s.Len)
		}
	}
	staged := make([]int64, max(hi-lo, 0))
	for _, segs := range all {
		for _, s := range segs {
			for o := s.Off; o < s.Off+s.Len; o++ {
				if staged[o-lo] == 0 || !union {
					staged[o-lo]++
				}
			}
		}
	}
	return staged
}

// checkGeom checks one geometry against what its access stages at each
// offset of the extent.
func checkGeom(t *testing.T, name string, g *colGeom, staged []int64) {
	t.Helper()
	lo, hi := g.lo, g.hi
	if hi-lo != int64(len(staged)) {
		t.Fatalf("%s: extent [%d, %d), want %d bytes", name, lo, hi, len(staged))
	}
	dense := !slices.Contains(staged, 0) && !slices.ContainsFunc(staged, func(n int64) bool { return n > 1 })
	if g.domain*int64(len(g.aggs)) < hi-lo {
		t.Fatalf("%s: %d domains of %d do not cover the extent", name, len(g.aggs), g.domain)
	}
	if wantRounds := int((g.domain + g.staging - 1) / g.staging); dense && g.rounds != wantRounds {
		t.Fatalf("%s: dense access cut into %d rounds, want ceil(%d/%d) = %d", name, g.rounds, g.domain, g.staging, wantRounds)
	}
	lastRound := -1
	prevA, prevR, prevEnd := -1, -1, lo
	var prevBytes int64 // what the previous bucket stages
	for off := lo; off < hi; {
		a, r, end := g.locate(off)
		if a < 0 || a >= len(g.aggs) || r < 0 || r >= g.rounds {
			t.Fatalf("%s: offset %d -> bucket (%d, %d) out of range", name, off, a, r)
		}
		// A new bucket: it starts exactly where the previous one ended,
		// comes later in (aggregator, round) order, and every offset in
		// it locates to it.
		if off != prevEnd {
			t.Fatalf("%s: bucket (%d, %d) starts at %d, previous ended at %d", name, a, r, off, prevEnd)
		}
		if a < prevA || (a == prevA && r <= prevR) {
			t.Fatalf("%s: bucket (%d, %d) follows (%d, %d)", name, a, r, prevA, prevR)
		}
		if end <= off {
			t.Fatalf("%s: bucket (%d, %d) spans [%d, %d)", name, a, r, off, end)
		}
		if a2, r2, end2 := g.locate(min(end, hi) - 1); a2 != a || r2 != r || end2 != end {
			t.Fatalf("%s: offset %d -> bucket (%d, %d) ending %d, its first offset %d -> (%d, %d) ending %d", name, min(end, hi)-1, a2, r2, end2, off, a, r, end)
		}
		var bytes, covered int64
		for _, n := range staged[off-lo : min(end, hi)-lo] {
			bytes += n
			if n > 0 {
				covered++
			}
		}
		if bytes > g.staging && covered > 1 {
			t.Fatalf("%s: bucket (%d, %d) over [%d, %d) stages %d bytes, staging is %d", name, a, r, off, end, bytes, g.staging)
		}
		// The previous bucket was its domain's too: it was full, or it
		// would have taken this one's first data.
		if a == prevA && covered > 0 {
			first := staged[off-lo+int64(slices.IndexFunc(staged[off-lo:], func(n int64) bool { return n > 0 }))]
			if prevBytes+first <= g.staging {
				t.Fatalf("%s: bucket (%d, %d) stages %d bytes and was cut before %d more, staging is %d", name, a, prevR, prevBytes, first, g.staging)
			}
		}
		if dense {
			domEnd := lo + int64(a+1)*g.domain
			if want := min(lo+int64(a)*g.domain+int64(r+1)*g.staging, domEnd); min(end, hi) != min(want, hi) {
				t.Fatalf("%s: dense bucket (%d, %d) ends at %d, span cutting ends it at %d", name, a, r, end, want)
			}
		}
		if covered > 0 {
			lastRound = max(lastRound, r)
		}
		prevA, prevR, prevEnd, prevBytes = a, r, end, bytes
		off = end
	}
	if prevEnd < hi {
		t.Fatalf("%s: last bucket ends at %d, extent at %d", name, prevEnd, hi)
	}
	if lastRound != g.rounds-1 {
		t.Fatalf("%s: %d rounds, but the last that stages data is round %d", name, g.rounds, lastRound)
	}
}

// TestHintsAgreeAtOpen hands every rank different cb_* hints. The
// exchange schedule is derived from them, so the communicator only gets
// through a multi-round collective if Open made rank 0's values
// everyone's — and then the file is the uniform-hints run's, byte for
// byte.
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
		h.CBBufferSize = 3 * stripe // 16 KiB over 4 aggregators: 3 rounds each
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
// rounds: a vector-capable driver gets the whole list in one call, any
// other a call per run.
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
