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
	want := []string{"CBAggregators", "CBBufferSize", "CollectiveBuffering", "Collector", "DataSieving", "SieveBufferSize"}
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
	if !d.CollectiveBuffering || !d.DataSieving || d.CBBufferSize != 16<<20 ||
		d.SieveBufferSize != 4<<20 || d.CBAggregators != 0 || d.Collector != nil {
		t.Fatalf("defaults = %+v", d)
	}
}

// TestCollectiveGeometry enumerates the collective shape: which ranks
// aggregate, how many rounds a domain takes, and that locate tiles the
// extent — every offset in exactly one (aggregator, round) bucket no
// wider than the staging buffer, buckets in ascending order end to end.
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
				for _, ext := range extents {
					for _, staging := range stagings {
						lo := int64(ranks) * 5 // unaligned on purpose
						g := newGeom(lo, lo+ext, staging, aggs)
						name := fmt.Sprintf("ranks %d ppn %d aggs %v extent %d staging %d", ranks, ppn, aggs, ext, staging)
						if g.domain*int64(len(aggs)) < ext {
							t.Fatalf("%s: %d domains of %d do not cover the extent", name, len(aggs), g.domain)
						}
						if wantRounds := int((g.domain + staging - 1) / staging); g.rounds != wantRounds || g.rounds < 1 {
							t.Fatalf("%s: rounds = %d, want ceil(%d/%d) = %d", name, g.rounds, g.domain, staging, wantRounds)
						}
						checkTiling(t, name, &g)
					}
				}
			}
		}
	}
}

func checkTiling(t *testing.T, name string, g *colGeom) {
	t.Helper()
	prevA, prevR, prevEnd := -1, -1, g.lo
	for off := g.lo; off < g.hi; off++ {
		a, r, end := g.locate(off)
		if a < 0 || a >= len(g.aggs) || r < 0 || r >= g.rounds {
			t.Fatalf("%s: offset %d -> bucket (%d, %d) out of range", name, off, a, r)
		}
		if a == prevA && r == prevR {
			if end != prevEnd {
				t.Fatalf("%s: bucket (%d, %d) ends at %d and at %d", name, a, r, prevEnd, end)
			}
			continue
		}
		// A new bucket: it starts exactly where the previous one ended,
		// comes later in (aggregator, round) order and fits one arena.
		if off != prevEnd {
			t.Fatalf("%s: bucket (%d, %d) starts at %d, previous ended at %d", name, a, r, off, prevEnd)
		}
		if a < prevA || (a == prevA && r < prevR) {
			t.Fatalf("%s: bucket (%d, %d) follows (%d, %d)", name, a, r, prevA, prevR)
		}
		if end <= off || end-off > g.staging {
			t.Fatalf("%s: bucket (%d, %d) spans [%d, %d), staging is %d", name, a, r, off, end, g.staging)
		}
		prevA, prevR, prevEnd = a, r, end
	}
	if prevEnd < g.hi {
		t.Fatalf("%s: last bucket ends at %d, extent at %d", name, prevEnd, g.hi)
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

// TestDriverCallShape pins the one rule of writeRuns/readRuns on all four
// paths that reach the driver with a run list: a vector-capable driver
// gets the whole list in one call, any other a call per run.
func TestDriverCallShape(t *testing.T) {
	// Sparse (span >= 2x the useful bytes), so the strided calls do not sieve.
	runs := []Segment{{0, 64}, {4096, 64}, {8192, 64}}
	buf := make([]byte, 3*64)
	staged := func() *arena { return &arena{runs: runs, buf: buf} }
	paths := []struct {
		name        string
		read, round bool
		do          func(f *File) error
	}{
		{"WriteStrided", false, false, func(f *File) error { _, err := f.WriteStrided(runs, buf); return err }},
		{"ReadStrided", true, false, func(f *File) error { _, err := f.ReadStrided(runs, buf); return err }},
		{"flushed round", false, true, func(f *File) error { return f.flushArena(staged()) }},
		{"fetched round", true, true, func(f *File) error { return f.fetchArena(staged()) }},
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
				if p.round && flushOps != calls {
					t.Fatalf("agg_flush_ops = %d, want the %d driver calls", flushOps, calls)
				}
			})
		}
	}
}
