package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"ldplfs/internal/iostats"
	"ldplfs/internal/mpi"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// colRig runs collective_romio_svc3: ranks as goroutines, each with its
// own plfs instance (as MPI processes have), ROMIO collectives through
// the PLFS ADIO driver, on three backends that each retire one
// operation per svcTime. There are more ranks than cores on purpose:
// the contended resource is the backends' service slots, not the CPUs.
type colRig struct {
	e     *env
	tr    *tracer
	plane *iostats.Plane
	hints mpiio.Hints
	// segs[r][c] and bufs[r][c] are rank r's access and payload of
	// collective c: stripes of data, each followed by a hole as large.
	segs [][][]mpiio.Segment
	bufs [][][]byte
	got  [][][]byte
	lat  []lats
}

const colPath = "/ckpt"

func newCollective(e *env, tr *tracer) (instance, error) {
	sz := e.sz
	r := &colRig{e: e, tr: tr, hints: mpiio.DefaultHints(), lat: make([]lats, sz.colRanks)}
	// A staging buffer smaller than an aggregator's file domain makes
	// each collective several rounds, so the pipelined path has rounds
	// to overlap; with ROMIO's 16 MiB default it would be one.
	r.hints.CBBufferSize = sz.colCBBuffer
	// hints.Collector stays nil: each collective open then gets its own
	// mpiio layer (shared by its ranks), which tally reads per phase.
	if tr != nil {
		r.plane = iostats.NewPlane()
	}
	stride := int64(2 * sz.colStripe)
	for rank := 0; rank < sz.colRanks; rank++ {
		var segs [][]mpiio.Segment
		var bufs, got [][]byte
		for c := 0; c < sz.colCalls; c++ {
			s := make([]mpiio.Segment, sz.colStripes)
			b := make([]byte, 0, sz.colStripes*sz.colStripe)
			for i := range s {
				off := (int64(c*sz.colStripes+i)*int64(sz.colRanks) + int64(rank)) * stride
				s[i] = mpiio.Segment{Off: off, Len: int64(sz.colStripe)}
				b = append(b, e.gen.at(off, sz.colStripe)...)
			}
			segs, bufs, got = append(segs, s), append(bufs, b), append(got, make([]byte, len(b)))
		}
		r.segs, r.bufs, r.got = append(r.segs, segs), append(r.bufs, bufs), append(r.got, got)
	}
	return r, nil
}

func (r *colRig) close() {}

func (r *colRig) userBytes() int64 {
	sz := r.e.sz
	return int64(sz.colRanks) * int64(sz.colCalls) * int64(sz.colStripes) * int64(sz.colStripe)
}

// colStack is the storage of one cycle and the per-rank drivers on it.
type colStack struct {
	striped posix.FS // through the service-limited backends
	admin   *plfs.FS // around them: set-up steps and checks
	bare    posix.FS
}

func (r *colRig) newStack() *colStack {
	mems := make([]posix.FS, 3)
	slow := make([]posix.FS, 3)
	for i := range mems {
		mems[i] = posix.NewMemFS()
		f := posix.NewFaultFS(mems[i])
		f.SetServiceTime(posix.FaultAny, svcTime)
		slow[i] = r.e.bottom(f)
		if r.tr != nil {
			slow[i] = &spanFS{inner: slow[i], tr: r.tr, layer: lBackend, lane: sharedLane(i)}
		}
	}
	bare := posix.NewStripedFS(mems...)
	return &colStack{striped: posix.NewStripedFS(slow...), admin: plfs.New(bare), bare: bare}
}

// drivers builds one fresh plfs instance and ADIO driver per rank.
func (r *colRig) drivers(st *colStack) []mpiio.Driver {
	out := make([]mpiio.Driver, r.e.sz.colRanks)
	for rank := range out {
		backend := st.striped
		if r.tr != nil {
			backend = &spanFS{inner: st.striped, tr: r.tr, layer: lPosix, lane: rank}
		}
		var d mpiio.Driver = mpiio.NewPLFSDriver(plfs.New(backend, plfsOpts(r.plane)...), nil)
		if r.tr != nil {
			d = &spanDriver{inner: d, tr: r.tr}
		}
		out[rank] = d
	}
	return out
}

// ranks runs body on every rank and turns a panic in one into an error.
func (r *colRig) ranks(body func(rank int, rk *mpi.Rank)) error {
	return mpi.Run(r.e.sz.colRanks, 1, func(rk *mpi.Rank) { body(rk.Rank(), rk) })
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func (r *colRig) cycle(k int) (*cycleOut, error) {
	t0 := time.Now()
	sz, g, tr := r.e.sz, r.e.gen, r.tr
	c := &cycleOut{lanes: sz.colRanks, layer: map[string]float64{}}
	st := r.newStack()
	var fail failCount
	c0 := snapshotReadcache(r.plane)
	for i := range r.lat {
		r.lat[i].reset()
	}
	files := make([]*mpiio.File, sz.colRanks)
	var mpiioCounters [4]float64
	tally := func(fh *mpiio.File) {
		for i, n := range []string{"shuffle_bytes", "agg_flush_ops", "round_overlap_ns", "sieve_rmws"} {
			mpiioCounters[i] += float64(fh.Layer().Counter(n).Load())
		}
	}

	// Set-up: collective create, then every rank's first write one at a
	// time in rank order — the ROADMAP 1b work-around (see shim.go).
	tr.setPhase(phSetup)
	drv := r.drivers(st)
	err := r.ranks(func(me int, rk *mpi.Rank) {
		fh, err := mpiio.Open(rk, drv[me], colPath, mpiio.ModeCreate|mpiio.ModeWronly, r.hints)
		must(err)
		files[me] = fh
		for turn := 0; turn < sz.colRanks; turn++ {
			if turn == me {
				_, err := fh.WriteAt(r.bufs[me][0][:8], r.segs[me][0][0].Off)
				must(err)
			}
			rk.Barrier()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("collective create: %w", err)
	}

	tr.setPhase(phWrite)
	wd := c.m.timed(func() {
		err = r.ranks(func(me int, _ *mpi.Rank) {
			fh, l := files[me], &r.lat[me]
			for call := range r.segs[me] {
				t := time.Now()
				ct := tr.now()
				n, err := fh.WriteAll(r.segs[me][call], r.bufs[me][call])
				tr.add(lMPIIO, opWrite, me, ct, n, len(r.segs[me][call]), err)
				l.w = append(l.w, since32(t))
				fail.check(err == nil && n == len(r.bufs[me][call]))
			}
			ct := tr.now()
			err := fh.Close()
			tr.add(lMPIIO, opClose, me, ct, 0, 0, err)
			fail.check(err == nil)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("collective write: %w", err)
	}
	tally(files[0])
	c.writeMBps = mbps(r.userBytes(), wd)
	c.ops += int64(sz.colRanks * sz.colCalls)

	// Cold opens: fresh instances on every rank, open to first byte.
	err = coldOpens(tr, c, st.admin, colPath, colPath, func(string) (time.Duration, error) {
		drv := r.drivers(st)
		var err error
		d := c.m.timed(func() {
			err = r.ranks(func(me int, rk *mpi.Rank) {
				ct := tr.now()
				fh, err := mpiio.Open(rk, drv[me], colPath, mpiio.ModeRdonly, r.hints)
				tr.add(lMPIIO, opOpen, me, ct, 0, 0, err)
				must(err)
				buf, off := r.got[me][0][:sz.colStripe], r.segs[me][0][0].Off
				ct = tr.now()
				n, err := fh.ReadAt(buf, off)
				tr.add(lMPIIO, opRead, me, ct, n, 1, err)
				fail.check(err == nil && n == len(buf) && g.endsOK(buf, off))
				ct = tr.now()
				err = fh.Close()
				tr.add(lMPIIO, opClose, me, ct, 0, 0, err)
				fail.check(err == nil)
			})
		})
		return d, err
	})
	if err != nil {
		return nil, err
	}

	// Collective read by fresh instances, each warmed by one read.
	tr.setPhase(phSetup)
	drv = r.drivers(st)
	err = r.ranks(func(me int, rk *mpi.Rank) {
		fh, err := mpiio.Open(rk, drv[me], colPath, mpiio.ModeRdonly, r.hints)
		must(err)
		_, err = fh.ReadAt(r.got[me][0][:8], r.segs[me][0][0].Off)
		must(err)
		files[me] = fh
	})
	if err != nil {
		return nil, fmt.Errorf("collective reopen: %w", err)
	}
	tr.setPhase(phRead)
	rdur := c.m.timed(func() {
		err = r.ranks(func(me int, _ *mpi.Rank) {
			fh, l := files[me], &r.lat[me]
			for call, segs := range r.segs[me] {
				buf := r.got[me][call]
				t := time.Now()
				ct := tr.now()
				n, err := fh.ReadAll(segs, buf)
				tr.add(lMPIIO, opRead, me, ct, n, len(segs), err)
				l.r = append(l.r, since32(t))
				ok := err == nil && n == len(buf)
				for i, s := range segs {
					ok = ok && g.endsOK(buf[i*sz.colStripe:(i+1)*sz.colStripe], s.Off)
				}
				fail.check(ok)
			}
		})
	})
	if err != nil {
		return nil, fmt.Errorf("collective read: %w", err)
	}
	tally(files[0])
	c.readMBps = mbps(r.userBytes(), rdur)
	c.ops += int64(sz.colRanks * sz.colCalls)
	c.userBytes = 2 * r.userBytes()

	// Untimed: close, compare every byte read, measure the container.
	tr.setPhase(phSetup)
	if err := r.ranks(func(me int, _ *mpi.Rank) { fail.check(files[me].Close() == nil) }); err != nil {
		return nil, err
	}
	for rank := range r.got {
		for call := range r.got[rank] {
			fail.check(bytes.Equal(r.got[rank][call], r.bufs[rank][call]))
			clear(r.got[rank][call])
		}
	}
	total, index, err := treeBytes(st.bare, colPath)
	if err != nil {
		return nil, err
	}
	c.spaceAmp = ratio(float64(total), float64(r.userBytes()))
	c.layer["index.B_per_user_MB"] = ratio(float64(index), float64(r.userBytes())/1e6)
	c.layer["mpiio.shuffle_B_per_user_B"] = ratio(mpiioCounters[0], float64(c.userBytes))
	c.layer["mpiio.agg_flush_ops_per_collective"] = mpiioCounters[1] / float64(2*sz.colCalls)
	c.overlapNs = mpiioCounters[2]
	c.layer["mpiio.sieve_rmws"] = mpiioCounters[3]
	readcacheDelta(c.layer, r.plane, c0)
	c.wlat = mergeLats(r.lat, func(l *lats) []int32 { return l.w })
	c.rlat = mergeLats(r.lat, func(l *lats) []int32 { return l.r })
	c.attempted, c.failed = fail.totals()
	c.total = time.Since(t0)
	return c, nil
}

// extras times the two mpi collectives the exchange phase is built on,
// called directly: a barrier, and an all-to-all of 64 KiB pieces.
func (r *colRig) extras(into map[string]float64, _ func(string) float64) error {
	const iters = 200
	n := r.e.sz.colRanks
	// A collective takes as long as its slowest participant sees it take:
	// each rank times its own call and the iteration counts the maximum.
	barrier, alltoall := make([][]float64, n), make([][]float64, n)
	err := r.ranks(func(me int, rk *mpi.Rank) {
		barrier[me], alltoall[me] = make([]float64, iters), make([]float64, iters)
		send := make([]any, n)
		for i := range send {
			send[i] = make([]byte, 64<<10)
		}
		for i := 0; i < iters; i++ {
			rk.Barrier() // line the ranks up so the timed call measures itself
			t := time.Now()
			rk.Barrier()
			barrier[me][i] = us(time.Since(t))
			t = time.Now()
			rk.Alltoall(send)
			alltoall[me][i] = us(time.Since(t))
		}
	})
	if err != nil {
		return err
	}
	slowest := func(perRank [][]float64) float64 {
		worst := make([]float64, iters)
		for _, times := range perRank {
			for i, t := range times {
				worst[i] = max(worst[i], t)
			}
		}
		return median(worst)
	}
	into["mpi.barrier_us"], into["mpi.alltoall_us"] = slowest(barrier), slowest(alltoall)
	return nil
}

// backendSkew is max over mean of the per-backend operation counts.
func backendSkew(ops map[int16]int64) float64 {
	if len(ops) == 0 {
		return 0
	}
	counts := make([]float64, 0, len(ops))
	var sum float64
	for _, n := range ops {
		counts = append(counts, float64(n))
		sum += float64(n)
	}
	sort.Float64s(counts)
	return ratio(counts[len(counts)-1], sum/float64(len(counts)))
}
