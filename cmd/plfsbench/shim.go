package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"ldplfs/internal/core"
	"ldplfs/internal/fuse"
	"ldplfs/internal/iostats"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// ioAPI is the slice of the POSIX surface the shim scripts call. A
// *posix.Dispatch (bare or with LDPLFS preloaded) and a *fuse.FS both
// satisfy it; directAPI adapts the plfs library to it.
type ioAPI interface {
	Open(path string, flags int, mode uint32) (int, error)
	Close(fd int) error
	Read(fd int, p []byte) (int, error)
	Write(fd int, p []byte) (int, error)
	Pread(fd int, p []byte, off int64) (int, error)
	Pwrite(fd int, p []byte, off int64) (int, error)
	Fsync(fd int) error
}

// accessPath is how a script reaches storage — the columns of the
// paper's Fig. 3. The workloads proper use pathShim; the others are the
// twins the traced pass runs for the path.* metrics.
type accessPath int

const (
	pathShim   accessPath = iota // LDPLFS preloaded into the dispatch table
	pathPlain                    // the bare dispatch table: one plain file
	pathDirect                   // the plfs library called directly
	pathFuse                     // the FUSE-emulation mount
)

// directAPI drives one plfs.File through ioAPI, keeping the file
// pointer the library does not, with a plfs-layer span at every call.
type directAPI struct {
	p    *plfs.FS
	pid  uint32
	tr   *tracer
	lane int
	f    *plfs.File
	off  int64
}

func (d *directAPI) Open(path string, flags int, mode uint32) (int, error) {
	t0 := d.tr.now()
	f, err := d.p.Open(path, flags, d.pid, mode)
	d.tr.add(lPLFS, opOpen, d.lane, t0, 0, 0, err)
	d.f, d.off = f, 0
	return 3, err
}

func (d *directAPI) Close(int) error {
	t0 := d.tr.now()
	err := d.f.Close(d.pid)
	d.tr.add(lPLFS, opClose, d.lane, t0, 0, 0, err)
	return err
}

func (d *directAPI) Pread(_ int, p []byte, off int64) (int, error) {
	t0 := d.tr.now()
	n, err := d.f.Read(p, off)
	d.tr.add(lPLFS, opRead, d.lane, t0, n, 1, err)
	return n, err
}

func (d *directAPI) Pwrite(_ int, p []byte, off int64) (int, error) {
	t0 := d.tr.now()
	n, err := d.f.Write(p, off, d.pid)
	d.tr.add(lPLFS, opWrite, d.lane, t0, n, 1, err)
	return n, err
}

func (d *directAPI) Read(fd int, p []byte) (int, error) {
	n, err := d.Pread(fd, p, d.off)
	d.off += int64(n)
	return n, err
}

func (d *directAPI) Write(fd int, p []byte) (int, error) {
	n, err := d.Pwrite(fd, p, d.off)
	d.off += int64(n)
	return n, err
}

func (d *directAPI) Fsync(int) error {
	t0 := d.tr.now()
	err := d.f.Sync(d.pid)
	d.tr.add(lPLFS, opSync, d.lane, t0, 0, 0, err)
	return err
}

// proc is one logical application process: its own backend descriptor
// table, its own plfs instance and (on the shim path) its own preloaded
// dispatch table, as separate processes would have.
type proc struct {
	api  ioAPI
	path string       // what the process opens
	ld   *core.LDPLFS // pathShim only
	fd   int
}

// shimSpec is what tells n1_strided_shim and stream_shim apart.
type shimSpec struct {
	procs, block, blocksPerProc int
	fdOffset                    bool // write()/read() on the file pointer instead of pwrite/pread
	readers, readChunk          int
}

func (s shimSpec) fileBytes() int64 { return int64(s.procs) * int64(s.blocksPerProc) * int64(s.block) }

// shimRig runs the two shim workloads. It holds no container between
// cycles: each cycle builds its processes on a fresh directory.
type shimRig struct {
	e     *env
	tr    *tracer
	plane *iostats.Plane // traced rig only
	spec  shimSpec
	lat   []lats
	buf   [][]byte // one read buffer per reader
}

func newN1(e *env, tr *tracer) (instance, error) {
	return newShimRig(e, tr, shimSpec{
		procs: e.sz.n1Procs, block: e.sz.n1Block, blocksPerProc: e.sz.n1BlocksPerProc,
		readers: e.drivers, readChunk: e.sz.n1ReadChunk,
	}), nil
}

func newStream(e *env, tr *tracer) (instance, error) {
	return newShimRig(e, tr, shimSpec{
		procs: 1, block: e.sz.streamBlock, blocksPerProc: e.sz.streamBlocks,
		fdOffset: true, readers: 1, readChunk: e.sz.streamBlock,
	}), nil
}

func newShimRig(e *env, tr *tracer, spec shimSpec) *shimRig {
	r := &shimRig{e: e, tr: tr, spec: spec, lat: make([]lats, e.drivers)}
	if tr != nil {
		r.plane = iostats.NewPlane()
	}
	for i := range r.lat {
		r.lat[i].w = make([]int32, 0, spec.procs*spec.blocksPerProc)
		r.lat[i].r = make([]int32, 0, int(spec.fileBytes()/int64(spec.readChunk))+1)
	}
	for i := 0; i < spec.readers; i++ {
		r.buf = append(r.buf, make([]byte, spec.readChunk))
	}
	return r
}

func (r *shimRig) close() {}

// newProc builds process pid on the given access path over root.
func (r *shimRig) newProc(path accessPath, root string, lane int, pid uint32) (*proc, error) {
	backend, err := r.e.osBackend(root)
	if err != nil {
		return nil, err
	}
	if r.tr != nil {
		backend = &spanFS{inner: backend, tr: r.tr, layer: lPosix, lane: lane}
	}
	switch path {
	case pathPlain:
		d := posix.NewDispatch(backend)
		if r.tr != nil {
			interpose(d, r.tr, lane)
		}
		return &proc{api: d, path: storeDir + "/ckpt"}, nil
	case pathDirect:
		return &proc{api: &directAPI{p: plfs.New(backend, plfsOpts(r.plane)...), pid: pid, tr: r.tr, lane: lane},
			path: storeDir + "/ckpt"}, nil
	case pathFuse:
		return &proc{api: fuse.Mount(backend, mountPoint, storeDir, plfsOpts(r.plane)...), path: mountPoint + "/ckpt"}, nil
	}
	d := posix.NewDispatch(backend)
	ld, err := core.Preload(d, core.Config{
		Mounts: []core.Mount{{Point: mountPoint, Backend: storeDir}},
		Pid:    pid,
		Plfs:   plfs.New(backend, plfsOpts(r.plane)...),
	})
	if err != nil {
		return nil, err
	}
	if r.tr != nil {
		interpose(d, r.tr, lane)
	}
	return &proc{api: d, path: mountPoint + "/ckpt", ld: ld}, nil
}

func (r *shimRig) cycle(k int) (*cycleOut, error) { return r.run(pathShim) }

// run is one cycle of the script on one access path: write the file
// N-1 from spec.procs processes, cold-open it twice, read it back.
func (r *shimRig) run(path accessPath) (*cycleOut, error) {
	t0 := time.Now()
	s, g, tr := r.spec, r.e.gen, r.tr
	c := &cycleOut{lanes: min(r.e.drivers, s.procs), layer: map[string]float64{}}
	root, err := r.e.freshOSRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	var fail failCount
	c0 := snapshotReadcache(r.plane)

	// Set-up: build the writer processes, open the file on each, and
	// issue every writer's first write one at a time in pid order. The
	// turnstile works around ROADMAP defect 1b (a sibling's 0-byte index
	// dropping fails seedClock on a concurrent first write); delete it
	// when 1b lands.
	tr.setPhase(phSetup)
	procs := make([]*proc, s.procs)
	for i := range procs {
		p, err := r.newProc(path, root, i%c.lanes, uint32(i))
		if err != nil {
			return nil, err
		}
		if p.fd, err = p.api.Open(p.path, posix.O_CREAT|posix.O_WRONLY, 0o644); err != nil {
			return nil, fmt.Errorf("open writer %d: %w", i, err)
		}
		procs[i] = p
	}
	first := 0
	if s.procs > 1 {
		first = 1
		for i, p := range procs {
			off := int64(i) * int64(s.block)
			if n, err := p.api.Pwrite(p.fd, g.at(off, s.block), off); err != nil || n != s.block {
				return nil, fmt.Errorf("priming write %d: n=%d err=%v", i, n, err)
			}
		}
	}
	for i := range r.lat {
		r.lat[i].reset()
	}

	// Timed write: first timed write to last close.
	tr.setPhase(phWrite)
	wd := c.m.timed(func() {
		parallel(c.lanes, func(g0 int) {
			l := &r.lat[g0]
			var tried, bad int64
			defer func() { fail.add(tried, bad) }()
			for b := first; b < s.blocksPerProc; b++ {
				for i := g0; i < s.procs; i += c.lanes {
					p := procs[i]
					off := (int64(b)*int64(s.procs) + int64(i)) * int64(s.block)
					buf := g.at(off, s.block)
					var n int
					var err error
					t := time.Now()
					if s.fdOffset {
						n, err = p.api.Write(p.fd, buf)
					} else {
						n, err = p.api.Pwrite(p.fd, buf, off)
					}
					l.w = append(l.w, since32(t))
					tried++
					if err != nil || n != s.block {
						bad++
					}
				}
			}
			for i := g0; i < s.procs; i += c.lanes {
				fail.check(procs[i].api.Fsync(procs[i].fd) == nil)
				fail.check(procs[i].api.Close(procs[i].fd) == nil)
			}
		})
	})
	written := int64(s.procs) * int64(s.blocksPerProc-first) * int64(s.block)
	c.writeMBps = mbps(written, wd)
	c.ops += int64(s.procs) * int64(s.blocksPerProc-first)
	var shim shimTotals
	shim.add(procs)

	// Cold opens by fresh processes. admin, a plfs instance on the bare
	// backend, does the steps between phases; the plain-file twin has no
	// container and needs none.
	container := storeDir + "/ckpt"
	bare, err := posix.NewOSFS(root)
	if err != nil {
		return nil, err
	}
	var admin *plfs.FS
	if path != pathPlain {
		admin = plfs.New(bare)
	}
	err = coldOpens(tr, c, admin, container, container, func(string) (time.Duration, error) {
		return r.coldOpen(path, root, &c.m, &fail)
	})
	if err != nil {
		return nil, err
	}

	// Restart read: spec.readers fresh processes, each warmed by one
	// read (which builds its index), then the timed chunks.
	tr.setPhase(phSetup)
	chunks := int(s.fileBytes() / int64(s.readChunk))
	order := make([]int, chunks)
	for i := range order {
		order[i] = i
	}
	if !s.fdOffset {
		rand.New(rand.NewSource(r.e.seed)).Shuffle(chunks, func(a, b int) { order[a], order[b] = order[b], order[a] })
	}
	readers := make([]*proc, s.readers)
	for i := range readers {
		p, err := r.newProc(path, root, i, uint32(1000+i))
		if err != nil {
			return nil, err
		}
		if p.fd, err = p.api.Open(p.path, posix.O_RDONLY, 0); err != nil {
			return nil, fmt.Errorf("open reader %d: %w", i, err)
		}
		if _, err := p.api.Pread(p.fd, r.buf[i][:8], 0); err != nil {
			return nil, fmt.Errorf("warm reader %d: %w", i, err)
		}
		readers[i] = p
	}
	tr.setPhase(phRead)
	rdur := c.m.timed(func() {
		parallel(s.readers, func(g0 int) {
			l, p, buf := &r.lat[g0], readers[g0], r.buf[g0]
			for j := g0; j < chunks; j += s.readers {
				off := int64(order[j]) * int64(s.readChunk)
				var n int
				var err error
				t := time.Now()
				if s.fdOffset {
					n, err = p.api.Read(p.fd, buf)
				} else {
					n, err = p.api.Pread(p.fd, buf, off)
				}
				l.r = append(l.r, since32(t))
				fail.check(err == nil && n == len(buf) && g.endsOK(buf, off))
			}
		})
	})
	c.readMBps = mbps(s.fileBytes(), rdur)
	c.ops += int64(chunks)
	c.userBytes = written + s.fileBytes()

	// Untimed: every byte of the file against the generator, then what
	// the container costs on the backend.
	tr.setPhase(phSetup)
	vbuf := make([]byte, maxIO)
	for off := int64(0); off < s.fileBytes(); off += maxIO {
		n := int(min(maxIO, s.fileBytes()-off))
		got, err := readers[0].api.Pread(readers[0].fd, vbuf[:n], off)
		fail.check(err == nil && got == n && g.fullOK(vbuf[:n], off))
	}
	for _, p := range readers {
		fail.check(p.api.Close(p.fd) == nil)
	}
	shim.add(readers)
	if path == pathPlain {
		c.spaceAmp = 1
	} else {
		total, index, err := treeBytes(bare, container)
		if err != nil {
			return nil, err
		}
		c.spaceAmp = ratio(float64(total), float64(s.fileBytes()))
		c.layer["index.B_per_user_MB"] = ratio(float64(index), float64(s.fileBytes())/1e6)
	}
	c.wlat = mergeLats(r.lat, func(l *lats) []int32 { return l.w })
	c.rlat = mergeLats(r.lat, func(l *lats) []int32 { return l.r })
	c.attempted, c.failed = fail.totals()
	readcacheDelta(c.layer, r.plane, c0)
	c.layer["core.interposed_ratio"] = ratio(shim.interposed, shim.calls)
	c.layer["core.shadow_seeks_per_op"] = ratio(shim.shadowSeeks, float64(c.ops))
	c.total = time.Since(t0)
	return c, nil
}

// coldOpen times open-to-first-byte by a fresh process.
func (r *shimRig) coldOpen(path accessPath, root string, m *meter, fail *failCount) (time.Duration, error) {
	p, err := r.newProc(path, root, 0, 2000)
	if err != nil {
		return 0, err
	}
	buf := r.buf[0][:min(len(r.buf[0]), r.spec.block)]
	d := m.timed(func() {
		fd, err := p.api.Open(p.path, posix.O_RDONLY, 0)
		if !fail.check(err == nil) {
			return
		}
		p.fd = fd
		n, err := p.api.Pread(fd, buf, 0)
		fail.check(err == nil && n == len(buf) && r.e.gen.endsOK(buf, 0))
	})
	r.tr.setPhase(phSetup)
	fail.check(p.api.Close(p.fd) == nil)
	return d, nil
}

// shimTotals sums core.Stats over the shim processes of a cycle.
type shimTotals struct{ interposed, calls, shadowSeeks float64 }

func (t *shimTotals) add(procs []*proc) {
	for _, p := range procs {
		if p.ld == nil {
			continue
		}
		in, pt := float64(p.ld.Stats.Interposed.Load()), float64(p.ld.Stats.PassedThru.Load())
		t.interposed += in
		t.calls += in + pt
		t.shadowSeeks += float64(p.ld.Stats.ShadowSeeks.Load())
	}
}

// extras runs the access-path twins of the script under the tracer: the
// same cycle through the bare table, the plfs library and the FUSE
// emulation. The direct twin is also where the plfs layer of a shim
// workload becomes visible, so its plfs.* numbers are taken and the
// shim's own cost derived against them.
func (r *shimRig) extras(into map[string]float64, med func(string) float64) error {
	for _, tw := range []struct {
		path accessPath
		name string
	}{{pathPlain, "plain"}, {pathDirect, "direct"}, {pathFuse, "fuse"}} {
		r.tr.reset()
		c, err := r.run(tw.path)
		if err != nil {
			return fmt.Errorf("%s twin: %w", tw.name, err)
		}
		if c.failed > 0 {
			return fmt.Errorf("%s twin: %d operations failed", tw.name, c.failed)
		}
		into["path."+tw.name+".write_MBps"] = c.writeMBps
		into["path."+tw.name+".read_MBps"] = c.readMBps
		if tw.path != pathDirect {
			continue
		}
		chain := []layerID{lPLFS, lPosix}
		prof := r.tr.analyze(chain)
		for k, v := range derive(prof, chain, c) {
			if strings.HasPrefix(k, "plfs.") {
				into[k] = v
			}
		}
		// Derived until the shim reports on the telemetry plane itself
		// (ROADMAP item 4): what a call costs through the shim minus what
		// the same call costs the library underneath it.
		rw := prof.sum(lPLFS, timedPhases, opRead, opWrite)
		into["core.self_us_per_op"] = med("core.incl_us_per_op") - ratio(float64(rw.dur)/1e3, float64(rw.n))
	}
	return nil
}
