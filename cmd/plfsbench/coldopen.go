package main

import (
	"fmt"
	"time"

	"ldplfs/internal/iostats"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// wideRig runs cold_open_wide: the plfs library called directly on a
// MemFS, so neither the shim, a collective nor a system call is in the
// way of what it stresses — parsing and merging many index droppings,
// and a read-descriptor cache smaller than the container is wide.
type wideRig struct {
	e       *env
	tr      *tracer
	plane   *iostats.Plane
	backend posix.FS // the MemFS, under the span wrapper in the traced rig
	admin   *plfs.FS // straight on the MemFS: set-up steps and checks
	amp     float64  // space_amp of the populated container; it never changes
	idxB    float64
	buf     []byte
	lat     lats
}

const (
	widePath      = "/wide"
	wideWritePath = "/wide-w"
)

// newColdOpen populates the wide container once: wideWriters writers,
// wideRecords records each, strided N-1.
func newColdOpen(e *env, tr *tracer) (instance, error) {
	sz := e.sz
	mem := posix.NewMemFS()
	r := &wideRig{e: e, tr: tr, backend: e.bottom(mem), admin: plfs.New(mem), buf: make([]byte, sz.wideReadChunk)}
	if tr != nil {
		r.plane = iostats.NewPlane()
		r.backend = &spanFS{inner: r.backend, tr: tr, layer: lPosix, lane: 0}
	}
	r.lat.w = make([]int32, 0, sz.wideWriters*sz.wideWriteRecords)
	r.lat.r = make([]int32, 0, r.fileBytes()/int64(sz.wideReadChunk)+1)
	var fail failCount
	if err := r.wideWrite(r.admin, nil, widePath, sz.wideRecords, &fail, nil); err != nil {
		return nil, err
	}
	if _, bad := fail.totals(); bad > 0 {
		return nil, fmt.Errorf("populating %s: %d writes failed", widePath, bad)
	}
	total, index, err := treeBytes(mem, widePath)
	if err != nil {
		return nil, err
	}
	r.amp = ratio(float64(total), float64(r.fileBytes()))
	r.idxB = ratio(float64(index), float64(r.fileBytes())/1e6)
	return r, nil
}

func (r *wideRig) close() {}

func (r *wideRig) fileBytes() int64 {
	return int64(r.e.sz.wideWriters) * int64(r.e.sz.wideRecords) * int64(r.e.sz.wideRecord)
}

// wideWrite writes records records per writer into path through p, one
// handle per writer, record j of writer w at offset (j*writers+w)*record,
// then closes every handle. Calls are spanned and, with l, timed.
func (r *wideRig) wideWrite(p *plfs.FS, tr *tracer, path string, records int, fail *failCount, l *lats) error {
	sz, g := r.e.sz, r.e.gen
	files := make([]*plfs.File, sz.wideWriters)
	for w := range files {
		t0 := tr.now()
		f, err := p.Open(path, posix.O_CREAT|posix.O_WRONLY, uint32(w), 0o644)
		tr.add(lPLFS, opOpen, 0, t0, 0, 0, err)
		if err != nil {
			return fmt.Errorf("open writer %d of %s: %w", w, path, err)
		}
		files[w] = f
	}
	for j := 0; j < records; j++ {
		for w, f := range files {
			off := (int64(j)*int64(sz.wideWriters) + int64(w)) * int64(sz.wideRecord)
			t := time.Now()
			t0 := tr.now()
			n, err := f.Write(g.at(off, sz.wideRecord), off, uint32(w))
			tr.add(lPLFS, opWrite, 0, t0, n, 1, err)
			if l != nil {
				l.w = append(l.w, since32(t))
			}
			fail.check(err == nil && n == sz.wideRecord)
		}
	}
	for w, f := range files {
		t0 := tr.now()
		err := f.Close(uint32(w))
		tr.add(lPLFS, opClose, 0, t0, 0, 0, err)
		fail.check(err == nil)
	}
	return nil
}

// coldOpen times open-to-first-byte by a fresh instance.
func (r *wideRig) coldOpen(m *meter, fail *failCount) time.Duration {
	p := plfs.New(r.backend, plfsOpts(r.plane)...)
	buf := r.buf[:r.e.sz.wideRecord]
	var f *plfs.File
	d := m.timed(func() {
		t0 := r.tr.now()
		var err error
		f, err = p.Open(widePath, posix.O_RDONLY, 0, 0)
		r.tr.add(lPLFS, opOpen, 0, t0, 0, 0, err)
		if !fail.check(err == nil) {
			return
		}
		t0 = r.tr.now()
		n, err := f.Read(buf, 0)
		r.tr.add(lPLFS, opRead, 0, t0, n, 1, err)
		fail.check(err == nil && n == len(buf) && r.e.gen.endsOK(buf, 0))
	})
	r.tr.setPhase(phSetup)
	if f != nil {
		fail.check(f.Close(0) == nil)
	}
	return d
}

func (r *wideRig) cycle(k int) (*cycleOut, error) {
	t0 := time.Now()
	sz, g, tr := r.e.sz, r.e.gen, r.tr
	c := &cycleOut{lanes: 1, layer: map[string]float64{}, spaceAmp: r.amp}
	c.layer["index.B_per_user_MB"] = r.idxB
	var fail failCount
	c0 := snapshotReadcache(r.plane)
	r.lat.reset()

	// Timed wide write: a fresh container from wideWriters writers with
	// few records each, so that creating and retiring writers is most of
	// the work. (The contract wants every workload to report every
	// metric; this is the write that belongs to a wide container.)
	tr.setPhase(phWrite)
	wp := plfs.New(r.backend, plfsOpts(r.plane)...)
	var werr error
	wd := c.m.timed(func() { werr = r.wideWrite(wp, tr, wideWritePath, sz.wideWriteRecords, &fail, &r.lat) })
	if werr != nil {
		return nil, werr
	}
	wbytes := int64(sz.wideWriters) * int64(sz.wideWriteRecords) * int64(sz.wideRecord)
	c.writeMBps = mbps(wbytes, wd)
	c.ops += int64(sz.wideWriters * sz.wideWriteRecords)

	// Cold opens of the populated container.
	err := coldOpens(tr, c, r.admin, widePath, widePath, func(string) (time.Duration, error) {
		return r.coldOpen(&c.m, &fail), nil
	})
	if err != nil {
		return nil, err
	}

	// One scan of the file by a fresh, warmed instance.
	tr.setPhase(phSetup)
	rp := plfs.New(r.backend, plfsOpts(r.plane)...)
	f, err := rp.Open(widePath, posix.O_RDONLY, 0, 0)
	if err != nil {
		return nil, err
	}
	if _, err := f.Read(r.buf[:8], 0); err != nil {
		return nil, err
	}
	tr.setPhase(phRead)
	chunk := int64(sz.wideReadChunk)
	rdur := c.m.timed(func() {
		for off := int64(0); off < r.fileBytes(); off += chunk {
			buf := r.buf[:min(chunk, r.fileBytes()-off)]
			t := time.Now()
			s0 := tr.now()
			n, err := f.Read(buf, off)
			tr.add(lPLFS, opRead, 0, s0, n, 1, err)
			r.lat.r = append(r.lat.r, since32(t))
			fail.check(err == nil && n == len(buf) && g.endsOK(buf, off))
		}
	})
	c.readMBps = mbps(r.fileBytes(), rdur)
	c.ops += int64(len(r.lat.r))
	c.userBytes = wbytes + r.fileBytes()

	// Untimed: every byte of both containers, then drop the written one.
	tr.setPhase(phSetup)
	for off := int64(0); off < r.fileBytes(); off += chunk {
		buf := r.buf[:min(chunk, r.fileBytes()-off)]
		n, err := f.Read(buf, off)
		fail.check(err == nil && n == len(buf) && g.fullOK(buf, off))
	}
	fail.check(f.Close(0) == nil)
	wf, err := r.admin.Open(wideWritePath, posix.O_RDONLY, 0, 0)
	if err != nil {
		return nil, err
	}
	for off := int64(0); off < wbytes; off += chunk {
		buf := r.buf[:min(chunk, wbytes-off)]
		n, err := wf.Read(buf, off)
		fail.check(err == nil && n == len(buf) && g.fullOK(buf, off))
	}
	fail.check(wf.Close(0) == nil)
	if err := r.admin.Unlink(wideWritePath); err != nil {
		return nil, err
	}
	readcacheDelta(c.layer, r.plane, c0)
	c.wlat = mergeLats([]lats{r.lat}, func(l *lats) []int32 { return l.w })
	c.rlat = mergeLats([]lats{r.lat}, func(l *lats) []int32 { return l.r })
	c.attempted, c.failed = fail.totals()
	c.total = time.Since(t0)
	return c, nil
}

func (r *wideRig) extras(map[string]float64, func(string) float64) error { return nil }
