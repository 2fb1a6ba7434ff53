package main

import (
	"errors"

	"ldplfs/internal/mpiio"
	"ldplfs/internal/posix"
)

// The wrappers below exist only in the traced pass. Each records a span
// around the call it forwards and must not change what the program
// under test does: spanFS forwards the optional posix.VectorFS
// capability and Unwrap, and spanDriver hands out a file with the
// vector methods only when the wrapped one has them — a wrapper that
// hid a capability would measure a different program.

// spanFS records a span around every posix.FS call into inner.
type spanFS struct {
	inner posix.FS
	tr    *tracer
	layer layerID
	lane  int
}

// benign reports errors that are answers, not failures: existence
// probes and create races are how plfs discovers container state.
func benign(err error) bool {
	return errors.Is(err, posix.ENOENT) || errors.Is(err, posix.EEXIST)
}

func (s *spanFS) rec(op opKind, t0 int64, bytes, segs int, err error) {
	if benign(err) {
		err = nil
	}
	s.tr.add(s.layer, op, s.lane, t0, bytes, segs, err)
}

// Unwrap lets plfs see through to a StripedFS, as it does through
// posix.InstrumentFS.
func (s *spanFS) Unwrap() posix.FS { return s.inner }

func (s *spanFS) Open(path string, flags int, mode uint32) (int, error) {
	t0 := s.tr.now()
	fd, err := s.inner.Open(path, flags, mode)
	s.rec(opOpen, t0, 0, 0, err)
	return fd, err
}

func (s *spanFS) Close(fd int) error {
	t0 := s.tr.now()
	err := s.inner.Close(fd)
	s.rec(opClose, t0, 0, 0, err)
	return err
}

func (s *spanFS) Read(fd int, p []byte) (int, error) {
	t0 := s.tr.now()
	n, err := s.inner.Read(fd, p)
	s.rec(opRead, t0, n, 1, err)
	return n, err
}

func (s *spanFS) Write(fd int, p []byte) (int, error) {
	t0 := s.tr.now()
	n, err := s.inner.Write(fd, p)
	s.rec(opWrite, t0, n, 1, err)
	return n, err
}

func (s *spanFS) Pread(fd int, p []byte, off int64) (int, error) {
	t0 := s.tr.now()
	n, err := s.inner.Pread(fd, p, off)
	s.rec(opRead, t0, n, 1, err)
	return n, err
}

func (s *spanFS) Pwrite(fd int, p []byte, off int64) (int, error) {
	t0 := s.tr.now()
	n, err := s.inner.Pwrite(fd, p, off)
	s.rec(opWrite, t0, n, 1, err)
	return n, err
}

// Preadv forwards posix.VectorFS; posix.Preadv uses inner's capability
// when it has one and otherwise loops exactly as plfs itself would.
func (s *spanFS) Preadv(fd int, bufs [][]byte, off int64) (int64, error) {
	t0 := s.tr.now()
	n, err := posix.Preadv(s.inner, fd, bufs, off)
	s.rec(opRead, t0, int(n), len(bufs), err)
	return n, err
}

func (s *spanFS) Pwritev(fd int, bufs [][]byte, off int64) (int64, error) {
	t0 := s.tr.now()
	n, err := posix.Pwritev(s.inner, fd, bufs, off)
	s.rec(opWrite, t0, int(n), len(bufs), err)
	return n, err
}

func (s *spanFS) Lseek(fd int, offset int64, whence int) (int64, error) {
	t0 := s.tr.now()
	pos, err := s.inner.Lseek(fd, offset, whence)
	s.rec(opMeta, t0, 0, 0, err)
	return pos, err
}

func (s *spanFS) Fsync(fd int) error {
	t0 := s.tr.now()
	err := s.inner.Fsync(fd)
	s.rec(opSync, t0, 0, 0, err)
	return err
}

func (s *spanFS) Ftruncate(fd int, size int64) error {
	t0 := s.tr.now()
	err := s.inner.Ftruncate(fd, size)
	s.rec(opMeta, t0, 0, 0, err)
	return err
}

func (s *spanFS) Fstat(fd int) (posix.Stat, error) {
	t0 := s.tr.now()
	st, err := s.inner.Fstat(fd)
	s.rec(opMeta, t0, 0, 0, err)
	return st, err
}

func (s *spanFS) Stat(path string) (posix.Stat, error) {
	t0 := s.tr.now()
	st, err := s.inner.Stat(path)
	s.rec(opMeta, t0, 0, 0, err)
	return st, err
}

func (s *spanFS) Truncate(path string, size int64) error {
	t0 := s.tr.now()
	err := s.inner.Truncate(path, size)
	s.rec(opMeta, t0, 0, 0, err)
	return err
}

func (s *spanFS) Unlink(path string) error {
	t0 := s.tr.now()
	err := s.inner.Unlink(path)
	s.rec(opMeta, t0, 0, 0, err)
	return err
}

func (s *spanFS) Mkdir(path string, mode uint32) error {
	t0 := s.tr.now()
	err := s.inner.Mkdir(path, mode)
	s.rec(opMeta, t0, 0, 0, err)
	return err
}

func (s *spanFS) Rmdir(path string) error {
	t0 := s.tr.now()
	err := s.inner.Rmdir(path)
	s.rec(opMeta, t0, 0, 0, err)
	return err
}

func (s *spanFS) Readdir(path string) ([]posix.DirEntry, error) {
	t0 := s.tr.now()
	ents, err := s.inner.Readdir(path)
	s.rec(opMeta, t0, 0, 0, err)
	return ents, err
}

func (s *spanFS) Rename(oldpath, newpath string) error {
	t0 := s.tr.now()
	err := s.inner.Rename(oldpath, newpath)
	s.rec(opMeta, t0, 0, 0, err)
	return err
}

func (s *spanFS) Access(path string, mode int) error {
	t0 := s.tr.now()
	err := s.inner.Access(path, mode)
	s.rec(opMeta, t0, 0, 0, err)
	return err
}

var (
	_ posix.FS       = (*spanFS)(nil)
	_ posix.VectorFS = (*spanFS)(nil)
)

// interpose wraps the entries of a dispatch table the workloads call,
// after the shim has installed itself: the spans it records are the
// application's view of a call, shim included.
func interpose(d *posix.Dispatch, tr *tracer, lane int) {
	open, closeFn, read, write := d.OpenFn, d.CloseFn, d.ReadFn, d.WriteFn
	pread, pwrite, fsync := d.PreadFn, d.PwriteFn, d.FsyncFn
	d.OpenFn = func(path string, flags int, mode uint32) (int, error) {
		t0 := tr.now()
		fd, err := open(path, flags, mode)
		tr.add(lCore, opOpen, lane, t0, 0, 0, err)
		return fd, err
	}
	d.CloseFn = func(fd int) error {
		t0 := tr.now()
		err := closeFn(fd)
		tr.add(lCore, opClose, lane, t0, 0, 0, err)
		return err
	}
	d.ReadFn = func(fd int, p []byte) (int, error) {
		t0 := tr.now()
		n, err := read(fd, p)
		tr.add(lCore, opRead, lane, t0, n, 1, err)
		return n, err
	}
	d.WriteFn = func(fd int, p []byte) (int, error) {
		t0 := tr.now()
		n, err := write(fd, p)
		tr.add(lCore, opWrite, lane, t0, n, 1, err)
		return n, err
	}
	d.PreadFn = func(fd int, p []byte, off int64) (int, error) {
		t0 := tr.now()
		n, err := pread(fd, p, off)
		tr.add(lCore, opRead, lane, t0, n, 1, err)
		return n, err
	}
	d.PwriteFn = func(fd int, p []byte, off int64) (int, error) {
		t0 := tr.now()
		n, err := pwrite(fd, p, off)
		tr.add(lCore, opWrite, lane, t0, n, 1, err)
		return n, err
	}
	d.FsyncFn = func(fd int) error {
		t0 := tr.now()
		err := fsync(fd)
		tr.add(lCore, opSync, lane, t0, 0, 0, err)
		return err
	}
}

// spanDriver records a plfs-layer span around every call mpiio makes
// into its ADIO driver; over mpiio.PLFSDriver each is one plfs call.
type spanDriver struct {
	inner mpiio.Driver
	tr    *tracer
}

func (d *spanDriver) Name() string { return d.inner.Name() }

func (d *spanDriver) Delete(path string) error { return d.inner.Delete(path) }

func (d *spanDriver) Open(path string, amode int, rank int) (mpiio.DriverFile, error) {
	t0 := d.tr.now()
	df, err := d.inner.Open(path, amode, rank)
	d.tr.add(lPLFS, opOpen, rank, t0, 0, 0, err)
	if err != nil {
		return nil, err
	}
	f := spanFile{inner: df, tr: d.tr, lane: rank}
	vw, okW := df.(mpiio.VectorWriter)
	vr, okR := df.(mpiio.VectorReader)
	if okW && okR {
		return &spanVecFile{spanFile: f, vw: vw, vr: vr}, nil
	}
	return &f, nil
}

type spanFile struct {
	inner mpiio.DriverFile
	tr    *tracer
	lane  int
}

func (f *spanFile) PreadAt(p []byte, off int64) (int, error) {
	t0 := f.tr.now()
	n, err := f.inner.PreadAt(p, off)
	f.tr.add(lPLFS, opRead, f.lane, t0, n, 1, err)
	return n, err
}

func (f *spanFile) PwriteAt(p []byte, off int64) (int, error) {
	t0 := f.tr.now()
	n, err := f.inner.PwriteAt(p, off)
	f.tr.add(lPLFS, opWrite, f.lane, t0, n, 1, err)
	return n, err
}

func (f *spanFile) Size() (int64, error) {
	t0 := f.tr.now()
	n, err := f.inner.Size()
	f.tr.add(lPLFS, opMeta, f.lane, t0, 0, 0, err)
	return n, err
}

func (f *spanFile) Truncate(size int64) error {
	t0 := f.tr.now()
	err := f.inner.Truncate(size)
	f.tr.add(lPLFS, opMeta, f.lane, t0, 0, 0, err)
	return err
}

func (f *spanFile) Sync() error {
	t0 := f.tr.now()
	err := f.inner.Sync()
	f.tr.add(lPLFS, opSync, f.lane, t0, 0, 0, err)
	return err
}

func (f *spanFile) Close() error {
	t0 := f.tr.now()
	err := f.inner.Close()
	f.tr.add(lPLFS, opClose, f.lane, t0, 0, 0, err)
	return err
}

// spanVecFile adds the vector capabilities of the wrapped file.
type spanVecFile struct {
	spanFile
	vw mpiio.VectorWriter
	vr mpiio.VectorReader
}

func (f *spanVecFile) PwritevAt(segs []mpiio.Segment, buf []byte) (int, error) {
	t0 := f.tr.now()
	n, err := f.vw.PwritevAt(segs, buf)
	f.tr.add(lPLFS, opWrite, f.lane, t0, n, len(segs), err)
	return n, err
}

func (f *spanVecFile) PreadvAt(segs []mpiio.Segment, buf []byte) (int, error) {
	t0 := f.tr.now()
	n, err := f.vr.PreadvAt(segs, buf)
	f.tr.add(lPLFS, opRead, f.lane, t0, n, len(segs), err)
	return n, err
}
