// Package mpiio reimplements the ROMIO MPI-IO layer the paper's methods
// plug into: an ADIO driver interface with a POSIX ("ufs") driver and a
// PLFS driver (the patched-ROMIO deployment), two-phase collective
// buffering with one aggregator per compute node (the paper's default),
// and data sieving for independent strided access.
//
// The four access methods of the paper, and the remote mode added to
// them, differ only in how this stack is assembled:
//
//	MPI-IO  : ufs driver over the plain POSIX dispatch
//	FUSE    : ufs driver over a fuse.FS mount
//	ROMIO   : plfs driver (direct PLFS calls, one Plfs_fd per rank)
//	LDPLFS  : ufs driver over a dispatch with internal/core preloaded
//	remote  : ufs driver over a client.Conn dispatch
package mpiio

import (
	"fmt"

	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// Access-mode flags, mirroring MPI_MODE_*.
const (
	ModeRdonly = 1 << iota
	ModeWronly
	ModeRdwr
	ModeCreate
	ModeExcl
	ModeAppend
)

// amodeToPosix translates MPI_MODE_* to POSIX open flags.
func amodeToPosix(amode int) (int, error) {
	flags := 0
	switch {
	case amode&ModeRdonly != 0:
		flags = posix.O_RDONLY
	case amode&ModeWronly != 0:
		flags = posix.O_WRONLY
	case amode&ModeRdwr != 0:
		flags = posix.O_RDWR
	default:
		return 0, fmt.Errorf("mpiio: amode %#x lacks an access mode", amode)
	}
	if amode&ModeCreate != 0 {
		flags |= posix.O_CREAT
	}
	if amode&ModeExcl != 0 {
		flags |= posix.O_EXCL
	}
	if amode&ModeAppend != 0 {
		flags |= posix.O_APPEND
	}
	return flags, nil
}

// Driver is the ADIO file-system driver interface.
type Driver interface {
	// Name identifies the driver ("ufs", "plfs") in hints and traces.
	Name() string
	// Open opens path for the calling rank.
	Open(path string, amode int, rank int) (DriverFile, error)
	// Delete removes the file (MPI_File_delete).
	Delete(path string) error
}

// DriverFile is an open per-rank file within a driver.
type DriverFile interface {
	PreadAt(p []byte, off int64) (int, error)
	PwriteAt(p []byte, off int64) (int, error)
	Size() (int64, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// VectorWriter is an optional DriverFile extension: drivers that can
// commit a whole flattened datatype in one call implement it, and
// WriteStrided hands them the segment list instead of looping pwrites.
// The PLFS driver maps it onto plfs.File.WriteV, whose write engine
// fans the segments out in parallel within one index transaction.
type VectorWriter interface {
	// PwritevAt writes buf scattered across segs (ascending, disjoint,
	// covering exactly len(buf) bytes), returning bytes written.
	PwritevAt(segs []Segment, buf []byte) (int, error)
}

// VectorReader is the read-side twin: drivers that can gather a whole
// flattened datatype in one call implement it, and the collective
// aggregators hand them the coalesced run list instead of looping
// preads. The PLFS driver maps it onto plfs.File.ReadV, which resolves
// the index once and batches physically-contiguous extents across runs.
type VectorReader interface {
	// PreadvAt fills buf from segs (ascending, disjoint, covering
	// exactly len(buf) bytes), zero-filling past EOF, and returns the
	// bytes that lie below EOF.
	PreadvAt(segs []Segment, buf []byte) (int, error)
}

// --- ufs: the POSIX ADIO driver -----------------------------------------

// UFS routes through a posix.FS — typically a *posix.Dispatch, so that a
// preloaded LDPLFS shim (or a FUSE mount) transparently captures the
// traffic, exactly as ad_ufs does in ROMIO.
type UFS struct {
	fs posix.FS
}

// NewUFS returns the POSIX driver over fs.
func NewUFS(fs posix.FS) *UFS { return &UFS{fs: fs} }

// Name implements Driver.
func (u *UFS) Name() string { return "ufs" }

// Open implements Driver.
func (u *UFS) Open(path string, amode int, rank int) (DriverFile, error) {
	flags, err := amodeToPosix(amode)
	if err != nil {
		return nil, err
	}
	fd, err := u.fs.Open(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	return &ufsFile{fs: u.fs, fd: fd}, nil
}

// Delete implements Driver.
func (u *UFS) Delete(path string) error { return u.fs.Unlink(path) }

type ufsFile struct {
	fs posix.FS
	fd int
}

func (f *ufsFile) PreadAt(p []byte, off int64) (int, error)  { return f.fs.Pread(f.fd, p, off) }
func (f *ufsFile) PwriteAt(p []byte, off int64) (int, error) { return f.fs.Pwrite(f.fd, p, off) }
func (f *ufsFile) Truncate(size int64) error                 { return f.fs.Ftruncate(f.fd, size) }
func (f *ufsFile) Sync() error                               { return f.fs.Fsync(f.fd) }
func (f *ufsFile) Close() error                              { return f.fs.Close(f.fd) }
func (f *ufsFile) Size() (int64, error) {
	st, err := f.fs.Fstat(f.fd)
	if err != nil {
		return 0, err
	}
	return st.Size, nil
}

// --- plfs: the patched-ROMIO PLFS driver ---------------------------------

// PLFSDriver calls the PLFS library directly (ad_plfs): every rank gets
// its own Plfs_fd with pid = rank, so droppings are per rank.
type PLFSDriver struct {
	p *plfs.FS
	// translate maps an application path to the backend container path;
	// identity when nil (paths already name backend locations).
	translate func(string) (string, bool)
}

// NewPLFSDriver returns the direct-PLFS driver. translate may map mount
// paths to backend paths (like plfsrc does for ad_plfs); nil means paths
// are used as given.
func NewPLFSDriver(p *plfs.FS, translate func(string) (string, bool)) *PLFSDriver {
	return &PLFSDriver{p: p, translate: translate}
}

// Name implements Driver.
func (d *PLFSDriver) Name() string { return "plfs" }

func (d *PLFSDriver) path(path string) (string, error) {
	if d.translate == nil {
		return path, nil
	}
	bpath, ok := d.translate(path)
	if !ok {
		return "", fmt.Errorf("mpiio: %s is not under a plfs mount", path)
	}
	return bpath, nil
}

// Open implements Driver.
func (d *PLFSDriver) Open(path string, amode int, rank int) (DriverFile, error) {
	flags, err := amodeToPosix(amode)
	if err != nil {
		return nil, err
	}
	bpath, err := d.path(path)
	if err != nil {
		return nil, err
	}
	pf, err := d.p.Open(bpath, flags, uint32(rank), 0o644)
	if err != nil {
		return nil, err
	}
	return &plfsFile{f: pf, pid: uint32(rank)}, nil
}

// Delete implements Driver.
func (d *PLFSDriver) Delete(path string) error {
	bpath, err := d.path(path)
	if err != nil {
		return err
	}
	return d.p.Unlink(bpath)
}

type plfsFile struct {
	f   *plfs.File
	pid uint32
}

func (f *plfsFile) PreadAt(p []byte, off int64) (int, error)  { return f.f.Read(p, off) }
func (f *plfsFile) PwriteAt(p []byte, off int64) (int, error) { return f.f.Write(p, off, f.pid) }

// PwritevAt implements VectorWriter over the PLFS write engine: the
// whole strided access becomes one WriteV — one writer-lock acquisition,
// segment pwrites fanned out in parallel, index records batched.
func (f *plfsFile) PwritevAt(segs []Segment, buf []byte) (int, error) {
	vec := make([]plfs.WriteSeg, len(segs))
	cursor := int64(0)
	for i, s := range segs {
		vec[i] = plfs.WriteSeg{Off: s.Off, Data: buf[cursor : cursor+s.Len]}
		cursor += s.Len
	}
	n, err := f.f.WriteV(vec, f.pid)
	return int(n), err
}

// PreadvAt implements VectorReader over the PLFS read engine: the whole
// run list becomes one ReadV — the index resolved once, every run's
// extents joined into one batched plan.
func (f *plfsFile) PreadvAt(segs []Segment, buf []byte) (int, error) {
	vec := make([]plfs.ReadSeg, len(segs))
	cursor := int64(0)
	for i, s := range segs {
		vec[i] = plfs.ReadSeg{Off: s.Off, Buf: buf[cursor : cursor+s.Len]}
		cursor += s.Len
	}
	n, err := f.f.ReadV(vec)
	return int(n), err
}
func (f *plfsFile) Truncate(size int64) error { return f.f.Trunc(size) }
func (f *plfsFile) Sync() error               { return f.f.Sync(f.pid) }
func (f *plfsFile) Close() error              { return f.f.Close(f.pid) }
func (f *plfsFile) Size() (int64, error)      { return f.f.Size() }
