// Package fuse emulates the PLFS FUSE deployment path: a kernel-mediated
// mount where every file operation crosses user→kernel→daemon and data is
// copied twice. Functionally it behaves exactly like LDPLFS (applications
// see containers as plain files); its purpose in the reproduction is
// (a) transparency — any FS consumer works unmodified — and (b) cost
// accounting, because the crossings/copies it meters are what make the
// FUSE bars the slowest in Figure 3 of the paper.
package fuse

import (
	"errors"
	"sync"
	"sync/atomic"

	"ldplfs/internal/core"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// MaxTransfer is the FUSE max_write/max_read segment size: one kernel
// round trip moves at most this many bytes (128 KiB, the Linux default).
const MaxTransfer = 128 << 10

// Metrics counts the kernel-boundary work an operation stream induced.
type Metrics struct {
	// Crossings counts user<->kernel<->daemon round trips (2 per op
	// segment: the request into the kernel and the daemon reply).
	Crossings atomic.Int64
	// BytesCopied counts payload bytes moved across the boundary; each
	// read or write payload crosses twice (user->kernel, kernel->daemon).
	BytesCopied atomic.Int64
	// Ops counts FUSE operations (after segmentation).
	Ops atomic.Int64
}

// FS is a mounted PLFS-FUSE file system. Paths under MountPoint map to
// PLFS containers in the backend directory; everything else is ENOENT —
// a FUSE mount only exposes its own tree.
type FS struct {
	mount core.Mount
	plfs  *plfs.FS
	inner posix.FS

	mu     sync.Mutex
	fds    map[int]*fuseFD
	nextFD int

	Metrics Metrics
}

// nextWriterID hands out cluster-unique writer ids: real PLFS-FUSE daemons
// are distinguished by hostname, so two mounts never share droppings. A
// package-level counter reproduces that uniqueness across Mount instances.
var nextWriterID atomic.Uint32

func init() { nextWriterID.Store(1 << 20) } // distinct from application pids

type fuseFD struct {
	file    *plfs.File
	dirPath string // non-empty for directory fds
	off     int64
	flags   int
	pid     uint32
}

// Mount creates a FUSE view: mountPoint becomes a window onto PLFS
// containers stored under backendDir of inner. opts take any mix of
// grouped plfs option values.
func Mount(inner posix.FS, mountPoint, backendDir string, opts ...plfs.Option) *FS {
	return &FS{
		mount:  core.NewMount(mountPoint, backendDir),
		plfs:   plfs.New(inner, opts...),
		inner:  inner,
		fds:    make(map[int]*fuseFD),
		nextFD: 3,
	}
}

// Plfs returns the PLFS instance behind the mount.
func (f *FS) Plfs() *plfs.FS { return f.plfs }

// cross records n kernel round trips for op accounting.
func (f *FS) cross(n int64) {
	f.Metrics.Crossings.Add(n)
	f.Metrics.Ops.Add(1)
}

func (f *FS) resolve(path string) (string, error) {
	if bpath, ok := f.mount.Resolve(path); ok {
		return bpath, nil
	}
	return "", posix.ENOENT
}

// segments returns the number of MaxTransfer segments needed for n bytes.
func segments(n int) int64 {
	if n <= 0 {
		return 1
	}
	return int64((n + MaxTransfer - 1) / MaxTransfer)
}

// Open implements posix.FS.
func (f *FS) Open(path string, flags int, mode uint32) (int, error) {
	f.cross(2)
	bpath, err := f.resolve(path)
	if err != nil {
		return -1, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if st, serr := f.inner.Stat(bpath); serr == nil && st.IsDir() && !f.plfs.IsContainer(bpath) {
		if flags&posix.O_ACCMODE != posix.O_RDONLY {
			return -1, posix.EISDIR
		}
		fd := f.nextFD
		f.nextFD++
		f.fds[fd] = &fuseFD{dirPath: bpath, flags: flags}
		return fd, nil
	}
	pid := nextWriterID.Add(1)
	pf, err := f.plfs.Open(bpath, flags, pid, mode)
	if err != nil {
		return -1, err
	}
	fd := f.nextFD
	f.nextFD++
	f.fds[fd] = &fuseFD{file: pf, flags: flags, pid: pid}
	if flags&posix.O_APPEND != 0 {
		if size, err := pf.Size(); err == nil {
			f.fds[fd].off = size
		}
	}
	return fd, nil
}

func (f *FS) fd(fd int) (*fuseFD, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.fds[fd]
	if !ok {
		return nil, posix.EBADF
	}
	return h, nil
}

// Close implements posix.FS.
func (f *FS) Close(fd int) error {
	f.cross(2)
	f.mu.Lock()
	h, ok := f.fds[fd]
	if ok {
		delete(f.fds, fd)
	}
	f.mu.Unlock()
	if !ok {
		return posix.EBADF
	}
	if h.file != nil {
		return h.file.Close(h.pid)
	}
	return nil
}

// Read implements posix.FS.
func (f *FS) Read(fd int, p []byte) (int, error) {
	h, err := f.fd(fd)
	if err != nil {
		f.cross(2)
		return 0, err
	}
	f.mu.Lock()
	off := h.off
	f.mu.Unlock()
	n, err := f.Pread(fd, p, off)
	if err == nil {
		f.mu.Lock()
		h.off = off + int64(n)
		f.mu.Unlock()
	}
	return n, err
}

// Write implements posix.FS.
func (f *FS) Write(fd int, p []byte) (int, error) {
	h, err := f.fd(fd)
	if err != nil {
		f.cross(2)
		return 0, err
	}
	f.mu.Lock()
	off := h.off
	f.mu.Unlock()
	if h.flags&posix.O_APPEND != 0 && h.file != nil {
		size, serr := h.file.Size()
		if serr != nil {
			return 0, serr
		}
		off = size
	}
	n, err := f.Pwrite(fd, p, off)
	if err == nil {
		f.mu.Lock()
		h.off = off + int64(n)
		f.mu.Unlock()
	}
	return n, err
}

// Pread implements posix.FS, segmenting at MaxTransfer per kernel trip.
func (f *FS) Pread(fd int, p []byte, off int64) (int, error) {
	h, err := f.fd(fd)
	if err != nil {
		f.cross(2)
		return 0, err
	}
	if h.file == nil {
		f.cross(2)
		return 0, posix.EISDIR
	}
	f.cross(2 * segments(len(p)))
	n, err := h.file.Read(p, off)
	f.Metrics.BytesCopied.Add(2 * int64(n))
	return n, err
}

// Pwrite implements posix.FS, segmenting at MaxTransfer per kernel trip.
func (f *FS) Pwrite(fd int, p []byte, off int64) (int, error) {
	h, err := f.fd(fd)
	if err != nil {
		f.cross(2)
		return 0, err
	}
	if h.file == nil {
		f.cross(2)
		return 0, posix.EISDIR
	}
	f.cross(2 * segments(len(p)))
	n, err := h.file.Write(p, off, h.pid)
	f.Metrics.BytesCopied.Add(2 * int64(n))
	return n, err
}

// Lseek implements posix.FS. Seeks are resolved in the VFS against the
// kernel-held offset; only SEEK_END needs a getattr round trip.
func (f *FS) Lseek(fd int, offset int64, whence int) (int64, error) {
	h, err := f.fd(fd)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var base int64
	switch whence {
	case posix.SEEK_SET:
		base = 0
	case posix.SEEK_CUR:
		base = h.off
	case posix.SEEK_END:
		if h.file == nil {
			return 0, posix.EISDIR
		}
		f.cross(2) // getattr
		size, err := h.file.Size()
		if err != nil {
			return 0, err
		}
		base = size
	default:
		return 0, posix.EINVAL
	}
	pos := base + offset
	if pos < 0 {
		return 0, posix.EINVAL
	}
	h.off = pos
	return pos, nil
}

// Fsync implements posix.FS.
func (f *FS) Fsync(fd int) error {
	f.cross(2)
	h, err := f.fd(fd)
	if err != nil {
		return err
	}
	if h.file == nil {
		return nil
	}
	return h.file.Sync(h.pid)
}

// Ftruncate implements posix.FS.
func (f *FS) Ftruncate(fd int, size int64) error {
	f.cross(2)
	h, err := f.fd(fd)
	if err != nil {
		return err
	}
	if h.file == nil {
		return posix.EISDIR
	}
	return h.file.Trunc(size)
}

// Fstat implements posix.FS.
func (f *FS) Fstat(fd int) (posix.Stat, error) {
	f.cross(2)
	h, err := f.fd(fd)
	if err != nil {
		return posix.Stat{}, err
	}
	if h.file == nil {
		return f.inner.Stat(h.dirPath)
	}
	size, err := h.file.Size()
	if err != nil {
		return posix.Stat{}, err
	}
	return posix.Stat{Size: size, Mode: 0o644, Nlink: 1}, nil
}

// Stat implements posix.FS.
func (f *FS) Stat(path string) (posix.Stat, error) {
	f.cross(2)
	bpath, err := f.resolve(path)
	if err != nil {
		return posix.Stat{}, err
	}
	if f.plfs.IsContainer(bpath) {
		return f.plfs.Stat(bpath)
	}
	return f.inner.Stat(bpath)
}

// Truncate implements posix.FS.
func (f *FS) Truncate(path string, size int64) error {
	f.cross(2)
	bpath, err := f.resolve(path)
	if err != nil {
		return err
	}
	if f.plfs.IsContainer(bpath) {
		return f.plfs.Truncate(bpath, size)
	}
	return f.inner.Truncate(bpath, size)
}

// Unlink implements posix.FS.
func (f *FS) Unlink(path string) error {
	f.cross(2)
	bpath, err := f.resolve(path)
	if err != nil {
		return err
	}
	if f.plfs.IsContainer(bpath) {
		return f.plfs.Unlink(bpath)
	}
	return f.inner.Unlink(bpath)
}

// Mkdir implements posix.FS.
func (f *FS) Mkdir(path string, mode uint32) error {
	f.cross(2)
	bpath, err := f.resolve(path)
	if err != nil {
		return err
	}
	return f.inner.Mkdir(bpath, mode)
}

// Rmdir implements posix.FS.
func (f *FS) Rmdir(path string) error {
	f.cross(2)
	bpath, err := f.resolve(path)
	if err != nil {
		return err
	}
	if f.plfs.IsContainer(bpath) {
		return posix.ENOTDIR
	}
	return f.inner.Rmdir(bpath)
}

// Readdir implements posix.FS, flattening containers to file entries.
func (f *FS) Readdir(path string) ([]posix.DirEntry, error) {
	f.cross(2)
	bpath, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	entries, err := f.inner.Readdir(bpath)
	if err != nil {
		return nil, err
	}
	out := entries[:0]
	for _, e := range entries {
		if e.IsDir && f.plfs.IsContainer(bpath+"/"+e.Name) {
			e.IsDir = false
		}
		out = append(out, e)
	}
	return out, nil
}

// Rename implements posix.FS.
func (f *FS) Rename(oldpath, newpath string) error {
	f.cross(2)
	bold, err := f.resolve(oldpath)
	if err != nil {
		return err
	}
	bnew, err := f.resolve(newpath)
	if err != nil {
		return err
	}
	if f.plfs.IsContainer(bold) {
		return f.plfs.Rename(bold, bnew)
	}
	return f.inner.Rename(bold, bnew)
}

// Access implements posix.FS.
func (f *FS) Access(path string, mode int) error {
	f.cross(2)
	bpath, err := f.resolve(path)
	if err != nil {
		return err
	}
	if f.plfs.IsContainer(bpath) {
		return nil
	}
	err = f.inner.Access(bpath, mode)
	if errors.Is(err, posix.ENOENT) {
		return posix.ENOENT
	}
	return err
}

var _ posix.FS = (*FS)(nil)
