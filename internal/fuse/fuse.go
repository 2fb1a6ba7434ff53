// Package fuse emulates the PLFS FUSE deployment path: the LDPLFS shim
// (internal/core) behind a mount boundary and a meter. The daemon's
// POSIX→PLFS translation is the shim's own — descriptors, file pointers
// and the container-or-plain rules all live there — and this package adds
// only what a kernel mount adds: paths outside the mount do not exist,
// and every operation crosses user→kernel→daemon with its payload copied
// twice, in MaxTransfer segments. Metrics counts those crossings and
// copies; what they cost in time — why the FUSE bars are the slowest in
// Figure 3 of the paper — is the model in internal/fsim, not this package.
package fuse

import (
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

// FS is a mounted PLFS-FUSE file system. Paths under the mount point map
// to PLFS containers in the backend directory; everything else is ENOENT
// — a FUSE mount only exposes its own tree.
type FS struct {
	mount core.Mount
	d     *posix.Dispatch // inner's symbols with the shim preloaded
	plfs  *plfs.FS
	err   error // why the mount failed; every path operation reports it

	Metrics Metrics
}

// nextWriterID hands out cluster-unique writer ids: real PLFS-FUSE daemons
// are distinguished by hostname, so two mounts never share droppings. A
// package-level counter reproduces that uniqueness across Mount instances.
var nextWriterID atomic.Uint32

func init() { nextWriterID.Store(1 << 20) } // distinct from application pids

// Mount creates a FUSE view: mountPoint becomes a window onto PLFS
// containers stored under backendDir of inner. One mount is one daemon
// and writes under one pid. opts take any mix of grouped plfs option
// values.
func Mount(inner posix.FS, mountPoint, backendDir string, opts ...plfs.Option) *FS {
	f := &FS{
		mount: core.NewMount(mountPoint, backendDir),
		d:     posix.NewDispatch(inner),
		plfs:  plfs.New(inner, opts...),
	}
	_, f.err = core.Preload(f.d, core.Config{
		Mounts: []core.Mount{f.mount},
		Pid:    nextWriterID.Add(1),
		Plfs:   f.plfs,
	})
	return f
}

// Plfs returns the PLFS instance behind the mount.
func (f *FS) Plfs() *plfs.FS { return f.plfs }

// cross records n kernel round trips for op accounting.
func (f *FS) cross(n int64) {
	f.Metrics.Crossings.Add(n)
	f.Metrics.Ops.Add(1)
}

// enter is the prologue of every path operation: one request/reply
// crossing, and the mount boundary — a path outside the mount does not
// exist.
func (f *FS) enter(paths ...string) error {
	f.cross(2)
	if f.err != nil {
		return f.err
	}
	for _, path := range paths {
		if _, ok := f.mount.Resolve(path); !ok {
			return posix.ENOENT
		}
	}
	return nil
}

// moved is the epilogue of every data operation: a req-byte request
// crosses in MaxTransfer segments of one round trip each, and the n
// bytes it moved were copied twice.
func (f *FS) moved(req, n int) {
	segments := int64(1)
	if req > 0 {
		segments = int64((req + MaxTransfer - 1) / MaxTransfer)
	}
	f.cross(2 * segments)
	f.Metrics.BytesCopied.Add(2 * int64(n))
}

// Open implements posix.FS.
func (f *FS) Open(path string, flags int, mode uint32) (int, error) {
	if err := f.enter(path); err != nil {
		return -1, err
	}
	return f.d.Open(path, flags, mode)
}

// Close implements posix.FS.
func (f *FS) Close(fd int) error {
	f.cross(2)
	return f.d.Close(fd)
}

// Read implements posix.FS, segmenting at MaxTransfer per kernel trip.
func (f *FS) Read(fd int, p []byte) (int, error) {
	n, err := f.d.Read(fd, p)
	f.moved(len(p), n)
	return n, err
}

// Write implements posix.FS, segmenting at MaxTransfer per kernel trip.
func (f *FS) Write(fd int, p []byte) (int, error) {
	n, err := f.d.Write(fd, p)
	f.moved(len(p), n)
	return n, err
}

// Pread implements posix.FS, segmenting at MaxTransfer per kernel trip.
func (f *FS) Pread(fd int, p []byte, off int64) (int, error) {
	n, err := f.d.Pread(fd, p, off)
	f.moved(len(p), n)
	return n, err
}

// Pwrite implements posix.FS, segmenting at MaxTransfer per kernel trip.
func (f *FS) Pwrite(fd int, p []byte, off int64) (int, error) {
	n, err := f.d.Pwrite(fd, p, off)
	f.moved(len(p), n)
	return n, err
}

// Lseek implements posix.FS. Seeks are resolved in the VFS against the
// kernel-held offset; only SEEK_END needs a getattr round trip.
func (f *FS) Lseek(fd int, offset int64, whence int) (int64, error) {
	if whence == posix.SEEK_END {
		f.cross(2)
	}
	return f.d.Lseek(fd, offset, whence)
}

// Fsync implements posix.FS.
func (f *FS) Fsync(fd int) error {
	f.cross(2)
	return f.d.Fsync(fd)
}

// Ftruncate implements posix.FS.
func (f *FS) Ftruncate(fd int, size int64) error {
	f.cross(2)
	return f.d.Ftruncate(fd, size)
}

// Fstat implements posix.FS.
func (f *FS) Fstat(fd int) (posix.Stat, error) {
	f.cross(2)
	return f.d.Fstat(fd)
}

// Stat implements posix.FS.
func (f *FS) Stat(path string) (posix.Stat, error) {
	if err := f.enter(path); err != nil {
		return posix.Stat{}, err
	}
	return f.d.Stat(path)
}

// Truncate implements posix.FS.
func (f *FS) Truncate(path string, size int64) error {
	if err := f.enter(path); err != nil {
		return err
	}
	return f.d.Truncate(path, size)
}

// Unlink implements posix.FS.
func (f *FS) Unlink(path string) error {
	if err := f.enter(path); err != nil {
		return err
	}
	return f.d.Unlink(path)
}

// Mkdir implements posix.FS.
func (f *FS) Mkdir(path string, mode uint32) error {
	if err := f.enter(path); err != nil {
		return err
	}
	return f.d.Mkdir(path, mode)
}

// Rmdir implements posix.FS.
func (f *FS) Rmdir(path string) error {
	if err := f.enter(path); err != nil {
		return err
	}
	return f.d.Rmdir(path)
}

// Readdir implements posix.FS; containers list as files.
func (f *FS) Readdir(path string) ([]posix.DirEntry, error) {
	if err := f.enter(path); err != nil {
		return nil, err
	}
	return f.d.Readdir(path)
}

// Rename implements posix.FS.
func (f *FS) Rename(oldpath, newpath string) error {
	if err := f.enter(oldpath, newpath); err != nil {
		return err
	}
	return f.d.Rename(oldpath, newpath)
}

// Access implements posix.FS.
func (f *FS) Access(path string, mode int) error {
	if err := f.enter(path); err != nil {
		return err
	}
	return f.d.Access(path, mode)
}

var _ posix.FS = (*FS)(nil)
