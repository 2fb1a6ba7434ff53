// Package fuse emulates the PLFS FUSE deployment path: the LDPLFS shim
// (internal/core) behind a mount boundary and a meter. The daemon's
// POSIX→PLFS translation is the shim's own — descriptors, file pointers
// and the container-or-plain rules all live there — and this package adds
// only what a kernel mount adds, as one hook interposed on the shim
// (posix.Interpose): paths outside the mount do not exist, and every
// operation crosses user→kernel→daemon with its payload copied twice, in
// MaxTransfer segments. Metrics counts those crossings and copies; what
// they cost in time — why the FUSE bars are the slowest in Figure 3 of
// the paper — is the model in internal/fsim, not this package.
package fuse

import (
	"sync/atomic"

	"ldplfs/internal/core"
	"ldplfs/internal/iostats"
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
	// Ops counts FUSE operations: one per call, whatever its segments.
	Ops atomic.Int64
}

// FS is a mounted PLFS-FUSE file system. Paths under the mount point map
// to PLFS containers in the backend directory; everything else is ENOENT
// — a FUSE mount only exposes its own tree.
type FS struct {
	*posix.Interposer // the shim, behind the kernel hook
	mount             core.Mount
	plfs              *plfs.FS
	err               error // why the mount failed; every path operation reports it

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
// values. A mount that fails interposes over inner itself, and refuses
// every path with its error, so no descriptor can ever be opened.
func Mount(inner posix.FS, mountPoint, backendDir string, opts ...plfs.Option) *FS {
	f := &FS{
		mount: core.NewMount(mountPoint, backendDir),
		plfs:  plfs.New(inner, opts...),
	}
	daemon := inner
	shim, err := core.New(inner, core.Config{Mounts: []core.Mount{f.mount}, Pid: nextWriterID.Add(1), Plfs: f.plfs})
	if f.err = err; err == nil {
		daemon = shim
	}
	f.Interposer = posix.Interpose(daemon, kernel{f})
	return f
}

// Plfs returns the PLFS instance behind the mount.
func (f *FS) Plfs() *plfs.FS { return f.plfs }

// cross records n kernel round trips for op accounting.
func (f *FS) cross(n int64) {
	f.Metrics.Crossings.Add(n)
	f.Metrics.Ops.Add(1)
}

// kernel is the mount boundary as a hook: what every operation costs in
// crossings and copies, and which paths exist at all.
type kernel struct{ f *FS }

func isData(op posix.Op) bool { return op.Class == iostats.Read || op.Class == iostats.Write }

// Before charges every non-data op one request/reply round trip, and
// refuses a path outside the mount: it does not exist.
func (k kernel) Before(op posix.Op) (posix.Op, error) {
	if isData(op) {
		return op, nil
	}
	k.f.cross(2)
	if op.FD >= 0 {
		return op, nil
	}
	if k.f.err != nil {
		return op, k.f.err
	}
	if _, ok := k.f.mount.Resolve(op.Path); !ok {
		return op, posix.ENOENT
	}
	return op, nil
}

// After charges a data op its request in MaxTransfer segments of one
// round trip each, and the n bytes it moved copied twice. Close, which
// never runs Before, is charged its round trip here.
func (k kernel) After(op posix.Op, n int64, _ error) {
	switch {
	case isData(op):
		segments := int64(1)
		if op.Bytes > 0 {
			segments = (op.Bytes + MaxTransfer - 1) / MaxTransfer
		}
		k.f.cross(2 * segments)
		k.f.Metrics.BytesCopied.Add(2 * n)
	case op.Call == posix.CallClose:
		k.f.cross(2)
	}
}

// Lseek implements posix.FS. Seeks are resolved in the VFS against the
// kernel-held offset; only SEEK_END needs a getattr round trip.
func (f *FS) Lseek(fd int, offset int64, whence int) (int64, error) {
	if whence == posix.SEEK_END {
		f.cross(2)
	}
	return f.Interposer.Lseek(fd, offset, whence)
}

// Rename implements posix.FS. The hook sees only the old path, so the
// new one is held to the mount here, after the mount's own error.
func (f *FS) Rename(oldpath, newpath string) error {
	if _, ok := f.mount.Resolve(newpath); ok || f.err != nil {
		return f.Interposer.Rename(oldpath, newpath)
	}
	f.cross(2)
	return posix.ENOENT
}

var _ posix.FS = (*FS)(nil)
