package posix

import (
	"sync"
	"time"

	"ldplfs/internal/iostats"
)

// Call names the FS method an Op came through.
type Call uint8

// The interposed calls. Lseek is not among them: a pure pointer move,
// it goes straight to the inner FS and no hook sees it.
const (
	CallOpen Call = iota
	CallClose
	CallRead
	CallWrite
	CallPread
	CallPwrite
	CallPreadv
	CallPwritev
	CallFsync
	CallFtruncate
	CallFstat
	CallStat
	CallTruncate
	CallUnlink
	CallMkdir
	CallRmdir
	CallReaddir
	CallRename
	CallAccess
	CallReaddirStat
)

// classOf is the iostats class a call is counted under.
func classOf(c Call) iostats.Op {
	switch c {
	case CallOpen:
		return iostats.Open
	case CallRead, CallPread, CallPreadv:
		return iostats.Read
	case CallWrite, CallPwrite, CallPwritev:
		return iostats.Write
	case CallFsync:
		return iostats.Sync
	}
	return iostats.Meta
}

// Op is one interposed call as a hook sees it, passed by value. The
// interposer fills every field but the last two.
type Op struct {
	Call  Call
	Class iostats.Op // Open, Read, Write, Sync or Meta
	// Path is the operand path. An fd-based op reports the path its fd
	// was opened under; Rename reports the old path.
	Path  string
	FD    int   // -1 for a path op
	Flags int   // Open's flags
	Bytes int64 // bytes asked to move (data ops)
	Segs  int   // buffers carried: 1 for a scalar data op, 0 for the rest
	// Start is when this hook's turn began: its Before and its After
	// see the same instant, so After can time everything inside it.
	Start time.Time

	// Keep, set by a Before that refuses a write, is the byte prefix
	// that still lands — the short-write-then-error shape.
	Keep int64
	// Created, set by a Before, marks an open that creates its file.
	Created bool
}

// Hook is one set of per-op rules an Interposer runs around every call.
type Hook interface {
	// Before runs ahead of the call, outermost hook first. It may delay
	// the op, annotate the copy it returns (the copy its own After
	// gets), or refuse it: a refusal skips the inner call and every
	// hook inside this one.
	Before(op Op) (Op, error)
	// After runs once the op is done or refused, innermost hook first,
	// with the bytes moved and the error the caller gets.
	After(op Op, n int64, err error)
}

// Interposer is the one forwarding table over an inner FS: every FS
// call, Preadv/Pwritev and ReaddirStat, becomes an Op that runs through
// the hooks. Its rules are stated here once. A whole vector is one op,
// and so is a listing with attributes. Close never runs Before, so it
// cannot be refused or delayed. Lseek reaches no hook at all.
type Interposer struct {
	inner FS
	hooks []Hook

	mu  sync.Mutex
	fds map[int]string // open path per fd, for fd-based ops
}

// Interpose wraps inner so every call runs through hooks, outermost
// first. With no hooks it is a pure pass-through.
func Interpose(inner FS, hooks ...Hook) *Interposer {
	return &Interposer{inner: inner, hooks: hooks, fds: make(map[int]string)}
}

// Unwrap exposes the wrapped FS, so capability probes (PLFS's search
// for a StripedFS) see through every hook set.
func (x *Interposer) Unwrap() FS { return x.inner }

// run takes op through hooks[i:] and then call, the inner FS call,
// which is handed the byte count to move: all of op.Bytes, or the Keep
// of a refused write.
func (x *Interposer) run(i int, op Op, call func(limit int64) (int64, error)) (int64, error) {
	if i == len(x.hooks) {
		return call(op.Bytes)
	}
	h := x.hooks[i]
	op.Start = time.Now()
	var err error
	if op.Call != CallClose {
		op, err = h.Before(op)
	}
	var n int64
	if err == nil {
		n, err = x.run(i+1, op, call)
	} else if op.Keep > 0 && op.Class == iostats.Write {
		n, _ = call(min(op.Keep, op.Bytes))
	}
	h.After(op, n, err)
	return n, err
}

// fdOp builds the op of an fd-based call.
func (x *Interposer) fdOp(c Call, fd int) Op {
	x.mu.Lock()
	path := x.fds[fd]
	x.mu.Unlock()
	return Op{Call: c, Class: classOf(c), Path: path, FD: fd}
}

// pathOp builds the op of a path-based call.
func pathOp(c Call, path string) Op {
	return Op{Call: c, Class: classOf(c), Path: path, FD: -1}
}

// meta runs a call that moves no bytes.
func (x *Interposer) meta(op Op, call func() error) error {
	_, err := x.run(0, op, func(int64) (int64, error) { return 0, call() })
	return err
}

// scalar runs a data call on one buffer.
func (x *Interposer) scalar(c Call, fd int, p []byte, call func(limit int64) (int, error)) (int, error) {
	op := x.fdOp(c, fd)
	op.Bytes, op.Segs = int64(len(p)), 1
	n, err := x.run(0, op, func(limit int64) (int64, error) {
		n, err := call(limit)
		return int64(n), err
	})
	return int(n), err
}

// vector runs a data call on a buffer list: one op, whatever its length.
func (x *Interposer) vector(c Call, fd int, bufs [][]byte, call func(limit int64) (int64, error)) (int64, error) {
	op := x.fdOp(c, fd)
	op.Bytes, op.Segs = vectorLen(bufs), len(bufs)
	return x.run(0, op, call)
}

// prefix cuts bufs to their first n bytes, spanning buffer boundaries,
// without touching the caller's list.
func prefix(bufs [][]byte, n int64) [][]byte {
	for i, b := range bufs {
		if n < int64(len(b)) {
			return append(bufs[:i:i], b[:n])
		}
		n -= int64(len(b))
	}
	return bufs
}

// Open implements FS.
func (x *Interposer) Open(path string, flags int, mode uint32) (fd int, err error) {
	op := pathOp(CallOpen, path)
	op.Flags = flags
	fd = -1
	err = x.meta(op, func() (err error) {
		if fd, err = x.inner.Open(path, flags, mode); err == nil {
			x.mu.Lock()
			x.fds[fd] = path
			x.mu.Unlock()
		}
		return err
	})
	return fd, err
}

// Close implements FS.
func (x *Interposer) Close(fd int) error {
	return x.meta(x.fdOp(CallClose, fd), func() error {
		x.mu.Lock()
		delete(x.fds, fd)
		x.mu.Unlock()
		return x.inner.Close(fd)
	})
}

// Read implements FS.
func (x *Interposer) Read(fd int, p []byte) (int, error) {
	return x.scalar(CallRead, fd, p, func(int64) (int, error) { return x.inner.Read(fd, p) })
}

// Write implements FS.
func (x *Interposer) Write(fd int, p []byte) (int, error) {
	return x.scalar(CallWrite, fd, p, func(limit int64) (int, error) { return x.inner.Write(fd, p[:limit]) })
}

// Pread implements FS.
func (x *Interposer) Pread(fd int, p []byte, off int64) (int, error) {
	return x.scalar(CallPread, fd, p, func(int64) (int, error) { return x.inner.Pread(fd, p, off) })
}

// Pwrite implements FS.
func (x *Interposer) Pwrite(fd int, p []byte, off int64) (int, error) {
	return x.scalar(CallPwrite, fd, p, func(limit int64) (int, error) { return x.inner.Pwrite(fd, p[:limit], off) })
}

// Preadv implements VectorFS.
func (x *Interposer) Preadv(fd int, bufs [][]byte, off int64) (int64, error) {
	return x.vector(CallPreadv, fd, bufs, func(int64) (int64, error) { return Preadv(x.inner, fd, bufs, off) })
}

// Pwritev implements VectorFS.
func (x *Interposer) Pwritev(fd int, bufs [][]byte, off int64) (int64, error) {
	return x.vector(CallPwritev, fd, bufs, func(limit int64) (int64, error) {
		return Pwritev(x.inner, fd, prefix(bufs, limit), off)
	})
}

// Lseek implements FS, out of every hook's sight.
func (x *Interposer) Lseek(fd int, offset int64, whence int) (int64, error) {
	return x.inner.Lseek(fd, offset, whence)
}

// Fsync implements FS.
func (x *Interposer) Fsync(fd int) error {
	return x.meta(x.fdOp(CallFsync, fd), func() error { return x.inner.Fsync(fd) })
}

// Ftruncate implements FS.
func (x *Interposer) Ftruncate(fd int, size int64) error {
	return x.meta(x.fdOp(CallFtruncate, fd), func() error { return x.inner.Ftruncate(fd, size) })
}

// Fstat implements FS.
func (x *Interposer) Fstat(fd int) (st Stat, err error) {
	err = x.meta(x.fdOp(CallFstat, fd), func() (err error) { st, err = x.inner.Fstat(fd); return err })
	return st, err
}

// Stat implements FS.
func (x *Interposer) Stat(path string) (st Stat, err error) {
	err = x.meta(pathOp(CallStat, path), func() (err error) { st, err = x.inner.Stat(path); return err })
	return st, err
}

// Truncate implements FS.
func (x *Interposer) Truncate(path string, size int64) error {
	return x.meta(pathOp(CallTruncate, path), func() error { return x.inner.Truncate(path, size) })
}

// Unlink implements FS.
func (x *Interposer) Unlink(path string) error {
	return x.meta(pathOp(CallUnlink, path), func() error { return x.inner.Unlink(path) })
}

// Mkdir implements FS.
func (x *Interposer) Mkdir(path string, mode uint32) error {
	return x.meta(pathOp(CallMkdir, path), func() error { return x.inner.Mkdir(path, mode) })
}

// Rmdir implements FS.
func (x *Interposer) Rmdir(path string) error {
	return x.meta(pathOp(CallRmdir, path), func() error { return x.inner.Rmdir(path) })
}

// Readdir implements FS.
func (x *Interposer) Readdir(path string) (ents []DirEntry, err error) {
	err = x.meta(pathOp(CallReaddir, path), func() (err error) { ents, err = x.inner.Readdir(path); return err })
	return ents, err
}

// ReaddirStat implements StatDirFS: one meta op, whether or not the
// inner FS lists with attributes itself.
func (x *Interposer) ReaddirStat(path string) (ents []DirEntryStat, err error) {
	err = x.meta(pathOp(CallReaddirStat, path), func() (err error) { ents, err = ReaddirStat(x.inner, path); return err })
	return ents, err
}

// Rename implements FS.
func (x *Interposer) Rename(oldpath, newpath string) error {
	return x.meta(pathOp(CallRename, oldpath), func() error { return x.inner.Rename(oldpath, newpath) })
}

// Access implements FS.
func (x *Interposer) Access(path string, mode int) error {
	return x.meta(pathOp(CallAccess, path), func() error { return x.inner.Access(path, mode) })
}

var _ FS = (*Interposer)(nil)
var _ VectorFS = (*Interposer)(nil)
var _ StatDirFS = (*Interposer)(nil)
