package posix

import (
	"sync"
	"time"

	"ldplfs/internal/iostats"
)

// OpEvent is one operation as seen by an InstrumentFS observer — the
// semantic stream iotrace builds its per-path analysis on. Events
// follow the recorder conventions this repository has used since the
// tracing work: reads and writes are emitted only when bytes moved,
// opens only on success, meta operations unconditionally.
type OpEvent struct {
	// Op classifies the operation (iostats vocabulary).
	Op iostats.Op
	// Path is the operand path (an fd-based op reports its open path).
	Path string
	// Bytes is the byte count moved (reads/writes).
	Bytes int64
	// Created marks an Open that created a previously absent file, or
	// a successful Mkdir.
	Created bool
	// Dir marks a directory creation (Mkdir).
	Dir bool
}

// InstrumentOption configures an InstrumentFS.
type InstrumentOption func(*InstrumentFS)

// WithLayerName overrides the layer the wrapper reports to (default
// "posix") — so several instrumented stores on one plane stay apart.
func WithLayerName(name string) InstrumentOption {
	return func(f *InstrumentFS) { f.layerName = name }
}

// WithObserver attaches a per-operation event callback. Observation
// implies per-fd path tracking (and a pre-open stat to classify
// creates), which the counter-only wrapper skips.
func WithObserver(fn func(OpEvent)) InstrumentOption {
	return func(f *InstrumentFS) { f.obs = fn }
}

// InstrumentFS wraps an FS and reports every operation — count, bytes,
// latency, errors — to one layer of an iostats plane. It composes like
// FaultFS and StripedFS: wrap the backend before handing it to PLFS
// (or to the dispatch) and the whole stack above it is measured
// without touching a line of it, the LD_PRELOAD trick applied to
// telemetry.
//
// With a nil collector the wrapper still forwards every call (an
// observer may still be attached); with neither collector nor
// observer it is pure passthrough plus one nil check per call.
type InstrumentFS struct {
	inner     FS
	ls        *iostats.LayerStats
	obs       func(OpEvent)
	layerName string

	// Syscall-economy counters, cached at construction so the data path
	// never takes the layer's registry lock: backendOps counts data
	// operations issued to the inner FS's level (a vectored op is one),
	// vectorSegments counts the logical segments they carried (a scalar
	// op is one). segments/ops is the measured batching factor.
	backendOps     *iostats.Counter
	vectorSegments *iostats.Counter

	mu  sync.Mutex
	fds map[int]string // open path per fd, for event attribution
}

// NewInstrumentFS wraps inner, reporting to c's "posix" layer (or the
// WithLayerName override). c may be nil when only an observer is
// wanted.
func NewInstrumentFS(inner FS, c iostats.Collector, opts ...InstrumentOption) *InstrumentFS {
	f := &InstrumentFS{inner: inner, layerName: "posix"}
	for _, o := range opts {
		o(f)
	}
	if c != nil {
		f.ls = c.Layer(f.layerName)
	}
	// Counter is nil-safe on a nil layer (returns a standalone counter),
	// so the handles are always usable.
	f.backendOps = f.ls.Counter("backend_ops")
	f.vectorSegments = f.ls.Counter("vector_segments")
	if f.obs != nil {
		f.fds = make(map[int]string)
	}
	return f
}

// Stats returns the layer handle the wrapper reports to (nil when no
// collector was attached).
func (f *InstrumentFS) Stats() *iostats.LayerStats { return f.ls }

// Unwrap exposes the wrapped FS, so capability probes (e.g. PLFS's
// striped-backend introspection) can see through the instrumentation
// the same way errors.Unwrap sees through wrapped errors.
func (f *InstrumentFS) Unwrap() FS { return f.inner }

func (f *InstrumentFS) pathOf(fd int) string {
	if f.fds == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fds[fd]
}

// emit sends one event to the observer, if any.
func (f *InstrumentFS) emit(ev OpEvent) {
	if f.obs != nil {
		f.obs(ev)
	}
}

// data is the one epilogue of every data operation: record it on the
// layer, count one backend operation carrying segs logical segments
// (a scalar op is one — segments/ops is the batching the engine
// achieved), and observe it when bytes moved.
func (f *InstrumentFS) data(op iostats.Op, fd, segs int, n int64, start time.Time, err error) {
	f.ls.End(op, n, start, err)
	f.backendOps.Add(1)
	f.vectorSegments.Add(int64(segs))
	if n > 0 {
		f.emit(OpEvent{Op: op, Path: f.pathOf(fd), Bytes: n})
	}
}

// begin opens a meta operation on path: observed unconditionally, then
// timed from the returned instant.
func (f *InstrumentFS) begin(path string) time.Time {
	f.emit(OpEvent{Op: iostats.Meta, Path: path})
	return f.ls.Start()
}

// meta is the one epilogue of every non-data operation: record it under
// op on the layer and hand err back.
func (f *InstrumentFS) meta(op iostats.Op, start time.Time, err error) error {
	f.ls.End(op, 0, start, err)
	return err
}

// Open implements FS.
func (f *InstrumentFS) Open(path string, flags int, mode uint32) (int, error) {
	created := false
	if f.obs != nil && flags&O_CREAT != 0 {
		// Classify creates the way the tracer always has: O_CREAT of a
		// previously absent path. The probe stat goes straight to the
		// inner FS so it is not counted as workload traffic.
		if _, err := f.inner.Stat(path); err != nil {
			created = true
		}
	}
	start := f.ls.Start()
	fd, err := f.inner.Open(path, flags, mode)
	if f.meta(iostats.Open, start, err) != nil {
		return fd, err
	}
	if f.fds != nil {
		f.mu.Lock()
		f.fds[fd] = path
		f.mu.Unlock()
	}
	f.emit(OpEvent{Op: iostats.Open, Path: path, Created: created})
	return fd, nil
}

// Close implements FS (counted as meta; not observed, matching the
// tracer's event stream).
func (f *InstrumentFS) Close(fd int) error {
	if f.fds != nil {
		f.mu.Lock()
		delete(f.fds, fd)
		f.mu.Unlock()
	}
	start := f.ls.Start()
	return f.meta(iostats.Meta, start, f.inner.Close(fd))
}

// Read implements FS.
func (f *InstrumentFS) Read(fd int, p []byte) (int, error) {
	start := f.ls.Start()
	n, err := f.inner.Read(fd, p)
	f.data(iostats.Read, fd, 1, int64(n), start, err)
	return n, err
}

// Write implements FS.
func (f *InstrumentFS) Write(fd int, p []byte) (int, error) {
	start := f.ls.Start()
	n, err := f.inner.Write(fd, p)
	f.data(iostats.Write, fd, 1, int64(n), start, err)
	return n, err
}

// Pread implements FS.
func (f *InstrumentFS) Pread(fd int, p []byte, off int64) (int, error) {
	start := f.ls.Start()
	n, err := f.inner.Pread(fd, p, off)
	f.data(iostats.Read, fd, 1, int64(n), start, err)
	return n, err
}

// Pwrite implements FS.
func (f *InstrumentFS) Pwrite(fd int, p []byte, off int64) (int, error) {
	start := f.ls.Start()
	n, err := f.inner.Pwrite(fd, p, off)
	f.data(iostats.Write, fd, 1, int64(n), start, err)
	return n, err
}

// Preadv implements VectorFS: one backend operation carrying len(bufs)
// segments.
func (f *InstrumentFS) Preadv(fd int, bufs [][]byte, off int64) (int64, error) {
	start := f.ls.Start()
	n, err := Preadv(f.inner, fd, bufs, off)
	f.data(iostats.Read, fd, len(bufs), n, start, err)
	return n, err
}

// Pwritev implements VectorFS.
func (f *InstrumentFS) Pwritev(fd int, bufs [][]byte, off int64) (int64, error) {
	start := f.ls.Start()
	n, err := Pwritev(f.inner, fd, bufs, off)
	f.data(iostats.Write, fd, len(bufs), n, start, err)
	return n, err
}

// Lseek implements FS (pure client-side: neither counted nor observed).
func (f *InstrumentFS) Lseek(fd int, offset int64, whence int) (int64, error) {
	return f.inner.Lseek(fd, offset, whence)
}

// Fsync implements FS.
func (f *InstrumentFS) Fsync(fd int) error {
	start := f.begin(f.pathOf(fd))
	return f.meta(iostats.Sync, start, f.inner.Fsync(fd))
}

// Ftruncate implements FS.
func (f *InstrumentFS) Ftruncate(fd int, size int64) error {
	start := f.begin(f.pathOf(fd))
	return f.meta(iostats.Meta, start, f.inner.Ftruncate(fd, size))
}

// Fstat implements FS.
func (f *InstrumentFS) Fstat(fd int) (Stat, error) {
	start := f.begin(f.pathOf(fd))
	st, err := f.inner.Fstat(fd)
	return st, f.meta(iostats.Meta, start, err)
}

// Stat implements FS.
func (f *InstrumentFS) Stat(path string) (Stat, error) {
	start := f.begin(path)
	st, err := f.inner.Stat(path)
	return st, f.meta(iostats.Meta, start, err)
}

// Truncate implements FS.
func (f *InstrumentFS) Truncate(path string, size int64) error {
	start := f.begin(path)
	return f.meta(iostats.Meta, start, f.inner.Truncate(path, size))
}

// Unlink implements FS.
func (f *InstrumentFS) Unlink(path string) error {
	start := f.begin(path)
	return f.meta(iostats.Meta, start, f.inner.Unlink(path))
}

// Mkdir implements FS (observed, on success only, as the creation of a
// directory rather than as a meta op).
func (f *InstrumentFS) Mkdir(path string, mode uint32) error {
	start := f.ls.Start()
	err := f.meta(iostats.Meta, start, f.inner.Mkdir(path, mode))
	if err == nil {
		f.emit(OpEvent{Op: iostats.Open, Path: path, Created: true, Dir: true})
	}
	return err
}

// Rmdir implements FS.
func (f *InstrumentFS) Rmdir(path string) error {
	start := f.begin(path)
	return f.meta(iostats.Meta, start, f.inner.Rmdir(path))
}

// Readdir implements FS.
func (f *InstrumentFS) Readdir(path string) ([]DirEntry, error) {
	start := f.begin(path)
	entries, err := f.inner.Readdir(path)
	return entries, f.meta(iostats.Meta, start, err)
}

// Rename implements FS.
func (f *InstrumentFS) Rename(oldpath, newpath string) error {
	start := f.begin(oldpath)
	return f.meta(iostats.Meta, start, f.inner.Rename(oldpath, newpath))
}

// Access implements FS.
func (f *InstrumentFS) Access(path string, mode int) error {
	start := f.begin(path)
	return f.meta(iostats.Meta, start, f.inner.Access(path, mode))
}

var _ FS = (*InstrumentFS)(nil)
var _ VectorFS = (*InstrumentFS)(nil)
