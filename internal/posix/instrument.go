package posix

import "ldplfs/internal/iostats"

// InstrumentOption configures an InstrumentFS.
type InstrumentOption func(*InstrumentFS)

// WithLayerName overrides the layer the wrapper reports to (default
// "posix") — so several instrumented stores on one plane stay apart.
func WithLayerName(name string) InstrumentOption {
	return func(f *InstrumentFS) { f.layerName = name }
}

// InstrumentFS wraps an FS and reports every operation — count, bytes,
// latency, errors — to one layer of an iostats plane. It composes like
// FaultFS and StripedFS: wrap the backend before handing it to PLFS
// (or to the dispatch) and the whole stack above it is measured
// without touching a line of it, the LD_PRELOAD trick applied to
// telemetry. It is a hook set on an Interposer: one After per op, so a
// refused op is still counted (as an error) by an instrument outside
// the refusing hook. Lseek is not counted; Close is counted as meta.
type InstrumentFS struct {
	*Interposer
	ls        *iostats.LayerStats
	layerName string

	// Syscall-economy counters, cached at construction so the data path
	// never takes the layer's registry lock: backendOps counts data
	// operations issued to the inner FS's level (a vectored op is one),
	// vectorSegments counts the logical segments they carried (a scalar
	// op is one). segments/ops is the measured batching factor.
	backendOps     *iostats.Counter
	vectorSegments *iostats.Counter
}

// NewInstrumentFS wraps inner, reporting to c's "posix" layer (or the
// WithLayerName override). With a nil c it only forwards.
func NewInstrumentFS(inner FS, c *iostats.Plane, opts ...InstrumentOption) *InstrumentFS {
	f := &InstrumentFS{layerName: "posix"}
	for _, o := range opts {
		o(f)
	}
	f.ls = c.Layer(f.layerName)
	// Counter is nil-safe on a nil layer (returns a standalone counter),
	// so the handles are always usable.
	f.backendOps = f.ls.Counter("backend_ops")
	f.vectorSegments = f.ls.Counter("vector_segments")
	f.Interposer = Interpose(inner, instrumentHook{f})
	return f
}

// Stats returns the layer handle the wrapper reports to (nil when no
// plane was attached).
func (f *InstrumentFS) Stats() *iostats.LayerStats { return f.ls }

// instrumentHook is InstrumentFS's hook on its Interposer.
type instrumentHook struct{ f *InstrumentFS }

// Before admits every op untouched.
func (instrumentHook) Before(op Op) (Op, error) { return op, nil }

// After records the op on the layer and, for a data op, counts one
// backend operation carrying op.Segs logical segments.
func (h instrumentHook) After(op Op, n int64, err error) {
	h.f.ls.End(op.Class, n, op.Start, err)
	if op.Class == iostats.Read || op.Class == iostats.Write {
		h.f.backendOps.Add(1)
		h.f.vectorSegments.Add(int64(op.Segs))
	}
}
