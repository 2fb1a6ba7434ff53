// Fixture for the bufpool analyzer: pooled-buffer hygiene and
// hot-path allocation discipline.
package a

import "sync"

var pool = sync.Pool{New: func() any {
	b := make([]byte, 1024)
	return &b
}}

// Regression: the Get leaks — the entry never returns to the pool, so
// every call quietly degrades to a heap allocation.
func leak(n int) byte {
	b := pool.Get().(*[]byte) // want `sync\.Pool Get without a matching Put in leak`
	return (*b)[n]
}

// Deferred direct Put is the canonical pairing.
func pairedDefer(n int) byte {
	b := pool.Get().(*[]byte)
	defer pool.Put(b)
	return (*b)[n]
}

// Straight-line Put pairs too.
func pairedInline(n int) byte {
	b := pool.Get().(*[]byte)
	v := (*b)[n]
	pool.Put(b)
	return v
}

// plan mirrors the engine's pooled scratch structs.
type plan struct {
	bufs [][]byte
}

var planPool = sync.Pool{New: func() any { return new(plan) }}

// release is a releasing helper: it contains the Put, so callers that
// defer it are paired.
func (p *plan) release() {
	for i := range p.bufs {
		p.bufs[i] = nil
	}
	planPool.Put(p)
}

// Pairing through the deferred helper — the engine's plan idiom.
func pairedViaHelper() int {
	p := planPool.Get().(*plan)
	defer p.release()
	return len(p.bufs)
}

// Hot-path function by name: a per-call byte-slice allocation on the
// warm read path defeats the alloc budget.
func scatterGather(n int) []byte {
	return make([]byte, n) // want `make\(\[\]byte, \.\.\.\) in engine hot-path scatterGather`
}

// Both violations at once: the vectored-write hot path allocating and
// leaking.
func writeV(n int) []byte {
	b := pool.Get().(*[]byte) // want `sync\.Pool Get without a matching Put in writeV`
	_ = b
	return make([]byte, n) // want `make\(\[\]byte, \.\.\.\) in engine hot-path writeV`
}

// Cold paths may allocate freely.
func coldSetup(n int) []byte {
	return make([]byte, n)
}

// Slice-of-slices headers are not payload allocations.
func planBatches(n int) [][]byte {
	return make([][]byte, n)
}

// The gateway wire's shape. frameBuf is memory one connection reuses
// frame after frame; sized is its grow-on-demand and the one place the
// frame path may allocate — it is not in the hot set, so it passes.
type frameBuf struct{ b []byte }

func (f *frameBuf) sized(n int) []byte {
	if n > cap(f.b) {
		f.b = make([]byte, n)
	}
	return f.b[:n]
}

// A reply rendered in the connection's scratch: no finding.
func ReadRest(in *frameBuf, n int) []byte {
	return in.sized(n)
}

// Regression: the per-op reply buffer the gateway used to allocate —
// four of these per 64 KiB op were 255 KB of garbage per round trip.
func handleFrame(n int) []byte {
	buf := make([]byte, n) // want `make\(\[\]byte, \.\.\.\) in engine hot-path handleFrame`
	return buf
}
