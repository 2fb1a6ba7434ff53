// Package iostats is the unified I/O telemetry plane: every layer of
// the stack (posix backends, the PLFS read/write engines, the shared
// read caches, the MPI-IO collective path, the iotrace recorder)
// reports through one Collector instead of growing its own ad-hoc
// stats struct.
//
// The design goals, in order:
//
//   - Pay-for-what-you-touch. A layer holds a *LayerStats handle; nil
//     means telemetry is off and every recording call is a single nil
//     check. No layer ever branches on a config flag.
//   - Low overhead when on. Counters are sharded across padded cache
//     lines (writers on different Ps rarely contend on one word), and
//     histograms are fixed power-of-two buckets — one bits.Len64 and
//     one atomic add per observation, no allocation, no locks.
//   - One vocabulary. Every operation is classified into the small Op
//     set (open/read/write/sync/meta) with bytes, latency and errors;
//     layer-specific quantities (cache hits, shim passthroughs, ...)
//     are named counters registered on the layer.
//
// A Plane is the concrete Collector: a named set of layers, snapshotted
// atomically-enough for dashboards (`plfsctl stats`, the CLIs' -stats
// flag) and consumed online by the gateway's QoS governor (an
// internal/tune controller), which steers background tenants' rate
// caps from the byte counters alone — the PAIO "stage-based
// instrumentation" idea crossed with IOPathTune's observe-only tuning
// loop.
package iostats

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Op classifies an operation for the per-layer breakdown.
type Op int

// Operation classes. Meta covers the long tail (stat, unlink, mkdir,
// readdir, rename, truncate, access, close).
const (
	Open Op = iota
	Read
	Write
	Sync
	Meta
	NumOps
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Open:
		return "open"
	case Read:
		return "read"
	case Write:
		return "write"
	case Sync:
		return "sync"
	case Meta:
		return "meta"
	}
	return "?"
}

// counterShards is the fan-out of one Counter. Power of two.
const counterShards = 8

type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte // pad to a cache line so shards never false-share
}

// Counter is a sharded atomic counter: adds land on one of
// counterShards padded cells picked by the caller's stack address, so
// goroutines on different stacks (hence usually different Ps) do not
// fight over one cache line. Load folds the shards. The zero value is
// ready to use.
type Counter struct {
	shards [counterShards]paddedInt64
}

// NewCounter returns a standalone counter (not registered on any
// layer). Layers hand out registered counters via LayerStats.Counter.
func NewCounter() *Counter { return &Counter{} }

// shardIdx picks a shard from the address of a stack local: distinct
// goroutines live on distinct stacks, so the mixed bits spread their
// adds across shards without any per-goroutine state.
func shardIdx() int {
	var probe byte
	p := uintptr(unsafe.Pointer(&probe))
	return int((p>>10)^(p>>17)) & (counterShards - 1)
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.shards[shardIdx()].v.Add(n)
}

// Load returns the current total.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// histBuckets bounds the power-of-two histograms: bucket i counts
// values v with bits.Len64(v) == i (so bucket 11 is 1 KiB..2 KiB-1);
// the last bucket absorbs everything larger (>= 2^38 ns is ~4.5 min,
// >= 2^38 bytes is 256 GiB — beyond anything this stack produces).
const histBuckets = 39

// Hist is a fixed-bucket power-of-two histogram. The zero value is
// ready to use.
type Hist struct {
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (v <= 0 lands in bucket 0).
func (h *Hist) Observe(v int64) {
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.buckets[i].Add(1)
}

// snapshot copies the buckets.
func (h *Hist) snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	return s
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Buckets [histBuckets]int64
	Count   int64
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// top of the bucket the q-th observation falls in. Zero observations
// return 0.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen >= rank {
			if i == 0 {
				return 0
			}
			return 1 << uint(i) // upper bound of bucket i
		}
	}
	return 1 << uint(histBuckets)
}

// opStats is the per-(layer, op) record.
type opStats struct {
	count Counter
	errs  Counter
	bytes Counter
	lat   Hist // nanoseconds
	size  Hist // bytes per op (only ops that moved bytes)
}

// LayerStats is one instrumented stage of the I/O path. All methods
// are safe for concurrent use and safe on a nil receiver (telemetry
// off): a nil handle records nothing and costs one branch.
type LayerStats struct {
	name string
	ops  [NumOps]opStats

	mu       sync.Mutex
	counters map[string]*Counter
}

// NewLayerStats returns a standalone layer, not attached to any Plane
// — for components that keep their own counters regardless of whether
// an operator wired up a collector (the plfs index cache, an mpiio file).
func NewLayerStats(name string) *LayerStats {
	return &LayerStats{name: name, counters: make(map[string]*Counter)}
}

// Name returns the layer name ("" on nil).
func (l *LayerStats) Name() string {
	if l == nil {
		return ""
	}
	return l.name
}

// Start samples the clock for a latency measurement. On a nil layer it
// returns the zero time without touching the clock, so disabled
// telemetry never pays for time.Now.
func (l *LayerStats) Start() time.Time {
	if l == nil {
		return time.Time{}
	}
	return time.Now()
}

// End records one completed operation: count, bytes moved (negative
// is recorded as zero), latency since start (skipped when start is
// zero) and the error outcome.
func (l *LayerStats) End(op Op, bytes int64, start time.Time, err error) {
	if l == nil {
		return
	}
	s := &l.ops[op]
	s.count.Add(1)
	if err != nil {
		s.errs.Add(1)
	}
	if bytes > 0 {
		s.bytes.Add(bytes)
		s.size.Observe(bytes)
	}
	if !start.IsZero() {
		s.lat.Observe(int64(time.Since(start)))
	}
}

// Add records one operation without a latency sample.
func (l *LayerStats) Add(op Op, bytes int64) { l.End(op, bytes, time.Time{}, nil) }

// OpCount returns the operation count for op.
func (l *LayerStats) OpCount(op Op) int64 {
	if l == nil {
		return 0
	}
	return l.ops[op].count.Load()
}

// OpBytes returns the bytes moved by op.
func (l *LayerStats) OpBytes(op Op) int64 {
	if l == nil {
		return 0
	}
	return l.ops[op].bytes.Load()
}

// OpErrors returns the error count for op.
func (l *LayerStats) OpErrors(op Op) int64 {
	if l == nil {
		return 0
	}
	return l.ops[op].errs.Load()
}

// Counter returns (registering on first use) the named layer counter.
// On a nil layer it returns a standalone counter, so callers can grab
// their counters once at construction and use them unconditionally.
func (l *LayerStats) Counter(name string) *Counter {
	if l == nil {
		return NewCounter()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.counters == nil {
		l.counters = make(map[string]*Counter)
	}
	c, ok := l.counters[name]
	if !ok {
		c = NewCounter()
		l.counters[name] = c
	}
	return c
}

// snapshot renders the layer.
func (l *LayerStats) snapshot() LayerSnapshot {
	s := LayerSnapshot{Name: l.name}
	for op := Op(0); op < NumOps; op++ {
		o := &l.ops[op]
		count := o.count.Load()
		if count == 0 {
			continue
		}
		s.Ops = append(s.Ops, OpSnapshot{
			Op:     op.String(),
			Count:  count,
			Errors: o.errs.Load(),
			Bytes:  o.bytes.Load(),
			Lat:    o.lat.snapshot(),
			Size:   o.size.snapshot(),
		})
	}
	l.mu.Lock()
	names := make([]string, 0, len(l.counters))
	for name := range l.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: l.counters[name].Load()})
	}
	l.mu.Unlock()
	return s
}

// Collector is the plane's registration interface: an instrumented
// layer asks for its handle once and records through it thereafter.
// Asking twice for one name returns the same handle, so layers
// instantiated per rank (or per FS instance) over one plane aggregate
// into one view.
type Collector interface {
	// Layer returns the stats handle for the named layer, creating it
	// on first use.
	Layer(name string) *LayerStats
}

// Plane is the concrete Collector: a registry of layers in
// registration order.
type Plane struct {
	mu     sync.Mutex
	layers map[string]*LayerStats
	order  []string
}

// NewPlane returns an empty telemetry plane.
func NewPlane() *Plane {
	return &Plane{layers: make(map[string]*LayerStats)}
}

// Layer implements Collector. Like the LayerStats handles it returns,
// it is nil-receiver safe: a nil *Plane (telemetry off) yields a nil
// handle — important because a typed-nil *Plane stored in a Collector
// interface still dispatches here.
func (p *Plane) Layer(name string) *LayerStats {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	l, ok := p.layers[name]
	if !ok {
		l = NewLayerStats(name)
		p.layers[name] = l
		p.order = append(p.order, name)
	}
	return l
}

// Snapshot captures every layer. Counters are read without a global
// pause, so a snapshot taken under load is consistent per counter, not
// across counters — fine for dashboards, which is what it is for.
func (p *Plane) Snapshot() Snapshot {
	p.mu.Lock()
	order := append([]string(nil), p.order...)
	layers := make([]*LayerStats, len(order))
	for i, name := range order {
		layers[i] = p.layers[name]
	}
	p.mu.Unlock()
	var s Snapshot
	for _, l := range layers {
		s.Layers = append(s.Layers, l.snapshot())
	}
	return s
}

// Snapshot is a point-in-time copy of a Plane.
type Snapshot struct {
	Layers []LayerSnapshot
}

// LayerSnapshot is one layer's copy: per-op rows (ops with zero count
// omitted) plus named counters in name order.
type LayerSnapshot struct {
	Name     string
	Ops      []OpSnapshot
	Counters []CounterSnapshot
}

// OpSnapshot is one (layer, op) row.
type OpSnapshot struct {
	Op     string
	Count  int64
	Errors int64
	Bytes  int64
	Lat    HistSnapshot
	Size   HistSnapshot
}

// CounterSnapshot is one named layer counter.
type CounterSnapshot struct {
	Name  string
	Value int64
}

// Format renders the snapshot as aligned text, one block per layer.
func (s Snapshot) Format(w io.Writer) {
	for i, l := range s.Layers {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "layer %s\n", l.Name)
		for _, o := range l.Ops {
			fmt.Fprintf(w, "  %-6s %8d ops", o.Op, o.Count)
			if o.Bytes > 0 {
				fmt.Fprintf(w, "  %12d bytes", o.Bytes)
			}
			if o.Errors > 0 {
				fmt.Fprintf(w, "  %d errs", o.Errors)
			}
			if o.Lat.Count > 0 {
				fmt.Fprintf(w, "  p50<%v p99<%v",
					time.Duration(o.Lat.Quantile(0.50)), time.Duration(o.Lat.Quantile(0.99)))
			}
			fmt.Fprintln(w)
		}
		for _, c := range l.Counters {
			fmt.Fprintf(w, "  %s = %d\n", c.Name, c.Value)
		}
	}
}

// String renders the snapshot via Format.
func (s Snapshot) String() string {
	var sb strings.Builder
	s.Format(&sb)
	return sb.String()
}
