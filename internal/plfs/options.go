// Configuration surface of a PLFS instance.
//
// The public API is a functional-options constructor over four cohesive
// groups — engine fan-out (EngineOptions), index/cache behavior
// (IndexOptions), telemetry (TelemetryOptions) and the online tuner
// (TuneOptions) — plus the backend stripe set:
//
//	p := plfs.New(backend,
//	        plfs.EngineOptions{WriteWorkers: 8, IndexBatch: 512},
//	        plfs.IndexOptions{MaxCachedIndexes: 128},
//	        plfs.WithStats(plane),
//	        plfs.TuneOptions{Enable: true},
//	)
//
// Each group value passed to New replaces that whole group, so a group
// literal reads exactly like the configuration it produces.
package plfs

import (
	"time"

	"ldplfs/internal/iostats"
	"ldplfs/internal/plfs/tune"
	"ldplfs/internal/posix"
)

// EngineOptions groups the data-path knobs of the read and write
// engines: container geometry and the concurrency fan-outs. The zero
// value means "defaults" for every field.
type EngineOptions struct {
	// NumHostdirs is the number of hostdir buckets per container (PLFS
	// default is 32; tests use fewer to exercise collisions).
	NumHostdirs int

	// ReadWorkers bounds the number of concurrent preads one Read
	// scatter-gathers across data droppings. 0 picks a default from
	// GOMAXPROCS; 1 reads extents serially.
	ReadWorkers int

	// IndexWorkers bounds the number of concurrent dropping loads during
	// index reconstruction. 0 picks a default from GOMAXPROCS; 1 loads
	// droppings serially.
	IndexWorkers int

	// WriteWorkers bounds the number of concurrent pwrites one WriteV
	// fans across its segments. 0 picks a default from GOMAXPROCS; 1
	// writes segments serially.
	WriteWorkers int

	// BatchDepth bounds how many physically-contiguous extents the
	// engines coalesce into one vectored backend submission: the read
	// engine groups a scatter-gather's extents by data dropping and
	// issues up to BatchDepth segments per preadv, and WriteV coalesces
	// up to BatchDepth segments per pwritev. 0 picks DefaultBatchDepth;
	// 1 disables coalescing (one backend op per extent).
	BatchDepth int

	// IndexBatch is the group-flush threshold of the per-writer index
	// buffer, in records: once a writer has buffered this many index
	// records they are appended to its index dropping in one backend
	// write (no fsync), so a long run of small writes costs
	// O(writes/batch) index I/Os. 0 picks DefaultIndexBatch; negative
	// disables auto-flushing entirely (records accumulate until
	// Sync/Close/read).
	IndexBatch int
}

// applyOption implements Option: the literal replaces the whole group.
func (o EngineOptions) applyOption(c *Config) { c.Engine = o }

// IndexOptions groups the metadata-path behavior: the shared read
// caches, the streaming merge and the flattened-record lifecycle.
type IndexOptions struct {
	// MaxReadFDs caps the shared cache of read-only data-dropping
	// descriptors (0 = readcache.DefaultMaxFDs). Wide containers with
	// thousands of historical writers stay bounded.
	MaxReadFDs int

	// MaxCachedIndexes caps how many containers keep a cached merged
	// index (0 = readcache.DefaultMaxContainers).
	MaxCachedIndexes int

	// DisableAutoFlatten stops the instance from persisting a flattened
	// global index record when a container's last writer closes. Reads
	// still trust records written by other instances or plfsctl compact
	// (unless DisableFlattenedReads). Used by baselines, and to stage
	// deliberately stale records in tests.
	DisableAutoFlatten bool

	// DisableFlattenedReads makes the read path ignore flattened records
	// entirely — every cold build runs the streaming merge over raw
	// droppings. The setting is only the initial value; it can be toggled
	// on a live instance via SetFlattenedReads.
	DisableFlattenedReads bool

	// MergeChunkRecords bounds the records each dropping stream buffers
	// during the streaming index merge (0 = index.DefaultStreamChunk).
	// Total merge memory is droppings x MergeChunkRecords x EntrySize on
	// top of the result, independent of container history length.
	MergeChunkRecords int
}

// applyOption implements Option.
func (o IndexOptions) applyOption(c *Config) { c.Index = o }

// TelemetryOptions groups the observability wiring.
type TelemetryOptions struct {
	// Stats attaches the instance to a telemetry plane: the engines
	// report per-op counts, bytes and latency to layer "plfs" and the
	// shared index cache registers its counters on layer "readcache".
	// Nil leaves telemetry off; the data paths then pay one nil check
	// per operation and never touch the clock.
	Stats iostats.Collector
}

// applyOption implements Option.
func (o TelemetryOptions) applyOption(c *Config) { c.Telemetry = o }

// TuneOptions groups the online feedback controller
// (internal/plfs/tune).
type TuneOptions struct {
	// Enable starts the controller: ReadWorkers, WriteWorkers and
	// IndexBatch are hill-climbed from observed throughput within fixed
	// bounds (see the ladders in telemetry.go), overriding their static
	// values. Off pins the knobs to the EngineOptions fields.
	Enable bool

	// WindowBytes is the measurement window: the controller
	// re-evaluates after this many bytes have moved through the engines
	// (0 = tune.DefaultWindowBytes). Benchmarks align it with their
	// phase size so every window measures the same mix.
	WindowBytes int64

	// Clock injects the controller's clock (nil = wall clock); tests
	// use tune.ManualClock to drive deterministic climbs.
	Clock tune.Clock
}

// applyOption implements Option.
func (o TuneOptions) applyOption(c *Config) { c.Tune = o }

// LayoutOptions groups the multi-backend placement policy: which layout
// the striped composite runs (see posix.Layout) and how its replica
// read path behaves. It only takes effect together with Config.Backends.
type LayoutOptions struct {
	// Layout is the placement descriptor: "mod-n" (the default, single
	// copy, classic striping) or "replica-R" (each dropping fans out to
	// R of the N backends on write; reads fail over across replicas).
	// New panics on a descriptor that does not parse or that needs more
	// replicas than there are backends — the layout is part of the
	// container's on-disk identity, so a misconfiguration must not
	// silently degrade. Empty means "mod-n".
	Layout string

	// HedgeDeadline, under a replicated layout, races a read against
	// the next replica when the primary has not answered within the
	// deadline (tail-latency hedging). Zero disables hedging; reads
	// then fail over only on error. Size it from the backends' service
	// time — a small multiple of the expected per-op latency.
	HedgeDeadline time.Duration

	// HedgeTimer injects the hedge trigger for deterministic tests
	// (nil = wall timer). See posix.ReplicaOptions.HedgeTimer.
	HedgeTimer func(time.Duration) <-chan time.Time
}

// applyOption implements Option.
func (o LayoutOptions) applyOption(c *Config) { c.Layout = o }

// Config is the resolved configuration of an instance: the four groups
// plus the backend stripe set. A Config is itself an Option (it
// replaces everything), which is how the per-tenant service
// configuration (internal/service) reuses these exact types.
type Config struct {
	Engine    EngineOptions
	Index     IndexOptions
	Telemetry TelemetryOptions
	Tune      TuneOptions
	Layout    LayoutOptions

	// Backends stripes the instance across multiple stores: the canonical
	// container metadata (access marker, version, meta/, openhosts/)
	// lives on Backends[0] and hostdirs — hence data and index droppings
	// — distribute across all of them by hostdir number, so parallel
	// reads and writes aggregate bandwidth over independent backends.
	// When set, the backend argument to New is ignored and the instance
	// runs over posix.NewStripedFS(Backends...). A container must be
	// reopened with the same backend list it was written with.
	Backends []posix.FS
}

// applyOption implements Option.
func (o Config) applyOption(c *Config) { *c = o }

// Option is one configuration item accepted by New. The cohesive group
// structs (EngineOptions, IndexOptions, TelemetryOptions, TuneOptions),
// a whole Config and the functional helpers (WithBackends, WithStats,
// WithLayout) all implement it.
type Option interface {
	applyOption(*Config)
}

// optionFunc adapts a function to the Option interface.
type optionFunc func(*Config)

func (f optionFunc) applyOption(c *Config) { f(c) }

// WithBackends stripes the instance across the listed stores (see
// Config.Backends).
func WithBackends(backends ...posix.FS) Option {
	return optionFunc(func(c *Config) { c.Backends = backends })
}

// WithStats attaches the instance to a telemetry plane (see
// TelemetryOptions.Stats).
func WithStats(stats iostats.Collector) Option {
	return optionFunc(func(c *Config) { c.Telemetry.Stats = stats })
}

// WithLayout selects the multi-backend placement descriptor (see
// LayoutOptions.Layout).
func WithLayout(descriptor string) Option {
	return optionFunc(func(c *Config) { c.Layout.Layout = descriptor })
}
