// Configuration surface of a PLFS instance.
//
// The public API is a functional-options constructor over four cohesive
// groups — container geometry (EngineOptions), index/cache behavior
// (IndexOptions), telemetry (TelemetryOptions) and multi-backend
// placement (LayoutOptions) — plus the backend stripe set:
//
//	p := plfs.New(backend,
//	        plfs.EngineOptions{NumHostdirs: 16},
//	        plfs.IndexOptions{MaxCachedIndexes: 128},
//	        plfs.WithStats(plane),
//	)
//
// Each group value passed to New replaces that whole group, so a group
// literal reads exactly like the configuration it produces.
//
// What is not here is deliberate: the engines' fan-out, their vectored
// batch depth and the index group-flush threshold are constants (see
// defaultWorkers, DefaultBatchDepth, DefaultIndexBatch), each decided
// by a sweep of its values over every plfsbench workload — README
// "Constants, and why" carries the numbers.
package plfs

import (
	"time"

	"ldplfs/internal/iostats"
	"ldplfs/internal/posix"
)

// EngineOptions holds the container geometry. The zero value means
// "defaults".
type EngineOptions struct {
	// NumHostdirs is the number of hostdir buckets per container (PLFS
	// default is 32; tests use fewer to exercise collisions).
	NumHostdirs int
}

// applyOption implements Option: the literal replaces the whole group.
func (o EngineOptions) applyOption(c *Config) { c.Engine = o }

// IndexOptions groups the metadata-path behavior: the shared read
// caches and the flattened-record lifecycle.
type IndexOptions struct {
	// MaxReadFDs caps the shared cache of read-only data-dropping
	// descriptors (0 = readcache.DefaultMaxFDs), pinned by reads in
	// flight and idle together: a read of a container with thousands of
	// historical writers holds no more than this at once.
	MaxReadFDs int

	// MaxCachedIndexes caps how many containers keep a cached merged
	// index (0 = readcache.DefaultMaxContainers).
	MaxCachedIndexes int

	// DisableAutoFlatten stops the instance from persisting a flattened
	// global index record when a container's last writer closes. Reads
	// still trust records written by other instances or plfsctl
	// compact. It trades close cost against the next cold open, and is
	// how tests stage deliberately stale records.
	DisableAutoFlatten bool
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
// structs (EngineOptions, IndexOptions, TelemetryOptions, LayoutOptions),
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
