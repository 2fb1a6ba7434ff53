// Configuration surface of a PLFS instance.
//
// The public API is a functional-options constructor over two cohesive
// groups — container geometry (EngineOptions) and telemetry
// (TelemetryOptions):
//
//	p := plfs.New(backend,
//	        plfs.EngineOptions{NumHostdirs: 16},
//	        plfs.WithStats(plane),
//	)
//
// Each group value passed to New replaces that whole group, so a group
// literal reads exactly like the configuration it produces.
//
// What is not here is deliberate. Where a container's bytes live is the
// backend's business: to stripe or replicate across several stores,
// compose a posix.StripedFS (posix.NewStripedFS, posix.NewLayoutFS) and
// pass it as the backend, as every command does. The engines' fan-out,
// their vectored batch depth and the index group-flush threshold are
// constants (see defaultWorkers, DefaultBatchDepth, DefaultIndexBatch),
// each decided by a sweep of its values over every plfsbench workload,
// and the read caches run at readcache.DefaultMaxFDs and
// readcache.DefaultMaxContainers — README "Constants, and why" carries
// the numbers. An instance's last writer to close a container always
// persists a flattened record.
package plfs

import "ldplfs/internal/iostats"

// EngineOptions holds the container geometry. The zero value means
// "defaults".
type EngineOptions struct {
	// NumHostdirs is the number of hostdir buckets per container (PLFS
	// default is 32; tests use fewer to exercise collisions).
	NumHostdirs int
}

// applyOption implements Option: the literal replaces the whole group.
func (o EngineOptions) applyOption(c *Config) { c.Engine = o }

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

// Config is the resolved configuration of an instance: the two groups.
type Config struct {
	Engine    EngineOptions
	Telemetry TelemetryOptions
}

// Option is one configuration item accepted by New: the group structs
// (EngineOptions, TelemetryOptions) and WithStats.
type Option interface {
	applyOption(*Config)
}

// optionFunc adapts a function to the Option interface.
type optionFunc func(*Config)

func (f optionFunc) applyOption(c *Config) { f(c) }

// WithStats attaches the instance to a telemetry plane (see
// TelemetryOptions.Stats).
func WithStats(stats iostats.Collector) Option {
	return optionFunc(func(c *Config) { c.Telemetry.Stats = stats })
}
