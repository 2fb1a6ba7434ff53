// Configuration surface of a PLFS instance.
//
// An instance takes one option, the telemetry wiring:
//
//	p := plfs.New(backend, plfs.WithStats(plane))
//
// Everything else is a constant. A container has defaultHostdirs (32,
// the PLFS default) hostdir buckets, and a writer's bucket is its pid
// mod 32: every instance that writes or reads a container agrees on the
// geometry without being told. Where a container's bytes live is the
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

// defaultHostdirs is the number of hostdir buckets per container. In-package
// tests stage another geometry by setting FS.hostdirs on a fresh instance.
const defaultHostdirs = 32

// Option is one configuration item accepted by New. WithStats is the
// only one.
type Option func(*FS)

// WithStats attaches the instance to a telemetry plane: the engines
// report per-op counts, bytes and latency to layer "plfs" and the
// shared index cache registers its counters on layer "readcache".
// Without it, or with a nil plane, telemetry is off; the data paths then pay one nil check
// per operation and never touch the clock.
func WithStats(stats *iostats.Plane) Option {
	return func(p *FS) {
		p.stats = stats.Layer("plfs")
		p.cacheLayer = stats.Layer("readcache")
	}
}
