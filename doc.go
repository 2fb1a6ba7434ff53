// Package ldplfs is a from-scratch Go reproduction of "LDPLFS: Improving
// I/O Performance Without Application Modification" (Wright et al., IPDPS
// Workshops 2012): a dynamically loadable shim that retargets POSIX file
// operations onto the Parallel Log-structured File System, plus every
// substrate the paper's evaluation depends on — PLFS itself, a POSIX VFS
// layer with an interposable symbol table, an in-process MPI runtime, the
// ROMIO MPI-IO stack, a FUSE-path emulator, the three benchmark kernels,
// and queueing models of the Minerva (GPFS) and Sierra (Lustre) platforms
// that regenerate every table and figure.
//
// The module builds with a bare Go 1.24 toolchain: `go build ./...`
// and `go test ./...` cover all packages; CI (.github/workflows/ci.yml)
// adds vet, gofmt, race-detector and benchmark-smoke jobs.
//
// The PLFS read path is a concurrent engine: merged container indexes
// are cached per instance and shared across opens (generation-based
// invalidation plus close-to-open signature revalidation), index
// reconstruction fans out across droppings on a bounded worker pool,
// and each read scatter-gathers its extents with parallel positional
// reads through a capped descriptor cache. See README.md ("The read
// engine") and internal/plfs/readcache.
//
// The write path is its twin, and also one path: File.Write is a
// one-segment File.WriteV. It has per-writer sharded locking (writes
// and syncs for distinct pids proceed fully in parallel under a shared
// container lock), write-behind of small writes (plfs.WriteStage: a
// writer's small appends land as one backend write, ahead of their index
// records), batched index appends (plfs.DefaultIndexBatch), and vectored
// multi-extent writes that land in one pwritev. Partial writes are
// always indexed to exactly the durable prefix, and the writer's cursor
// stops at the last durable byte. See README.md ("The write engine").
//
// Containers can be striped over multiple backends by composing a
// posix.StripedFS and handing it to plfs.New as the backend (the
// -backends CLI flags do exactly that): canonical metadata lives on
// backend 0 while hostdirs — and so data and index droppings —
// distribute across all backends by hostdir number (a writer's hostdir
// is its pid mod 32, a constant), letting both engines aggregate
// bandwidth over independent stores. The one plfs.New option is
// plfs.WithStats.
//
// The metadata path answers PLFS's cold-open wall with a flattened
// global index: the container's resolved extent table persists as a
// checksummed index.flattened.<gen> record (written atomically at
// last-writer close and by plfsctl compact, living with the canonical
// metadata on backend 0) that spells strided patterns as runs — an N-1
// checkpoint's 65 536 extents are 8 (offset, length, stride, count)
// records, the rest single extents — and that a cold Open/Stat expands
// in O(extents), refusing any record whose table would exceed twice the
// raw entries of the droppings beside it, after revalidating the
// record's embedded raw-dropping signature —
// any newer dropping or live writer silently demotes the build to a
// memory-bounded streaming merge (dropping streams whose chunks are
// read and decoded on the worker pool, merged through a loser tree into
// a chunked interval map, replacing slurp-then-sort). Of the ranks that
// close a container at once, one flattens: the flatten's temp name is
// an O_EXCL claim. See README.md ("The flattened global index") and
// internal/plfs/flatten.go for the lifecycle and trust rules.
//
// Telemetry is a single cross-cutting plane (internal/iostats): the
// posix backends (via posix.InstrumentFS, a hook set on the one
// posix.Interpose forwarding table that FaultFS and the iotrace
// recorder hook into too), the PLFS engines and read caches
// (plfs.WithStats), the MPI-IO collective path (mpiio.Hints.Collector)
// and the iotrace recorder all
// report per-op counts, bytes and latency through one *iostats.Plane of
// sharded-atomic counters and fixed-bucket histograms — nil-safe, so a
// nil plane is telemetry off and an uninstrumented stack pays one
// branch per call. The PLFS engines take
// no tuning — their fan-out, batch depth and index batch are constants
// a sweep over the benchmark's workloads settled — the MPI-IO cb_*
// hints are static and agreed across the communicator at open, and an
// IOPathTune-style feedback controller (internal/tune) hill-climbs,
// within hard ladder bounds, the one parameter set that does trade
// online: the gateway's per-tenant rate caps. `plfsctl stats` dumps a
// four-layer snapshot; the workload CLIs take -stats. See README.md
// ("The telemetry plane and online tuning").
//
// The on-disk format is guarded by golden container fixtures for every
// format version (internal/plfs/testdata/golden), native fuzz targets
// over the dropping parser, index merge and flattened record
// (internal/plfs/index), and differential tests proving single- and
// multi-backend instances — with the flattened record trusted, dropped,
// or deliberately stale — read byte-identically. See README.md
// ("Multi-backend striped containers", "Format guardrails").
package ldplfs
