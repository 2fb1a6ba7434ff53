// Package plfs is a from-scratch implementation of the Parallel
// Log-structured File System's user-level library (Bent et al., SC'09) —
// the substrate LDPLFS retargets POSIX calls onto.
//
// A PLFS "file" is really a container directory:
//
//	file/                      <- the path the application sees
//	  .plfsaccess              <- marker distinguishing containers from dirs
//	  version
//	  meta/                    <- per-writer size hints dropped at close
//	  hostdir.K/               <- one bucket per host (hash of writer id)
//	    dropping.data.<pid>    <- log-structured payload, append-only
//	    dropping.index.<pid>   <- index records mapping logical->physical
//
// Every writer appends payload to its own data dropping — an N-process
// write to one logical file becomes N independent file streams (file
// partitioning) and every write is sequential in its dropping (the log
// structure). Reads merge all index droppings into a global index
// (internal/plfs/index) and scatter-gather from the data droppings.
//
// The API mirrors the C library's plfs_open/plfs_read/plfs_write semantics
// from Listing 1 of the LDPLFS paper: offsets are explicit, a writer id
// ("pid") names the dropping, and there is no implicit file pointer — that
// bookkeeping is exactly what LDPLFS (internal/core) adds on top.
//
// # One read path, one write path
//
// Every read — Read, ReadV, Size, Stat's slow path — resolves the
// container's merged index through the instance's shared cache
// (internal/plfs/readcache) and, for data, runs the one scatter-gather
// in readengine.go; Read is its one-segment case. Every write — Write,
// WriteV — takes the container lock shared and its pid's writer lock
// (lockWriter), lands payload with positional writes and buffers index
// records per writer. Their fan-out, batch depth and index group-flush
// threshold are fixed when the instance is built (FS.workers,
// batchDepth, indexBatch); nothing selects a different path. Whether a
// gather's batches run inline or across the pool is not a setting
// either: the instance keeps a running mean of what a batch costs on
// its backend and fans out only where a batch outlasts the hand-off
// (runBatches).
//
// The read descriptors follow one rule: a plan pins what it reads; the
// cache evicts only idle descriptors, oldest plan first. So a gather
// reads a dropping through one descriptor held from that dropping's
// first pread to its last and never closes one it has yet to read
// through; a plan wider than the shared cache's cap
// (readcache.FDCache, IndexOptions.MaxReadFDs) goes a round at a time,
// cached droppings first, so the cap bounds what a read holds however
// wide the container, and a scan reopens only what it is over the cap
// by.
//
// # Handles
//
// Droppings are named per pid, so the append cursor and index buffer
// that feed them exist once per pid: an instance keeps one record per
// container it has open (FS.containers) holding the pid → writer table,
// and a File is a view over that record — its own flags and freshness
// mark, nothing else. The paper's shim hands out one Plfs_fd per open(),
// so several handles on one container, even of one pid, are ordinary
// traffic. Three rules:
//
//  1. A pid has one writer per container per instance, however many
//     handles it opened. Close(pid) retires that pid's writer — a later
//     write through a surviving handle re-opens it at the dropping's end
//     — and the container's last handle out retires whatever is left and
//     drains the read-fd cache, all under the registry lock, so an Open
//     racing the last Close never inherits half-retired writers.
//  2. A read sees every write the instance has accepted: readIndex
//     flushes each writer holding buffered index records, whichever
//     handle they arrived through.
//  3. Trunc, path Truncate and an O_TRUNC open take exactly one lock:
//     truncateShared holds the record's lock exclusive from the flush to
//     the rebind.
//
// Lock order: FS.hmu (registry) before container.mu before writer.mu.
// Handles held by other FS instances over the same backend are out of
// reach, exactly as other processes are for PLFS proper.
//
// # Tolerance rules
//
// Four degraded states are recoverable by rule, each stated and
// enforced in one place:
//
//   - An index dropping whose tail is a partial record, or that is still
//     shorter than its header, is in flight, not corrupt: readers see its
//     whole records (possibly none) and a resuming writer repairs it.
//     Neither state was ever covered by a successful sync. A full header
//     with a bad magic or version, or a whole record with a bad checksum,
//     is corruption and fails the open. (index.wholeRecords)
//   - Under a replicated layout, a live backend's verdict (ENOENT,
//     EACCES, ...) outranks a dead backend's EIO on every read-side path
//     operation, so a killed replica never turns "absent" into "I/O
//     error". (posix.liveVerdict)
//   - A flattened record is a memo, never an authority: a reader trusts
//     only the newest generation, and only while the record's embedded
//     signature matches the raw droppings as they are now and no writer
//     holds the container open. A stale, torn or corrupt record costs a
//     streaming merge, never wrong bytes. (newestFlattened)
//   - An operation that replaces index droppings — CompactIndex, a
//     partial truncate — may stop at any backend op: the replacement
//     dropping is complete, under a name no source uses, before any
//     source is unlinked, and out-stamps them all. A fresh reader
//     therefore finds a compaction's bytes and size unchanged and a
//     truncate's bytes intact below the smaller size, and running the
//     operation again completes it. (consolidate)
package plfs

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldplfs/internal/iostats"
	idx "ldplfs/internal/plfs/index"
	"ldplfs/internal/plfs/readcache"
	"ldplfs/internal/posix"
)

const (
	accessFile   = ".plfsaccess"
	versionFile  = "version"
	metaDir      = "meta"
	openhostsDir = "openhosts"
	layoutFile   = "layout.desc"
	versionText  = "ldplfs-go plfs container v1\n"
)

// DefaultIndexBatch is the per-writer index group-flush threshold: once
// a writer has buffered this many index records they are appended to
// its index dropping in one backend write (no fsync), so a long run of
// small writes costs O(writes/batch) index I/Os. 512 records is one
// 24 KiB append per flush — large enough to amortize the backend call,
// small enough that a crashed writer loses at most a modest index tail.
const DefaultIndexBatch = 512

// DefaultBatchDepth is the vectored-submission bound: up to 64
// physically-contiguous extents coalesce into one preadv/pwritev. 64
// segments of the common 64 KiB strided block is a 4 MiB submission —
// large enough to collapse a wide N-1 read to one backend op per
// dropping, small enough to keep partial-failure blast radius and
// per-batch latency modest.
const DefaultBatchDepth = 64

// FS is a PLFS library instance bound to a backing store. It is safe for
// concurrent use by multiple goroutines (ranks).
type FS struct {
	backend posix.FS
	cfg     Config
	clock   atomic.Uint64 // container-wide write ordering

	// cache is the shared per-container merged-index cache and fds the
	// shared read-descriptor cache: the read-engine state shared by
	// every File. cacheLayer is where the index cache counts: the
	// collector's "readcache" layer, or a standalone one without.
	cache      *readcache.IndexCache
	cacheLayer *iostats.LayerStats
	fds        *readcache.FDCache

	// containers holds one record per container this instance has open
	// handles on (see "Handles" in the package doc).
	hmu        sync.Mutex
	containers map[string]*container

	// seeded tracks containers whose on-backend timestamps this
	// instance has folded into its clock (see seedClock).
	smu    sync.Mutex
	seeded map[string]bool

	// workers bounds every engine fan-out (index reconstruction, the
	// read scatter-gather, WriteV); batchDepth and indexBatch are the
	// coalescing and group-flush bounds. All three are resolved once in
	// New; in-package tests set them on a fresh instance to pin the
	// serial or the pooled shape.
	workers    int
	batchDepth int
	indexBatch int

	// gather is what the read engine has observed of this backend's
	// per-batch latency — what decides inline or pooled (runBatches).
	gather gatherState

	// flattenNonce and flattens make this instance's flattened-record
	// temp names its own (see flattenedTemp).
	flattenNonce uint64
	flattens     atomic.Uint64

	// stats is the instance's engine telemetry layer (nil = off).
	stats *iostats.LayerStats
}

// New returns a PLFS instance over backend, configured by the supplied
// options (see Option; later options override earlier ones, group by
// group). With Backends set (WithBackends or Config.Backends), backend
// is ignored (and may be nil) and the instance stripes its containers
// across the listed stores.
func New(backend posix.FS, opts ...Option) *FS {
	var cfg Config
	for _, o := range opts {
		o.applyOption(&cfg)
	}
	if cfg.Engine.NumHostdirs <= 0 {
		cfg.Engine.NumHostdirs = 32
	}
	if len(cfg.Backends) > 0 {
		layout, err := posix.LayoutFor(cfg.Layout.Layout, len(cfg.Backends))
		if err != nil {
			// The layout is part of the container's on-disk identity;
			// silently degrading a misconfigured one would scatter data
			// under the wrong placement rule.
			panic("plfs: " + err.Error())
		}
		backend = posix.NewLayoutFS(layout, posix.ReplicaOptions{
			HedgeDeadline: cfg.Layout.HedgeDeadline,
			HedgeTimer:    cfg.Layout.HedgeTimer,
			Stats:         cfg.Telemetry.Stats,
		}, cfg.Backends...)
	}
	p := &FS{
		backend:    backend,
		cfg:        cfg,
		fds:        readcache.NewFDCache(backend, cfg.Index.MaxReadFDs),
		containers: make(map[string]*container),
		seeded:     make(map[string]bool),
		workers:    defaultWorkers(),
		batchDepth: DefaultBatchDepth,
		indexBatch: DefaultIndexBatch,

		flattenNonce: rand.Uint64(),
	}
	p.initTelemetry()
	p.cache = readcache.NewIndexCache(cfg.Index.MaxCachedIndexes, p.cacheLayer)
	p.gather = gatherState{
		now:    time.Now,
		serial: p.cacheLayer.Counter("gathers_serial"),
		pooled: p.cacheLayer.Counter("gathers_pooled"),
	}
	return p
}

// Config returns the instance's resolved configuration.
func (p *FS) Config() Config { return p.cfg }

// CachedReadFDs returns the number of read descriptors currently cached.
func (p *FS) CachedReadFDs() int { return p.fds.Len() }

// invalidateIndex marks path's cached merged index stale. Call after any
// operation that changes the on-backend index droppings.
func (p *FS) invalidateIndex(path string) { p.cache.Invalidate(path) }

// dropIndex removes path's cache entry outright (unlink/rename).
func (p *FS) dropIndex(path string) { p.cache.Drop(path) }

// Backend returns the posix layer this instance stores containers on
// (the striped composite, for a multi-backend instance).
func (p *FS) Backend() posix.FS { return p.backend }

// stripedBackend finds the striped composite this instance runs over,
// seeing through instrumentation (or other Unwrap-able wrappers) the
// backend may be dressed in. Nil for a plain single store.
func (p *FS) stripedBackend() *posix.StripedFS {
	fs := p.backend
	for fs != nil {
		if s, ok := fs.(*posix.StripedFS); ok {
			return s
		}
		u, ok := fs.(interface{ Unwrap() posix.FS })
		if !ok {
			return nil
		}
		fs = u.Unwrap()
	}
	return nil
}

// NumBackends reports how many stores this instance stripes over (1 for
// a plain single-backend instance).
func (p *FS) NumBackends() int {
	if s := p.stripedBackend(); s != nil {
		return s.NumBackends()
	}
	return 1
}

// ContainerSpread counts the dropping files (data + index) per backend
// for the container at path — the observability hook behind `plfsctl
// info`/`doctor` and the proof, in tests, that striping actually fans
// out. For a single-backend instance the single bucket holds every
// dropping.
func (p *FS) ContainerSpread(path string) ([]int, error) {
	if !p.IsContainer(path) {
		return nil, posix.ENOENT
	}
	striped := p.stripedBackend()
	spread := make([]int, p.NumBackends())
	dirs, err := p.backend.Readdir(path)
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		if !d.IsDir || !strings.HasPrefix(d.Name, "hostdir.") {
			continue
		}
		hostdir := path + "/" + d.Name
		files, err := p.backend.Readdir(hostdir)
		if err != nil {
			return nil, err
		}
		n := 0
		for _, fe := range files {
			if strings.HasPrefix(fe.Name, "dropping.") {
				n++
			}
		}
		bi := 0
		if striped != nil {
			bi = striped.BackendFor(hostdir)
		}
		spread[bi] += n
	}
	return spread, nil
}

func (p *FS) hostdir(path string, pid uint32) string {
	return fmt.Sprintf("%s/hostdir.%d", path, int(pid)%p.cfg.Engine.NumHostdirs)
}

func dataDropping(hostdir string, pid uint32) string {
	return fmt.Sprintf("%s/dropping.data.%d", hostdir, pid)
}

func indexDropping(hostdir string, pid uint32) string {
	return fmt.Sprintf("%s/dropping.index.%d", hostdir, pid)
}

// IsContainer reports whether path names a PLFS container.
func (p *FS) IsContainer(path string) bool {
	st, err := p.backend.Stat(path)
	if err != nil || !st.IsDir() {
		return false
	}
	_, err = p.backend.Stat(path + "/" + accessFile)
	return err == nil
}

// CreateContainer builds an empty container at path. It is idempotent:
// concurrent creators race benignly on EEXIST, as PLFS containers do on a
// shared parallel file system.
func (p *FS) CreateContainer(path string, mode uint32) error {
	if err := p.backend.Mkdir(path, 0o755); err != nil && !errors.Is(err, posix.EEXIST) {
		return fmt.Errorf("plfs: create container %s: %w", path, err)
	}
	fd, err := p.backend.Open(path+"/"+accessFile, posix.O_CREAT|posix.O_WRONLY, mode)
	if err != nil && !errors.Is(err, posix.EEXIST) {
		return fmt.Errorf("plfs: create access file: %w", err)
	}
	if err == nil {
		p.backend.Close(fd)
	}
	if fd, err := p.backend.Open(path+"/"+versionFile, posix.O_CREAT|posix.O_EXCL|posix.O_WRONLY, 0o644); err == nil {
		p.backend.Write(fd, []byte(versionText))
		p.backend.Close(fd)
	}
	if err := p.backend.Mkdir(path+"/"+metaDir, 0o755); err != nil && !errors.Is(err, posix.EEXIST) {
		return fmt.Errorf("plfs: create meta dir: %w", err)
	}
	if err := p.backend.Mkdir(path+"/"+openhostsDir, 0o755); err != nil && !errors.Is(err, posix.EEXIST) {
		return fmt.Errorf("plfs: create openhosts dir: %w", err)
	}
	// A non-default layout is part of the container's identity: persist
	// its descriptor (versioned, checksummed) so doctor and later mounts
	// can verify the container is opened under the layout it was written
	// with. Default mod-N containers stay byte-identical to history.
	if s := p.stripedBackend(); s != nil && s.LayoutWidth() > 1 {
		if fd, err := p.backend.Open(path+"/"+layoutFile, posix.O_CREAT|posix.O_EXCL|posix.O_WRONLY, 0o644); err == nil {
			p.backend.Write(fd, posix.MarshalLayoutDescriptor(s.Layout().Descriptor()))
			p.backend.Close(fd)
		}
	}
	return nil
}

// ContainerLayout reads the layout descriptor persisted in the
// container at path. It returns "" with a nil error when no descriptor
// is recorded (a default mod-N container) and an error when a record
// exists but fails validation — a truncated or corrupt descriptor must
// surface loudly, not be mistaken for mod-N.
func (p *FS) ContainerLayout(path string) (string, error) {
	fd, err := p.backend.Open(path+"/"+layoutFile, posix.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, posix.ENOENT) {
			return "", nil
		}
		return "", fmt.Errorf("plfs: open layout descriptor: %w", err)
	}
	defer p.backend.Close(fd)
	st, err := p.backend.Fstat(fd)
	if err != nil {
		return "", fmt.Errorf("plfs: stat layout descriptor: %w", err)
	}
	if st.Size > 1<<16 {
		return "", fmt.Errorf("plfs: layout descriptor implausibly large (%d bytes)", st.Size)
	}
	// The descriptor is capped well under one pooled chunk, and
	// UnmarshalLayoutDescriptor copies what it keeps (string conversion)
	// — the scratch buffer can go straight back to the pool.
	b := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(b)
	buf := (*b)[:st.Size]
	if err := posix.ReadFull(p.backend, fd, buf, 0); err != nil {
		return "", fmt.Errorf("plfs: read layout descriptor: %w", err)
	}
	desc, err := posix.UnmarshalLayoutDescriptor(buf)
	if err != nil {
		return "", fmt.Errorf("plfs: container %s: %w", path, err)
	}
	return desc, nil
}

// markOpen drops an openhosts record for pid — PLFS's signal that a
// writer is active, so stat must not trust the meta size hints.
func (p *FS) markOpen(path string, pid uint32) {
	// Best effort, like PLFS: a missing record only makes stat cheaper.
	if err := p.backend.Mkdir(path+"/"+openhostsDir, 0o755); err != nil && !errors.Is(err, posix.EEXIST) {
		return
	}
	name := fmt.Sprintf("%s/%s/host.%d", path, openhostsDir, pid)
	if fd, err := p.backend.Open(name, posix.O_CREAT|posix.O_WRONLY, 0o644); err == nil {
		p.backend.Close(fd)
	}
}

// clearOpen removes pid's openhosts record.
func (p *FS) clearOpen(path string, pid uint32) {
	p.backend.Unlink(fmt.Sprintf("%s/%s/host.%d", path, openhostsDir, pid))
}

// hasOpenWriters reports whether any writer holds the container open.
func (p *FS) hasOpenWriters(path string) bool {
	entries, err := p.backend.Readdir(path + "/" + openhostsDir)
	return err == nil && len(entries) > 0
}

// OpenHostRecord describes one openhosts entry — the marker an active
// writer drops at open and clears at close.
type OpenHostRecord struct {
	Pid uint32
	// Stale marks a record whose pid has no data dropping: the writer's
	// state is gone (a pre-fix Trunc(0) leak, or a crash between
	// container truncation and close), so nothing can still be writing
	// under it. Stale records pin Stat on the slow merged-index path and
	// make CompactIndex refuse the container.
	Stale bool
}

// OpenHosts lists the container's openhosts records and diagnoses stale
// ones — the check behind `plfsctl doctor`.
func (p *FS) OpenHosts(path string) ([]OpenHostRecord, error) {
	if !p.IsContainer(path) {
		return nil, posix.ENOENT
	}
	entries, err := p.backend.Readdir(path + "/" + openhostsDir)
	if err != nil {
		if errors.Is(err, posix.ENOENT) {
			return nil, nil
		}
		return nil, err
	}
	var out []OpenHostRecord
	for _, e := range entries {
		var pid uint32
		if e.IsDir {
			continue
		}
		if _, err := fmt.Sscanf(e.Name, "host.%d", &pid); err != nil {
			continue
		}
		rec := OpenHostRecord{Pid: pid}
		if _, err := p.backend.Stat(dataDropping(p.hostdir(path, pid), pid)); errors.Is(err, posix.ENOENT) {
			rec.Stale = true
		}
		out = append(out, rec)
	}
	return out, nil
}

// ScrubOpenHosts removes the container's stale openhosts records (see
// OpenHostRecord.Stale), returning how many were actually unlinked.
// Live records are left alone; a record that cannot be removed is not
// counted and the first failure is reported, so a repair tool never
// claims success over a still-degraded container.
func (p *FS) ScrubOpenHosts(path string) (int, error) {
	recs, err := p.OpenHosts(path)
	if err != nil {
		return 0, err
	}
	removed := 0
	var ferr error
	for _, r := range recs {
		if !r.Stale {
			continue
		}
		name := fmt.Sprintf("%s/%s/host.%d", path, openhostsDir, r.Pid)
		if err := p.backend.Unlink(name); err != nil {
			if ferr == nil {
				ferr = fmt.Errorf("plfs: scrub %s: %w", name, err)
			}
			continue
		}
		removed++
	}
	return removed, ferr
}

// bumpClock raises the logical clock to at least min, so entries written
// after an index consolidation (truncate, compact) cannot lose a
// timestamp race against the re-stamped consolidated records.
func (p *FS) bumpClock(min uint64) {
	for {
		cur := p.clock.Load()
		if cur >= min || p.clock.CompareAndSwap(cur, min) {
			return
		}
	}
}

// seedClock raises this instance's logical clock past every timestamp
// already recorded in path's index droppings — once per container per
// instance, before the container's first writer is created. A fresh FS
// starts its clock at zero, so without the seed, new writes (from any
// pid, including one with no dropping of its own) would lose the
// last-writer-wins merge against records from a previous run.
func (p *FS) seedClock(path string) error {
	p.smu.Lock()
	done := p.seeded[path]
	p.smu.Unlock()
	if done {
		return nil
	}
	droppings, err := p.listIndexDroppings(path)
	if err != nil {
		return fmt.Errorf("plfs: seed clock for %s: %w", path, err)
	}
	errs := make([]error, len(droppings))
	runParallel(len(droppings), p.workers, func(i int) {
		var newest uint64
		newest, errs[i] = p.newestInDropping(droppings[i])
		p.bumpClock(newest)
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("plfs: seed clock for %s: %w", path, err)
		}
	}
	p.smu.Lock()
	p.seeded[path] = true
	p.smu.Unlock()
	return nil
}

// newestInDropping streams one index dropping, validating every record
// as a slurp would but holding one chunk of them at a time, and returns
// the largest timestamp it carries (0 for none).
func (p *FS) newestInDropping(path string) (uint64, error) {
	s, err := idx.OpenDroppingStream(p.backend, path, 0)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	var newest uint64
	for {
		e, ok, err := s.Next()
		if errors.Is(err, idx.ErrUnsorted) {
			// Only a hand-built dropping defies timestamp order; the
			// slurp handles any order.
			entries, err := idx.ReadDropping(p.backend, path)
			return newestTimestamp(entries), err
		}
		if err != nil || !ok {
			return newest, err
		}
		newest = max(newest, e.Timestamp)
	}
}

// writer is the per-pid append state of an open container. Each writer
// owns its own lock: writes by distinct pids touch distinct droppings and
// proceed fully in parallel (the point of PLFS's file partitioning),
// synchronizing only on the container's shared lock and the atomic clock.
//
// Lock order: container.mu (shared or exclusive) before writer.mu. Paths
// holding container.mu exclusive (Trunc, Close) own every writer
// outright and skip writer.mu.
type writer struct {
	mu      sync.Mutex
	dataFD  int
	idxW    *idx.Writer
	physOff int64
	maxEnd  int64 // highest logical offset+len this writer produced
}

// container is one instance's state for one container it has open: the
// pid → writer table every handle shares. Reads and writes take mu
// shared — concurrent readers proceed in parallel, and writers for
// distinct pids do too, serializing only on their own per-writer lock.
// Close and truncation take it exclusive.
type container struct {
	fs   *FS
	path string

	// handles counts the open Files viewing this record; like the
	// registry entry it keeps alive, it is guarded by FS.hmu.
	handles int

	mu      sync.RWMutex
	writers map[uint32]*writer

	// dpaths caches pid → data-dropping path so warm reads skip the
	// two per-batch Sprintf calls. Guarded by dmu, not mu: path
	// resolution happens inside the read engine where mu may be held
	// shared by many readers.
	dmu    sync.RWMutex
	dpaths map[uint32]string

	// sigFn/loadFn are the shared index-cache callbacks, bound once per
	// record so a warm readIndex allocates no closures.
	sigFn  func() (readcache.Signature, error)
	loadFn func() (*idx.Index, readcache.Signature, readcache.BuildKind, error)
}

// File is an open PLFS file handle — the analogue of Plfs_fd*: a view
// over its container's shared writer table (see "Handles" in the package
// doc). Any handle may write for any pid and serve any number of readers.
type File struct {
	*container
	flags int

	// validated records whether this handle has revalidated the shared
	// index cache against the backend (close-to-open consistency: the
	// first read of a fresh handle checks the dropping signature).
	validated atomic.Bool

	closed bool // guarded by FS.hmu
}

// Open opens (and with O_CREAT, creates) the container at path, returning
// a file handle. pid identifies the calling writer, as in plfs_open.
func (p *FS) Open(path string, flags int, pid uint32, mode uint32) (*File, error) {
	start := p.opStart()
	f, err := p.open(path, flags, pid, mode)
	p.observeOp(iostats.Open, 0, start, err)
	return f, err
}

func (p *FS) open(path string, flags int, pid uint32, mode uint32) (*File, error) {
	exists := p.IsContainer(path)
	if !exists {
		if st, err := p.backend.Stat(path); err == nil && st.IsDir() {
			return nil, posix.EISDIR
		}
		if flags&posix.O_CREAT == 0 {
			return nil, posix.ENOENT
		}
		if err := p.CreateContainer(path, mode); err != nil {
			return nil, err
		}
	} else if flags&posix.O_CREAT != 0 && flags&posix.O_EXCL != 0 {
		return nil, posix.EEXIST
	}
	if flags&posix.O_TRUNC != 0 && flags&posix.O_ACCMODE != posix.O_RDONLY {
		if err := p.truncateShared(path, 0); err != nil {
			return nil, err
		}
	}
	p.hmu.Lock()
	c := p.containers[path]
	if c == nil {
		c = &container{fs: p, path: path, writers: make(map[uint32]*writer), dpaths: make(map[uint32]string)}
		c.sigFn = func() (readcache.Signature, error) { return p.indexSignature(path) }
		c.loadFn = func() (*idx.Index, readcache.Signature, readcache.BuildKind, error) { return p.buildIndex(path) }
		p.containers[path] = c
	}
	c.handles++
	p.hmu.Unlock()
	return &File{container: c, flags: flags}, nil
}

// Path returns the container path this handle refers to.
func (f *File) Path() string { return f.path }

// dataPath resolves pid's data-dropping path through the record's
// cache: the hostdir/dropping formatting runs once per pid per record,
// warm lookups are a shared-lock map hit.
func (c *container) dataPath(pid uint32) string {
	c.dmu.RLock()
	path, ok := c.dpaths[pid]
	c.dmu.RUnlock()
	if ok {
		return path
	}
	path = dataDropping(c.fs.hostdir(c.path, pid), pid)
	c.dmu.Lock()
	c.dpaths[pid] = path
	c.dmu.Unlock()
	return path
}

// getWriterLocked returns (creating if needed) pid's writer. Caller
// holds c.mu exclusive.
func (c *container) getWriterLocked(pid uint32) (*writer, error) {
	if w, ok := c.writers[pid]; ok {
		return w, nil
	}
	p := c.fs
	if err := p.seedClock(c.path); err != nil {
		return nil, err
	}
	hostdir := p.hostdir(c.path, pid)
	if err := p.backend.Mkdir(hostdir, 0o755); err != nil && !errors.Is(err, posix.EEXIST) {
		return nil, fmt.Errorf("plfs: create hostdir: %w", err)
	}
	// The data dropping is opened without O_APPEND: the write engine
	// tracks the append cursor (physOff) itself and lands payload with
	// positional writes, so WriteV can reserve a physical range and fan
	// its segment pwrites out concurrently.
	fd, err := p.backend.Open(dataDropping(hostdir, pid), posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("plfs: open data dropping: %w", err)
	}
	st, err := p.backend.Fstat(fd)
	if err != nil {
		p.backend.Close(fd)
		return nil, err
	}
	iw, err := openIndexWriter(p, indexDropping(hostdir, pid))
	if err != nil {
		p.backend.Close(fd)
		return nil, err
	}
	w := &writer{dataFD: fd, idxW: iw, physOff: st.Size}
	c.writers[pid] = w
	p.markOpen(c.path, pid)
	return w, nil
}

// openIndexWriter opens an index dropping for appending, creating it if
// necessary; re-opening an existing dropping resumes after its records.
func openIndexWriter(p *FS, path string) (*idx.Writer, error) {
	if _, err := p.backend.Stat(path); err == nil {
		return idx.OpenWriter(p.backend, path)
	}
	return idx.NewWriter(p.backend, path)
}

// Write appends count bytes at logical offset off on behalf of pid —
// plfs_write. The payload lands at the end of pid's data dropping and one
// index record is buffered (group-flushed per EngineOptions.IndexBatch).
// Writes for distinct pids proceed fully in parallel.
//
// Partial-write semantics: n is the number of payload bytes that reached
// the data dropping. Those n bytes are always indexed — even when err is
// non-nil — so the logical file reflects exactly the durable prefix and
// the writer's physical cursor never desynchronizes from the dropping.
func (f *File) Write(buf []byte, off int64, pid uint32) (int, error) {
	start := f.fs.opStart()
	n, err := f.write(buf, off, pid)
	f.fs.observeOp(iostats.Write, int64(n), start, err)
	return n, err
}

func (f *File) write(buf []byte, off int64, pid uint32) (int, error) {
	if f.flags&posix.O_ACCMODE == posix.O_RDONLY {
		return 0, posix.EBADF
	}
	if off < 0 {
		return 0, posix.EINVAL
	}
	if len(buf) == 0 {
		return 0, nil
	}
	w, unlock, err := f.lockWriter(pid)
	if err != nil {
		return 0, err
	}
	defer unlock()
	n, werr := w.writeData(f.fs.backend, buf)
	if n > 0 {
		// Record the durable extent even on error: the dropping grew by
		// n bytes, so skipping the entry would leave physOff pointing n
		// bytes before the next write's real payload.
		f.recordExtentLocked(w, off, int64(n), pid)
	}
	if werr != nil {
		return n, fmt.Errorf("plfs: write data dropping: %w", werr)
	}
	return n, nil
}

// flushIndex puts every index record the instance has buffered for this
// container on the backend — one sweep over the writers, each quiesced
// under its own lock so the others stay concurrent.
func (c *container) flushIndex() error {
	var ferr error
	flushed := false
	c.mu.RLock()
	for _, w := range c.writers {
		w.mu.Lock()
		if w.idxW.Buffered() > 0 {
			flushed = true
			if err := w.idxW.Sync(); err != nil && ferr == nil {
				ferr = err
			}
		}
		w.mu.Unlock()
	}
	c.mu.RUnlock()
	if flushed {
		c.fs.invalidateIndex(c.path)
	}
	return ferr
}

// readIndex returns the merged index for this handle's container via the
// shared cache, flushing buffered index records first so every write the
// instance accepted is visible. The first call on a fresh handle
// revalidates the cached index against the backend (close-to-open
// consistency); after that, same-instance generation tracking suffices.
func (f *File) readIndex() (*idx.Index, error) {
	if err := f.flushIndex(); err != nil {
		return nil, err
	}
	index, _, err := f.fs.cache.Get(f.path, !f.validated.Load(), f.sigFn, f.loadFn)
	if err != nil {
		return nil, err
	}
	f.validated.Store(true)
	return index, nil
}

// Read fills buf from logical offset off — plfs_read. It scatter-gathers
// across data droppings according to the merged index; holes read as
// zeros. Reads do not exclude each other: concurrent Reads on one handle
// (or many handles over one container) proceed in parallel, and the
// per-extent preads of a single Read are themselves issued concurrently
// across droppings (EngineOptions.ReadWorkers).
//
// Short-read semantics: with no error, n is the number of requested
// bytes that lie below EOF (n < len(buf) only at end of file). On error,
// n is the length of the contiguous error-free prefix of the request —
// bytes buf[:n] are valid, bytes beyond n are unspecified — and the
// error describes the first failing extent.
func (f *File) Read(buf []byte, off int64) (int, error) {
	start := f.fs.opStart()
	n, err := f.read(buf, off)
	f.fs.observeOp(iostats.Read, int64(n), start, err)
	return n, err
}

func (f *File) read(buf []byte, off int64) (int, error) {
	if f.flags&posix.O_ACCMODE == posix.O_WRONLY {
		return 0, posix.EBADF
	}
	if off < 0 {
		return 0, posix.EINVAL
	}
	if len(buf) == 0 {
		return 0, nil
	}
	index, err := f.readIndex()
	if err != nil {
		return 0, err
	}
	seg := [1]ReadSeg{{Off: off, Buf: buf}}
	n, err := f.fs.scatterGather(f, seg[:], index)
	return int(n), err
}

// Size returns the logical file size.
func (f *File) Size() (int64, error) {
	index, err := f.readIndex()
	if err != nil {
		return 0, err
	}
	return index.Size(), nil
}

// Sync flushes pid's buffered index records and data — plfs_sync. Syncs
// for distinct pids proceed in parallel, like the writes they flush.
func (f *File) Sync(pid uint32) error {
	start := f.fs.opStart()
	err := f.sync(pid)
	f.fs.observeOp(iostats.Sync, 0, start, err)
	return err
}

func (c *container) sync(pid uint32) error {
	c.mu.RLock()
	w, ok := c.writers[pid]
	if !ok {
		c.mu.RUnlock()
		return nil
	}
	w.mu.Lock()
	serr := w.idxW.Sync()
	var ferr error
	if serr == nil {
		ferr = c.fs.backend.Fsync(w.dataFD)
	}
	w.mu.Unlock()
	c.mu.RUnlock()
	// Stale out the shared index even on error: the record flush may
	// have reached the backend before the fsync failed, and the writer's
	// buffer is empty either way, so flushIndex would never re-trigger
	// the invalidation.
	c.fs.invalidateIndex(c.path)
	if serr != nil {
		return serr
	}
	return ferr
}

// Trunc truncates the open file — plfs_trunc on an open handle. The
// truncate is container-level: every writer this instance holds on the
// container is retired or rebound, whichever handle opened it.
func (f *File) Trunc(size int64) error {
	if f.flags&posix.O_ACCMODE == posix.O_RDONLY {
		return posix.EBADF
	}
	return f.fs.truncateShared(f.path, size)
}

// truncateShared truncates a container under its record's lock (when
// the instance has it open): every writer's buffered records are flushed
// so they participate in the consolidation, and afterwards the writers
// are retired (size 0) or rebound to fresh index droppings (size > 0) —
// a truncate through one handle, a path-based Truncate, or an O_TRUNC
// open must not leave any writer appending to unlinked droppings.
func (p *FS) truncateShared(path string, size int64) error {
	p.hmu.Lock()
	c := p.containers[path]
	p.hmu.Unlock()
	if c == nil {
		return p.truncateContainer(path, size)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.writers {
		if err := w.idxW.Sync(); err != nil {
			return err
		}
	}
	if err := p.truncateContainer(path, size); err != nil {
		return err
	}
	return c.rebindWritersLocked(size)
}

// rebindWritersLocked repairs the writers after the container's
// droppings were replaced by a truncate. Caller holds c.mu exclusive.
//
// A partial truncate replaced every index dropping with one consolidated
// dropping — including the droppings live writers still hold open — so
// each writer is rebound to a fresh index dropping, or its post-truncate
// records would keep landing in the unlinked file, invisible to every
// reader. Data droppings are untouched, so physical cursors remain
// valid. A writer that cannot be rebound is retired (its future writes
// would otherwise vanish) and the first error is reported; every writer
// is visited regardless. A truncate to zero removed the data droppings
// too, so every writer is retired. Retiring clears the pid's openhosts
// record — left behind, it would make hasOpenWriters report true for
// the container's remaining lifetime, pinning Stat on the slow
// merged-index path and making CompactIndex refuse the container.
func (c *container) rebindWritersLocked(size int64) error {
	p := c.fs
	var rerr error
	for pid, w := range c.writers {
		w.idxW.Close()
		if size > 0 {
			iw, err := openIndexWriter(p, indexDropping(p.hostdir(c.path, pid), pid))
			if err == nil {
				w.idxW = iw
				// Clamp the close-time size hint: this writer's extents
				// beyond size were just clipped away.
				w.maxEnd = min(w.maxEnd, size)
				continue
			}
			if rerr == nil {
				rerr = fmt.Errorf("plfs: rebind index dropping after trunc: %w", err)
			}
		}
		p.backend.Close(w.dataFD)
		p.clearOpen(c.path, pid)
		delete(c.writers, pid)
	}
	return rerr
}

// Close closes the handle and retires pid's writer — plfs_close: its
// size hint is dropped into meta/ so later stats can avoid a full index
// merge, and its openhosts record is cleared. The container's last
// handle out retires every remaining writer the same way and drains the
// read-fd cache. A close that retires the container's last writer also
// persists the flattened global index (best effort), so the next cold
// open loads O(extents) instead of re-merging every dropping. Closing a
// closed handle is a no-op.
func (f *File) Close(pid uint32) error {
	c, p := f.container, f.fs
	p.hmu.Lock()
	if f.closed {
		p.hmu.Unlock()
		return nil
	}
	c.mu.Lock()
	_, hadWriter := c.writers[pid]
	err := c.teardownWriterLocked(pid)
	if err == nil {
		f.closed = true
		c.handles--
		if c.handles == 0 {
			hadWriter = hadWriter || len(c.writers) > 0
			for pid := range c.writers {
				c.teardownWriterLocked(pid)
			}
			delete(p.containers, c.path)
			p.fds.DropPrefix(c.path + "/")
		}
	}
	c.mu.Unlock()
	p.hmu.Unlock()
	if err != nil {
		return err
	}
	if hadWriter {
		p.maybeAutoFlatten(c.path, pid)
	}
	return nil
}

// teardownWriterLocked closes one pid's writer, drops its size hint and
// clears its openhosts record. Caller holds c.mu exclusive.
func (c *container) teardownWriterLocked(pid uint32) error {
	w, ok := c.writers[pid]
	if !ok {
		return nil
	}
	p := c.fs
	// Invalidate even if the close errors below: its internal flush may
	// have put records on the backend before failing.
	defer p.invalidateIndex(c.path)
	if err := w.idxW.Close(); err != nil {
		return err
	}
	if err := p.backend.Close(w.dataFD); err != nil {
		return err
	}
	// Drop a metadata hint: max logical extent this writer saw.
	metaPath := fmt.Sprintf("%s/%s/size.%d", c.path, metaDir, pid)
	if fd, err := p.backend.Open(metaPath, posix.O_CREAT|posix.O_WRONLY|posix.O_TRUNC, 0o644); err == nil {
		p.backend.Write(fd, []byte(fmt.Sprintf("%d\n", w.maxEnd)))
		p.backend.Close(fd)
	}
	p.clearOpen(c.path, pid)
	delete(c.writers, pid)
	return nil
}

// Stat describes a container without opening it — plfs_getattr. It prefers
// the meta/ size hints and falls back to a full index merge when none
// exist (e.g. the container was never cleanly closed).
func (p *FS) Stat(path string) (posix.Stat, error) {
	if !p.IsContainer(path) {
		return posix.Stat{}, posix.ENOENT
	}
	st, err := p.backend.Stat(path)
	if err != nil {
		return posix.Stat{}, err
	}
	out := posix.Stat{Mode: 0o644, Nlink: 1, Ino: st.Ino, Mtime: st.Mtime}

	var size int64
	if p.hasOpenWriters(path) {
		// Active writers: the hints are stale by construction; merge the
		// on-disk index droppings for a live answer.
		index, err := p.mergedIndex(path)
		if err != nil {
			return posix.Stat{}, err
		}
		size = index.Size()
	} else {
		var ok bool
		var err error
		size, ok, err = p.metaSize(path)
		if err != nil {
			return posix.Stat{}, err
		}
		if !ok {
			index, err := p.mergedIndex(path)
			if err != nil {
				return posix.Stat{}, err
			}
			size = index.Size()
		}
	}
	out.Size = size
	return out, nil
}

// mergedIndex returns the container's merged index through the shared
// cache (revalidated against the backend, since no handle tracks
// freshness for path-level operations).
func (p *FS) mergedIndex(path string) (*idx.Index, error) {
	index, _, err := p.cache.Get(path, true,
		func() (readcache.Signature, error) { return p.indexSignature(path) },
		func() (*idx.Index, readcache.Signature, readcache.BuildKind, error) { return p.buildIndex(path) })
	return index, err
}

// metaSize returns the size recorded by cleanly closed writers. ok is
// false when no hints exist.
func (p *FS) metaSize(path string) (int64, bool, error) {
	entries, err := p.backend.Readdir(path + "/" + metaDir)
	if err != nil {
		if errors.Is(err, posix.ENOENT) {
			return 0, false, nil
		}
		return 0, false, err
	}
	var size int64
	found := false
	for _, e := range entries {
		if e.IsDir {
			continue
		}
		fd, err := p.backend.Open(path+"/"+metaDir+"/"+e.Name, posix.O_RDONLY, 0)
		if err != nil {
			continue
		}
		buf := make([]byte, 32)
		n, _ := p.backend.Read(fd, buf)
		p.backend.Close(fd)
		var v int64
		if _, err := fmt.Sscanf(string(buf[:n]), "%d", &v); err == nil {
			found = true
			if v > size {
				size = v
			}
		}
	}
	// Meta hints under-report if a writer died before close; a writer that
	// is still active has no hint at all. Cross-check against index
	// droppings only when nothing was found.
	return size, found, nil
}

// Unlink removes a container and all its droppings — plfs_unlink.
func (p *FS) Unlink(path string) error {
	if !p.IsContainer(path) {
		return posix.ENOENT
	}
	p.dropIndex(path)
	p.fds.DropPrefix(path + "/")
	err := p.removeTree(path)
	// As in truncate-to-zero: drop state a racing reader cached while
	// the tree was coming down.
	p.fds.DropPrefix(path + "/")
	p.dropIndex(path)
	return err
}

func (p *FS) removeTree(path string) error {
	entries, err := p.backend.Readdir(path)
	if err != nil {
		return err
	}
	for _, e := range entries {
		child := path + "/" + e.Name
		if e.IsDir {
			if err := p.removeTree(child); err != nil {
				return err
			}
		} else if err := p.backend.Unlink(child); err != nil {
			return err
		}
	}
	return p.backend.Rmdir(path)
}

// Rename moves a container — plfs_rename.
func (p *FS) Rename(oldpath, newpath string) error {
	if !p.IsContainer(oldpath) {
		return posix.ENOENT
	}
	if p.IsContainer(newpath) {
		if err := p.Unlink(newpath); err != nil {
			return err
		}
	}
	p.dropIndex(oldpath)
	p.dropIndex(newpath)
	p.fds.DropPrefix(oldpath + "/")
	return p.backend.Rename(oldpath, newpath)
}

// Truncate truncates a container by path — plfs_trunc. Handles this
// instance holds open on the container are quiesced and repaired, as
// through File.Trunc.
func (p *FS) Truncate(path string, size int64) error {
	if !p.IsContainer(path) {
		return posix.ENOENT
	}
	return p.truncateShared(path, size)
}

// truncateContainer implements truncation the way PLFS does: size zero
// removes every dropping; a partial truncate is a compaction with a
// clip (see consolidate).
func (p *FS) truncateContainer(path string, size int64) error {
	if size < 0 {
		return posix.EINVAL
	}
	dirs, err := p.backend.Readdir(path)
	if err != nil {
		return err
	}
	if size == 0 {
		// The droppings are about to disappear: cached read fds point at
		// doomed files and the cached index at doomed entries. Flattened
		// records describe the doomed extents — remove them too (their
		// raw signature would fail anyway; this keeps the container
		// clean).
		p.fds.DropPrefix(path + "/")
		p.invalidateIndex(path)
		for _, d := range dirs {
			if d.IsDir && len(d.Name) >= 8 && d.Name[:8] == "hostdir." {
				if err := p.removeTree(path + "/" + d.Name); err != nil {
					return err
				}
			} else if !d.IsDir {
				if _, ok := parseFlattenedGen(d.Name); ok {
					p.backend.Unlink(path + "/" + d.Name)
				}
			}
		}
		// Drop again: a reader racing with the deletion may have cached a
		// descriptor for a dropping — or rebuilt and cached a pre-truncate
		// index — between the first drop and the unlinks.
		p.fds.DropPrefix(path + "/")
		p.invalidateIndex(path)
		return p.clearMeta(path, 0)
	}

	if err := p.consolidate(path, size); err != nil {
		return err
	}
	// Any flattened record predates the consolidation; its raw signature
	// no longer matches, so retire it rather than leave a stale file.
	for _, d := range dirs {
		if !d.IsDir {
			if _, ok := parseFlattenedGen(d.Name); ok {
				p.backend.Unlink(path + "/" + d.Name)
			}
		}
	}
	// The index cannot hold a trailing hole, so a truncate upward is
	// carried by the meta hint alone.
	return p.clearMeta(path, size)
}

// consolidate replaces every index dropping of the container with one
// dropping holding the resolved index, clipped at clip bytes unless clip
// is negative: partial truncate is compaction with a clip. Its one rule
// (the fourth tolerance rule of the package doc): the replacement is
// complete, under a name no source uses, before any source is unlinked,
// and its records out-stamp every source's. A failure before that point
// leaves every source, and a torn replacement beside them adds only
// records they already resolve to; a failure after it leaves the whole
// replacement overriding whichever sources survive; and the leftovers
// of either are sources like any other when the operation runs again.
func (p *FS) consolidate(path string, clip int64) error {
	defer p.invalidateIndex(path)
	sources, err := p.listIndexDroppings(path)
	if err != nil {
		return err
	}
	global, newest, err := p.mergeIndex(sources)
	if err != nil {
		return err
	}
	if clip >= 0 {
		global.Truncate(clip)
	}
	merged := restamp(global, newest)
	hostdir := path + "/hostdir.0"
	if err := p.backend.Mkdir(hostdir, 0o755); err != nil && !errors.Is(err, posix.EEXIST) {
		return err
	}
	var replacement string
	for gen := 0; ; gen++ {
		replacement = fmt.Sprintf("%s/dropping.index.merged.%d", hostdir, gen)
		if !slices.Contains(sources, replacement) {
			break
		}
	}
	if err := idx.WriteDropping(p.backend, replacement, merged); err != nil {
		return err
	}
	// Keep the clock ahead of the minted timestamps so later writes still
	// win last-writer-wins.
	p.bumpClock(newest + uint64(len(merged)))
	for _, d := range sources {
		if err := p.backend.Unlink(d); err != nil {
			return err
		}
	}
	return nil
}

// restamp turns a resolved index back into raw records: one entry per
// data extent, re-timestamped in resolved order above base — the
// contents of the dropping consolidate writes.
func restamp(global *idx.Index, base uint64) []idx.Entry {
	var out []idx.Entry
	for _, x := range global.Extents() {
		if x.Hole {
			continue
		}
		out = append(out, idx.Entry{
			LogicalOffset:  x.LogicalOffset,
			Length:         x.Length,
			PhysicalOffset: x.PhysicalOffset,
			Timestamp:      base + uint64(len(out)+1),
			Pid:            x.Pid,
		})
	}
	return out
}

// clearMeta resets the meta hints to a single authoritative size. The
// new hint lands before the stale ones go, so Stat (which takes the
// largest) never reports less than both sizes in between; and a failure
// fails the truncate, because a stale hint left behind would outvote
// the index.
func (p *FS) clearMeta(path string, size int64) error {
	const hint = "size.trunc"
	metaPath := path + "/" + metaDir
	fd, err := p.backend.Open(metaPath+"/"+hint, posix.O_CREAT|posix.O_WRONLY|posix.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = p.backend.Write(fd, []byte(fmt.Sprintf("%d\n", size)))
	if cerr := p.backend.Close(fd); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	entries, err := p.backend.Readdir(metaPath)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name == hint {
			continue
		}
		if err := p.backend.Unlink(metaPath + "/" + e.Name); err != nil {
			return err
		}
	}
	return nil
}

// CompactIndex merges every index dropping in the container into one
// consolidated dropping — plfs_flatten_index. Read opens afterwards load
// a single file instead of one per historical writer, which is PLFS's
// answer to slow first-reads on many-writer containers. The container
// must have no active writers.
func (p *FS) CompactIndex(path string) error {
	if !p.IsContainer(path) {
		return posix.ENOENT
	}
	if p.hasOpenWriters(path) {
		return fmt.Errorf("plfs: compact %s: container has active writers", path)
	}
	if err := p.consolidate(path, -1); err != nil {
		return err
	}
	// Compaction replaced the raw droppings, so any existing flattened
	// record just went stale; refresh it from the consolidated state
	// (best effort — compaction itself succeeded either way). plfsctl
	// compact reports the outcome via IndexHealth.
	p.writeFlattened(path, 0)
	return nil
}

// IndexDroppings counts the index dropping files in a container.
func (p *FS) IndexDroppings(path string) (int, error) {
	droppings, err := p.listIndexDroppings(path)
	if err != nil {
		return 0, err
	}
	return len(droppings), nil
}

// Flatten materialises the container's logical contents as a plain file at
// dst on the backend — what "cp" through LDPLFS achieves, packaged as a
// utility (PLFS ships the same as plfs_flatten_index/"plfs_recover").
func (p *FS) Flatten(path, dst string) error {
	f, err := p.Open(path, posix.O_RDONLY, 0, 0)
	if err != nil {
		return err
	}
	defer f.Close(0)
	size, err := f.Size()
	if err != nil {
		return err
	}
	out, err := p.backend.Open(dst, posix.O_CREAT|posix.O_WRONLY|posix.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer p.backend.Close(out)
	// One pooled chunk instead of a private 4 MiB buffer per call: the
	// copy loop just runs more iterations, and repeated Flattens (auto-
	// flatten after compaction, plfsctl) stop churning the heap.
	b := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(b)
	buf := *b
	const chunk = copyBufChunk
	for off := int64(0); off < size; {
		n := chunk
		if rem := size - off; rem < int64(n) {
			n = int(rem)
		}
		got, err := f.Read(buf[:n], off)
		if err != nil {
			return err
		}
		if got == 0 {
			break
		}
		if err := posix.WriteFull(p.backend, out, buf[:got], off); err != nil {
			return err
		}
		off += int64(got)
	}
	return p.backend.Ftruncate(out, size)
}
