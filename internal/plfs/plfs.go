// Package plfs is a from-scratch implementation of the Parallel
// Log-structured File System's user-level library (Bent et al., SC'09) —
// the substrate LDPLFS retargets POSIX calls onto.
//
// A PLFS "file" is really a container directory:
//
//	file/                      <- the path the application sees
//	  .plfsaccess              <- marker distinguishing containers from dirs
//	  version
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
// Every read — Read, ReadV, Size, Stat — resolves the
// container's merged index through the instance's shared cache
// (internal/plfs/readcache) and, for data, runs the one scatter-gather
// in readengine.go; Read is its one-segment case. Every write runs the
// one writeV in writeengine.go; Write is its one-segment case. It takes
// the container lock shared and its pid's writer lock (lockWriter),
// lands each vector with one positional write and buffers index
// records per writer. The read fan-out and batch depth and the index
// group-flush threshold are fixed when the instance is built
// (FS.workers, batchDepth, indexBatch), as is the container geometry (FS.hostdirs: a pid's
// hostdir is pid mod 32); nothing selects a different path. Whether a
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
// (readcache.FDCache, readcache.DefaultMaxFDs) goes a round at a time,
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
//     handle they arrived through, and MergedIndex (behind path Stat)
//     does the same. The index is a container's one source of size: a
//     trailing hole left by a truncate is a size record in it (an
//     index record of length zero at the size), so Stat, Size, SEEK_END
//     and a read all agree.
//  3. Trunc, path Truncate and an O_TRUNC open take exactly one lock:
//     truncateShared holds the record's lock exclusive from the flush to
//     the rebind.
//
// Lock order: FS.hmu (registry) before container.mu before writer.mu.
// Handles held by other FS instances over the same backend are out of
// reach, exactly as other processes are for PLFS proper.
//
// A fresh handle is close-to-open consistent: its first read
// revalidates the cached index against the droppings. A handle from
// OpenShared is the exception by design: its index was built and
// validated by another instance (File.ShareIndex), so it is exactly as
// fresh as that instance's open — MPI's semantics for a collective
// open, where every rank sees the file as of the open. The index
// arrives as bytes with the signature it was built under; a later Open
// in this instance revalidates against that signature like any other.
//
// # Tolerance rules
//
// Four degraded states are recoverable by rule, each stated and
// enforced in one place:
//
//   - An index dropping whose tail is a partial record, or that is still
//     shorter than its header, is in flight, not corrupt: readers see its
//     whole records (possibly none) and a resuming writer repairs it.
//     Neither state was ever covered by a successful sync. A dropping
//     that a merge finds shorter than its walk listed yields the whole
//     records that arrived; a short read is never an error. A full header
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
//     source is unlinked, and out-stamps them all; a trailing hole is
//     carried by its size record, which a torn replacement or a
//     surviving source contributes exactly as it would an extent. A
//     fresh reader therefore finds a compaction's bytes and size
//     unchanged and a truncate's bytes intact below the smaller size,
//     and running the operation again completes it. (consolidate)
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

// DefaultBatchDepth bounds a read's vectored submissions: up to 64
// physically-contiguous extents of one dropping coalesce into one
// preadv. 64 segments of the common 64 KiB strided block is a 4 MiB
// submission — large enough to collapse a wide N-1 read to one backend
// op per dropping, small enough to keep partial-failure blast radius
// and per-batch latency modest. A write is not bounded by it: a WriteV
// lands its whole vector with one pwritev.
const DefaultBatchDepth = 64

// FS is a PLFS library instance bound to a backing store. It is safe for
// concurrent use by multiple goroutines (ranks).
type FS struct {
	backend posix.FS
	clock   atomic.Uint64 // container-wide write ordering

	// cache is the shared per-container merged-index cache and fds the
	// shared read-descriptor cache: the read-engine state shared by
	// every File. cacheLayer is where the index cache counts: the
	// collector's "readcache" layer, or a standalone one without. Both
	// run at their package defaults; in-package tests swap in a smaller
	// fds on a fresh instance to pin the descriptor cap.
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

	// hostdirs is the container geometry (a pid's bucket is pid mod
	// hostdirs); workers bounds every engine fan-out (index
	// reconstruction, the read scatter-gather); batchDepth and
	// indexBatch are the read coalescing and group-flush bounds, streamChunk
	// the records an index dropping stream decodes per read. All five
	// are resolved once in New; in-package tests set them on a fresh
	// instance to stage another geometry, to pin the serial or the
	// pooled shape, or where chunk boundaries fall.
	hostdirs    int
	workers     int
	batchDepth  int
	indexBatch  int
	streamChunk int

	// gather is what the read engine has observed of this backend's
	// per-batch latency — what decides inline or pooled (runBatches).
	gather gatherState

	// flattenNonce and flattens make the temp names of this instance's
	// command flattens its own (see flattenedTemp).
	flattenNonce uint64
	flattens     atomic.Uint64

	// stats is the instance's engine telemetry layer (nil = off).
	stats *iostats.LayerStats
}

// New returns a PLFS instance over backend; the one option is WithStats.
// To run over several stores, pass their composite: a posix.StripedFS
// places every container's droppings by its layout.
func New(backend posix.FS, opts ...Option) *FS {
	p := &FS{
		backend:     backend,
		fds:         readcache.NewFDCache(backend, readcache.DefaultMaxFDs),
		containers:  make(map[string]*container),
		seeded:      make(map[string]bool),
		hostdirs:    defaultHostdirs,
		workers:     defaultWorkers(),
		batchDepth:  DefaultBatchDepth,
		indexBatch:  DefaultIndexBatch,
		streamChunk: idx.DefaultStreamChunk,

		flattenNonce: rand.Uint64(),
	}
	for _, o := range opts {
		o(p)
	}
	if p.cacheLayer == nil {
		p.cacheLayer = iostats.NewLayerStats("readcache")
	}
	p.cache = readcache.NewIndexCache(readcache.DefaultMaxContainers, p.cacheLayer)
	p.gather = gatherState{
		now:    time.Now,
		serial: p.cacheLayer.Counter("gathers_serial"),
		pooled: p.cacheLayer.Counter("gathers_pooled"),
	}
	return p
}

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
// seeing through every wrapper the backend may be dressed in: each
// posix.Interposer (FaultFS, InstrumentFS, the iotrace recorder) and
// any other FS with an Unwrap. Nil for a plain single store.
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

// ContainerSpread counts the dropping files (data + index) each backend
// holds for the container at path — the observability hook behind
// `plfsctl info`/`doctor` and the proof, in tests, that striping
// actually fans out. Each hostdir is listed on every backend of its
// replica set, so a replicated dropping counts once per copy and a
// missing copy not at all. For a single-backend instance the single
// bucket holds every dropping.
func (p *FS) ContainerSpread(path string) ([]int, error) {
	if !p.IsContainer(path) {
		return nil, posix.ENOENT
	}
	backends := []posix.FS{p.backend}
	owners := func(string) []int { return []int{0} }
	if s := p.stripedBackend(); s != nil {
		backends, owners = s.Backends(), s.ReplicasFor
	}
	spread := make([]int, len(backends))
	dirs, err := p.backend.Readdir(path)
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		if !d.IsDir || !strings.HasPrefix(d.Name, "hostdir.") {
			continue
		}
		hostdir := path + "/" + d.Name
		for _, b := range owners(hostdir) {
			files, err := backends[b].Readdir(hostdir)
			if errors.Is(err, posix.ENOENT) {
				continue // a copy the doctor has yet to re-replicate
			}
			if err != nil {
				return nil, err
			}
			for _, fe := range files {
				if strings.HasPrefix(fe.Name, "dropping.") {
					spread[b]++
				}
			}
		}
	}
	return spread, nil
}

func (p *FS) hostdir(path string, pid uint32) string {
	return fmt.Sprintf("%s/hostdir.%d", path, int(pid)%p.hostdirs)
}

func dataDropping(hostdir string, pid uint32) string {
	return fmt.Sprintf("%s/dropping.data.%d", hostdir, pid)
}

func indexDropping(hostdir string, pid uint32) string {
	return fmt.Sprintf("%s/dropping.index.%d", hostdir, pid)
}

// IsContainer reports whether path names a PLFS container: one Stat of
// its access file, since on a tree file system a child exists only
// under a directory.
func (p *FS) IsContainer(path string) bool {
	_, err := p.backend.Stat(path + "/" + accessFile)
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
// writer is active, so no flattened record may be trusted or written.
func (p *FS) markOpen(path string, pid uint32) {
	// Best effort, like PLFS: a missing record only lets a reader trust
	// a flattened record that the writer's droppings already outdate.
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

// hasOpenWriters reports whether any writer may hold the container
// open: the openhosts listing holds a record, or it failed for any
// reason but the directory's absence — a listing that cannot be read
// proves no writer gone.
func (p *FS) hasOpenWriters(path string) bool {
	entries, err := p.backend.Readdir(path + "/" + openhostsDir)
	if errors.Is(err, posix.ENOENT) {
		return false
	}
	return err != nil || len(entries) > 0
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
	st, err := p.listIndexState(path)
	if err != nil {
		return fmt.Errorf("plfs: seed clock for %s: %w", path, err)
	}
	errs := make([]error, len(st.droppings))
	runParallel(len(st.droppings), p.workers, func(i int) {
		var newest uint64
		newest, errs[i] = p.newestInDropping(st, i)
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

// newestInDropping streams the walk's i-th index dropping to its listed
// size, validating every record as a slurp would but holding one chunk
// of them at a time, and returns the largest timestamp it carries (0
// for none).
func (p *FS) newestInDropping(st indexState, i int) (uint64, error) {
	s, err := idx.OpenDroppingStream(p.backend, st.droppings[i], st.stats[i].Size, p.streamChunk)
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
			entries, err := p.loadDroppings(st.droppings[i:i+1], st.stats[i:i+1])
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
	idxPath string
	physOff int64
	// fold holds every record the writer appended, for the flatten of
	// its instance's last close (see flatten.go); nil for a writer that
	// resumed a dropping or was rebound by a truncate, and once the
	// fold spills past idx.MaxFoldRuns.
	fold *idx.Fold
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
	// folds holds the folds of retired writers, by index dropping path,
	// until the instance's last writer closes and hands them to its
	// flatten. Guarded by mu.
	folds map[string]*idx.Fold

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

	// closed is set by Close under FS.hmu and the record's mu.
	closed atomic.Bool
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
	if flags&posix.O_TRUNC != 0 {
		if err := p.truncateShared(path, 0); err != nil {
			return nil, err
		}
	}
	return p.handle(path, flags), nil
}

// handle registers one more handle on path's container record, creating
// the record if this instance has none.
func (p *FS) handle(path string, flags int) *File {
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
	return &File{container: c, flags: flags}
}

// SharedIndex is a container's merged index as one instance hands it to
// another — bytes only, so it crosses a process boundary as it is: the
// index as a flattened record (idx.MarshalFlattened), the extents that
// record expands to, and the cache Signature the index was built under.
type SharedIndex struct {
	Record  []byte
	Extents int64
	Sig     readcache.Signature
}

// ShareIndex resolves the handle's index as a read would — flushing
// this instance's buffered records, revalidating a fresh handle — and
// returns it for OpenShared in another instance.
func (f *File) ShareIndex() (SharedIndex, error) {
	index, sig, err := f.readIndexSigned()
	if err != nil {
		return SharedIndex{}, err
	}
	rec := idx.MarshalFlattened(&idx.Flattened{Index: index})
	return SharedIndex{Record: rec, Extents: int64(index.NumExtents()), Sig: sig}, nil
}

// OpenShared opens path read-only from an index another instance shared
// (File.ShareIndex), with no backend op: the record is parsed with every
// check UnmarshalFlattened makes, bounded by the extents the sharer
// reported, and installed in this instance's cache under the sharer's
// signature. The handle is as fresh as the sharer's open, so its first
// read does not revalidate — unless this instance holds writers on the
// container, whose records the sharer may not have seen. A later Open
// revalidates against the sharer's signature as against any other. pid
// is the caller's writer id, as for Open.
func (p *FS) OpenShared(path string, pid uint32, shared SharedIndex) (*File, error) {
	start := p.opStart()
	f, err := p.openShared(path, shared)
	p.observeOp(iostats.Open, 0, start, err)
	return f, err
}

func (p *FS) openShared(path string, shared SharedIndex) (*File, error) {
	fl, err := idx.UnmarshalFlattened(shared.Record, shared.Extents)
	if err != nil {
		return nil, fmt.Errorf("plfs: shared index of %s: %w", path, err)
	}
	p.cache.Install(path, fl.Index, shared.Sig)
	f := p.handle(path, posix.O_RDONLY)
	f.mu.RLock()
	f.validated.Store(len(f.writers) == 0)
	f.mu.RUnlock()
	return f, nil
}

// OpenContainers returns the number of containers this instance holds
// open handles on.
func (p *FS) OpenContainers() int {
	p.hmu.Lock()
	defer p.hmu.Unlock()
	return len(p.containers)
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
	idxPath := indexDropping(hostdir, pid)
	iw, fresh, err := openIndexWriter(p, idxPath)
	if err != nil {
		p.backend.Close(fd)
		return nil, err
	}
	w := &writer{dataFD: fd, idxW: iw, idxPath: idxPath, physOff: st.Size}
	if fresh {
		w.fold = &idx.Fold{}
	} else {
		delete(c.folds, idxPath)
	}
	c.writers[pid] = w
	p.markOpen(c.path, pid)
	return w, nil
}

// openIndexWriter opens an index dropping for appending, creating it if
// necessary (fresh); re-opening an existing dropping resumes after its
// records.
func openIndexWriter(p *FS, path string) (w *idx.Writer, fresh bool, err error) {
	if _, err := p.backend.Stat(path); err == nil {
		w, err = idx.OpenWriter(p.backend, path)
		return w, false, err
	}
	w, err = idx.NewWriter(p.backend, path)
	return w, true, err
}

// Write appends len(buf) bytes at logical offset off on behalf of pid —
// plfs_write. It is WriteV of one segment: the payload lands at the end
// of pid's data dropping and one index record is buffered
// (group-flushed every DefaultIndexBatch records). Writes for distinct
// pids proceed fully in parallel.
//
// Partial-write semantics: n is the number of payload bytes that reached
// the data dropping. Those n bytes are always indexed — even when err is
// non-nil — so the logical file reflects exactly the durable prefix, and
// the writer's physical cursor advances by n, never desynchronizing from
// the dropping.
func (f *File) Write(buf []byte, off int64, pid uint32) (int, error) {
	start := f.fs.opStart()
	seg := [1]WriteSeg{{Off: off, Data: buf}}
	n, err := f.writeV(seg[:], pid)
	f.fs.observeOp(iostats.Write, n, start, err)
	return int(n), err
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
	index, _, err := f.readIndexSigned()
	return index, err
}

// readIndexSigned is readIndex that also returns the Signature the index
// was built under.
func (f *File) readIndexSigned() (*idx.Index, readcache.Signature, error) {
	if err := f.flushIndex(); err != nil {
		return nil, "", err
	}
	index, sig, _, err := f.fs.cache.Get(f.path, !f.validated.Load(), f.sigFn, f.loadFn)
	if err != nil {
		return nil, "", err
	}
	f.validated.Store(true)
	return index, sig, nil
}

// Read fills buf from logical offset off — plfs_read. It scatter-gathers
// across data droppings according to the merged index; holes read as
// zeros. Reads do not exclude each other: concurrent Reads on one handle
// (or many handles over one container) proceed in parallel, and the
// per-extent preads of a single Read are themselves issued concurrently
// across droppings on the instance's worker pool.
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
	if f.flags&posix.O_ACCMODE == posix.O_RDONLY || f.closed.Load() {
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
	c.folds = nil
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
// the container's remaining lifetime, distrusting every flattened
// record and making CompactIndex refuse the container.
func (c *container) rebindWritersLocked(size int64) error {
	p := c.fs
	var rerr error
	for pid, w := range c.writers {
		w.idxW.Close()
		w.fold = nil
		if size > 0 {
			iw, _, err := openIndexWriter(p, w.idxPath)
			if err == nil {
				w.idxW = iw
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
// index records are flushed and its openhosts record is cleared. The
// container's last handle out retires every remaining writer the same
// way and drains the read-fd cache. A close that retires the container's
// last writer also persists the flattened global index (best effort), so
// the next cold open loads O(extents) instead of re-merging every
// dropping. Whether a writer is left is asked of this instance first: a
// close that leaves one of the instance's own writers open neither lists
// openhosts nor flattens — that writer's close will. Only the instance's
// last writer lists openhosts, for the writers of other instances (see
// "One flatten per set of last closers" in flatten.go). That flatten
// hands the merge its instance's writers' folds (see "Where a flatten
// reads a dropping from" in flatten.go). Closing a closed handle is a
// no-op. Close is CloseGathered with no peers.
func (f *File) Close(pid uint32) error {
	_, err := f.close(pid, nil, false)
	return err
}

// CloseSending is Close for a rank of a collective close that is not
// the one expected to close last: it closes as Close does, and when
// this is its instance's last writer it also returns the folds of the
// droppings the instance wrote, encoded (idx.EncodeFolds), for the last
// closer's CloseGathered. Otherwise the bytes are nil.
func (f *File) CloseSending(pid uint32) ([]byte, error) {
	return f.close(pid, nil, true)
}

// CloseGathered is Close for the rank of a collective close that closes
// last, with the encodings its peers' CloseSending returned: a flatten
// by this close may read the droppings their folds describe from the
// folds instead of the backend. Peers change where the flatten reads
// from, never whether it runs.
func (f *File) CloseGathered(pid uint32, peers [][]byte) error {
	_, err := f.close(pid, peers, false)
	return err
}

func (f *File) close(pid uint32, peers [][]byte, send bool) ([]byte, error) {
	c, p := f.container, f.fs
	p.hmu.Lock()
	if f.closed.Load() {
		p.hmu.Unlock()
		return nil, nil
	}
	c.mu.Lock()
	_, hadWriter := c.writers[pid]
	err := c.teardownWriterLocked(pid)
	if err == nil {
		f.closed.Store(true)
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
	last := hadWriter && len(c.writers) == 0
	var folds map[string]*idx.Fold
	if last {
		folds, c.folds = c.folds, nil
	}
	c.mu.Unlock()
	p.hmu.Unlock()
	if err != nil {
		return nil, err
	}
	if !last {
		return nil, nil
	}
	p.flattenAtClose(c.path, foldSources{own: folds, peers: peers})
	if send && len(folds) > 0 {
		return idx.EncodeFolds(folds), nil
	}
	return nil, nil
}

// teardownWriterLocked closes one pid's writer and clears its openhosts
// record. Caller holds c.mu exclusive.
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
	p.clearOpen(c.path, pid)
	delete(c.writers, pid)
	if w.fold != nil {
		if c.folds == nil {
			c.folds = make(map[string]*idx.Fold)
		}
		c.folds[w.idxPath] = w.fold
	}
	return nil
}

// dropFolds forgets the folds of path's retired writers: the operation
// about to run replaces or removes the droppings they describe, and a
// later dropping at the same path and size would not be theirs.
func (p *FS) dropFolds(path string) {
	p.hmu.Lock()
	c := p.containers[path]
	p.hmu.Unlock()
	if c != nil {
		c.mu.Lock()
		c.folds = nil
		c.mu.Unlock()
	}
}

// Stat describes a container without opening it — plfs_getattr. Its
// size is the merged index's, as every read resolves it.
func (p *FS) Stat(path string) (posix.Stat, error) {
	if !p.IsContainer(path) {
		return posix.Stat{}, posix.ENOENT
	}
	st, err := p.backend.Stat(path)
	if err != nil {
		return posix.Stat{}, err
	}
	index, err := p.MergedIndex(path)
	if err != nil {
		return posix.Stat{}, err
	}
	return posix.Stat{Mode: 0o644, Nlink: 1, Ino: st.Ino, Mtime: st.Mtime, Size: index.Size()}, nil
}

// MergedIndex returns the container's merged index as reads resolve it:
// this instance's buffered records for the container flushed first, then
// through the shared cache, revalidated against the backend (no handle
// tracks freshness for path-level operations), and built from a trusted
// flattened record or the streaming merge on a miss.
func (p *FS) MergedIndex(path string) (*idx.Index, error) {
	p.hmu.Lock()
	c := p.containers[path]
	p.hmu.Unlock()
	if c != nil {
		if err := c.flushIndex(); err != nil {
			return nil, err
		}
	}
	index, _, _, err := p.cache.Get(path, true,
		func() (readcache.Signature, error) { return p.indexSignature(path) },
		func() (*idx.Index, readcache.Signature, readcache.BuildKind, error) { return p.buildIndex(path) })
	return index, err
}

// Unlink removes a container and all its droppings — plfs_unlink.
func (p *FS) Unlink(path string) error {
	if !p.IsContainer(path) {
		return posix.ENOENT
	}
	p.dropFolds(path)
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
	p.dropFolds(oldpath)
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
		return nil
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
	return nil
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
// It merges the sources as its walk listed them: a record appended after
// the listing would go with its unlinked source, so its callers quiesce
// writers first — a truncate syncs its own instance's writers under the
// container lock, and CompactIndex refuses a container with live ones.
func (p *FS) consolidate(path string, clip int64) error {
	defer p.invalidateIndex(path)
	st, err := p.listIndexState(path)
	if err != nil {
		return err
	}
	sources := st.droppings
	global, newest, err := p.merge(st)
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
// data extent, re-timestamped in resolved order above base, and a size
// record when the size lies past the last extent's end — the contents of
// the dropping consolidate writes.
func restamp(global *idx.Index, base uint64) []idx.Entry {
	var out []idx.Entry
	var end int64
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
		end = x.LogicalOffset + x.Length
	}
	if size := global.Size(); size > end {
		out = append(out, idx.Entry{LogicalOffset: size, Timestamp: base + uint64(len(out)+1)})
	}
	return out
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
	p.dropFolds(path)
	if err := p.consolidate(path, -1); err != nil {
		return err
	}
	// Compaction replaced the raw droppings, so any existing flattened
	// record just went stale; refresh it from the consolidated state
	// (best effort — compaction itself succeeded either way). plfsctl
	// compact reports the outcome via IndexHealth.
	p.writeFlattened(path, false, foldSources{})
	return nil
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
