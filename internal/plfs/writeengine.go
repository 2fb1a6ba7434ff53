// The concurrent write engine: per-writer sharded locking, batched index
// appends, and parallel multi-extent vectored writes.
//
// A PLFS write has none of the read path's cross-writer coupling — every
// pid appends payload to its own data dropping and index records to its
// own index dropping. The engine makes the client side match that shape:
// Write/Sync hold the container lock *shared* and serialize only on the
// owning writer's lock, so N pids writing one container stream N
// droppings fully in parallel; the logical clock is a lone atomic; and
// index records group-flush every DefaultIndexBatch records instead of
// hitting the backend per record. There is one write path, writeV:
// Write is its one-segment case. It reserves one physical range in the
// dropping up front and fans the per-chunk pwrites out across the
// worker pool (positional writes carry no file pointer — posix.FS
// requires concurrent-pwrite safety); a one-chunk vector, every scalar
// Write among them, runs inline.
package plfs

import (
	"fmt"
	"sync"

	"ldplfs/internal/iostats"
	idx "ldplfs/internal/plfs/index"
	"ldplfs/internal/posix"
)

// lockWriter returns pid's writer with the container lock held shared
// and the writer's own lock held, creating the writer on first use.
// unlock releases both. A closed handle gets EBADF: Close sets the flag
// under the container lock, so no writer is created after it.
func (f *File) lockWriter(pid uint32) (*writer, func(), error) {
	c := f.container
	for {
		c.mu.RLock()
		if w, ok := c.writers[pid]; ok && !f.closed.Load() {
			w.mu.Lock()
			return w, func() { w.mu.Unlock(); c.mu.RUnlock() }, nil
		}
		c.mu.RUnlock()
		// First write from this pid: create the writer under the
		// exclusive lock, then loop back to the shared fast path (a
		// concurrent Trunc/Close may retire it before we re-acquire).
		c.mu.Lock()
		var err error = posix.EBADF
		if !f.closed.Load() {
			_, err = c.getWriterLocked(pid)
		}
		c.mu.Unlock()
		if err != nil {
			return nil, nil, err
		}
	}
}

// pwriteAll lands buf at off with positional writes, returning how many
// bytes reached the file — the durable prefix, even on error.
func pwriteAll(backend posix.FS, fd int, buf []byte, off int64) (int, error) {
	put := 0
	for put < len(buf) {
		n, err := backend.Pwrite(fd, buf[put:], off+int64(put))
		if n > 0 {
			put += n
		}
		if err != nil {
			return put, err
		}
		if n <= 0 {
			return put, fmt.Errorf("pwrite returned %d", n)
		}
	}
	return put, nil
}

// appendEntryLocked buffers one index record for n bytes at logical
// offset off whose payload landed at physOff, stamping the clock, and
// folds it into the writer's fold; a fold that spills is dropped. Caller
// holds the writer's lock (or the container lock exclusive).
func (f *File) appendEntryLocked(w *writer, off, n, physOff int64, pid uint32) {
	e := idx.Entry{
		LogicalOffset:  off,
		Length:         n,
		PhysicalOffset: physOff,
		Timestamp:      f.fs.clock.Add(1),
		Pid:            pid,
	}
	w.idxW.Append(e)
	if w.fold != nil && !w.fold.Append(e) {
		w.fold = nil
	}
}

// maybeFlushIndexLocked group-flushes the writer's buffered index
// records once they reach the batch threshold. The flush is an append
// without fsync; a failure leaves the unwritten records buffered for the
// next flush or Sync, which will surface a persistent error. Flushed
// records are on the backend, so the shared index generation is bumped —
// readers of other handles see them, exactly as after a Sync.
func (f *File) maybeFlushIndexLocked(w *writer) {
	if w.idxW.BufferedRecords() < f.fs.indexBatch {
		return
	}
	// Invalidate whenever bytes reached the backend, error or not: a
	// short flush still made records visible to rebuilds.
	if n, _ := w.idxW.Flush(); n > 0 {
		f.fs.invalidateIndex(f.path)
	}
}

// WriteSeg is one extent of a vectored write: Data lands at logical
// offset Off.
type WriteSeg struct {
	Off  int64
	Data []byte
}

// WriteV appends every segment's payload to pid's data dropping and
// buffers one index record per segment — a vectored plfs_write for
// strided access patterns (one MPI-IO flattened datatype = one WriteV).
// The physical range for the whole vector is reserved up front, so the
// per-chunk pwrites land at precomputed dropping offsets concurrently
// while the writer's lock is held once for the whole vector rather than
// once per segment.
//
// Partial-failure semantics mirror Read's short-read contract: every
// byte that reached the dropping is indexed — including a failing
// chunk's durable prefix and any chunks past the failure — so the
// logical file always reflects exactly the durable data. The returned
// count is the length of the contiguous error-free prefix of the vector,
// and the error describes the first failing segment. A chunk (up to
// DefaultBatchDepth consecutive segments, one pwritev) that fails
// mid-vector leaves its remaining segments unwritten and unindexed. The
// writer's cursor moves to the end of the furthest durable byte, so a
// failed tail leaves no gap in the dropping.
func (f *File) WriteV(segs []WriteSeg, pid uint32) (int64, error) {
	start := f.fs.opStart()
	n, err := f.writeV(segs, pid)
	f.fs.observeOp(iostats.Write, n, start, err)
	return n, err
}

// writePlan is the reusable scratch of one vectored write: per-segment
// physical offsets, durable counts and buffer references plus per-chunk
// errors. Pooled so a warm WriteV allocates only its worker closure, and
// a one-chunk write (every scalar Write) not even that.
type writePlan struct {
	offs []int64  // per-segment physical offset in the dropping
	ns   []int    // per-segment durable byte count
	bufs [][]byte // per-segment payload references
	errs []error  // per-chunk error
}

var writePlanPool = sync.Pool{New: func() any { return new(writePlan) }}

// release clears payload references (so the pool never retains caller
// buffers) and returns the plan to the pool.
func (plan *writePlan) release() {
	for i := range plan.bufs {
		plan.bufs[i] = nil
	}
	for i := range plan.errs {
		plan.errs[i] = nil
	}
	plan.bufs = plan.bufs[:0]
	writePlanPool.Put(plan)
}

// issue lands chunk ci — up to depth consecutive segments, physically
// contiguous in the dropping — with one positional write, crediting
// each segment its durable bytes. It reads payloads from plan.bufs, so
// the caller's segment slice never reaches a worker.
func (plan *writePlan) issue(backend posix.FS, fd, depth, ci int) {
	lo := ci * depth
	hi := min(lo+depth, len(plan.bufs))
	if hi-lo == 1 {
		plan.ns[lo], plan.errs[ci] = pwriteAll(backend, fd, plan.bufs[lo], plan.offs[lo])
		return
	}
	span := plan.offs[hi-1] + int64(len(plan.bufs[hi-1])) - plan.offs[lo]
	n, err := posix.Pwritev(backend, fd, plan.bufs[lo:hi], plan.offs[lo])
	if err == nil && n < span {
		err = fmt.Errorf("short write: want %d got %d", span, n)
	}
	// The durable prefix lands in segment order: credit it greedily.
	rem := n
	for i := lo; i < hi; i++ {
		if l := int64(len(plan.bufs[i])); rem >= l {
			plan.ns[i] = int(l)
			rem -= l
		} else {
			plan.ns[i] = int(rem)
			rem = 0
		}
	}
	plan.errs[ci] = err
}

func (f *File) writeV(segs []WriteSeg, pid uint32) (int64, error) {
	if f.flags&posix.O_ACCMODE == posix.O_RDONLY {
		return 0, posix.EBADF
	}
	var total int64
	for _, s := range segs {
		if s.Off < 0 {
			return 0, posix.EINVAL
		}
		total += int64(len(s.Data))
	}
	if total == 0 {
		return 0, nil
	}
	w, unlock, err := f.lockWriter(pid)
	if err != nil {
		return 0, err
	}
	defer unlock()

	depth := f.fs.batchDepth
	nchunks := (len(segs) + depth - 1) / depth

	plan := writePlanPool.Get().(*writePlan)
	defer plan.release()
	plan.offs = grow(plan.offs, len(segs))
	plan.ns = grow(plan.ns, len(segs))
	plan.errs = grow(plan.errs, nchunks)
	if cap(plan.bufs) < len(segs) {
		plan.bufs = make([][]byte, len(segs))
	}
	plan.bufs = plan.bufs[:len(segs)]

	// Reserve [base, base+total) in the dropping: each segment's
	// physical home is fixed before any byte moves, which is what makes
	// the fan-out safe — and what makes each chunk of depth
	// consecutive segments physically contiguous, i.e. one pwritev.
	base := w.physOff
	cursor := base
	for i, s := range segs {
		plan.offs[i] = cursor
		plan.bufs[i] = s.Data
		cursor += int64(len(s.Data))
	}

	backend, fd := f.fs.backend, w.dataFD
	if nchunks == 1 {
		plan.issue(backend, fd, depth, 0)
	} else {
		runParallel(nchunks, f.fs.workers, func(ci int) { plan.issue(backend, fd, depth, ci) })
	}

	// Every durable byte is indexed, and the cursor moves to the end of
	// the furthest one: a failed chunk inside the vector leaves an
	// unreferenced gap, a failed tail leaves none, and the cursor never
	// points short of a byte the dropping holds.
	end := base
	for i, s := range segs {
		if plan.ns[i] == 0 {
			continue
		}
		f.appendEntryLocked(w, s.Off, int64(plan.ns[i]), plan.offs[i], pid)
		end = plan.offs[i] + int64(plan.ns[i])
	}
	w.physOff = end
	f.maybeFlushIndexLocked(w)

	var written int64
	for i := range segs {
		written += int64(plan.ns[i])
		if plan.errs[i/depth] != nil && plan.ns[i] < len(segs[i].Data) {
			return written, fmt.Errorf("plfs: writev segment %d (logical %d): %w", i, segs[i].Off, plan.errs[i/depth])
		}
	}
	// Defensive: a chunk error with every segment fully durable still
	// surfaces, attributed to the chunk's first segment.
	for ci := 0; ci < nchunks; ci++ {
		if plan.errs[ci] != nil {
			i := ci * depth
			return written, fmt.Errorf("plfs: writev segment %d (logical %d): %w", i, segs[i].Off, plan.errs[ci])
		}
	}
	return written, nil
}
