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
// dropping and lands the whole vector there with one positional write.
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
			_, err = c.getWriterLocked(pid, !f.comm)
		}
		c.mu.Unlock()
		if err != nil {
			return nil, nil, err
		}
	}
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
// The physical range for the whole vector is reserved up front and the
// vector lands there with one pwritev, the writer's lock held once for
// the whole vector rather than once per segment.
//
// Partial-failure semantics mirror Read's short-read contract: the
// durable prefix lands in segment order, and every byte of it is
// indexed, so the logical file always reflects exactly the durable
// data. The returned count is the length of that prefix, and the error
// names the first segment it does not cover. The writer's cursor moves
// to the prefix's end, so a failed tail leaves no gap in the dropping.
func (f *File) WriteV(segs []WriteSeg, pid uint32) (int64, error) {
	start := f.fs.opStart()
	n, err := f.writeV(segs, pid)
	f.fs.observeOp(iostats.Write, n, start, err)
	return n, err
}

// writeBufs pools the buffer list a multi-segment write hands to
// pwritev, so a warm WriteV allocates none.
var writeBufs = sync.Pool{New: func() any { return new([][]byte) }}

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

	// Land the vector in [base, base+total) with one positional write.
	base := w.physOff
	var n int64
	if len(segs) == 1 {
		var m int
		m, err = posix.WriteFull(f.fs.backend, w.dataFD, segs[0].Data, base)
		n = int64(m)
	} else {
		bufs := writeBufs.Get().(*[][]byte)
		for _, s := range segs {
			*bufs = append(*bufs, s.Data)
		}
		n, err = posix.Pwritev(f.fs.backend, w.dataFD, *bufs, base)
		clear(*bufs) // the pool keeps no caller buffer
		*bufs = (*bufs)[:0]
		writeBufs.Put(bufs)
		if err == nil && n < total {
			err = fmt.Errorf("short write: want %d got %d", total, n)
		}
	}

	// Index the durable prefix segment by segment, and move the cursor
	// to its end.
	phys, short := base, len(segs)-1
	for i, s := range segs {
		l := min(int64(len(s.Data)), base+n-phys)
		if l > 0 {
			f.appendEntryLocked(w, s.Off, l, phys, pid)
			phys += l
		}
		if l < int64(len(s.Data)) {
			short = i
			break
		}
	}
	w.physOff = phys
	f.maybeFlushIndexLocked(w)
	if err != nil {
		return n, fmt.Errorf("plfs: writev segment %d (logical %d): %w", short, segs[short].Off, err)
	}
	return n, nil
}
