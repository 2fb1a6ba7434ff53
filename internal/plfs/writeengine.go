// The concurrent write engine: per-writer sharded locking, write-behind
// of small appends, batched index appends, and vectored writes.
//
// A PLFS write has none of the read path's cross-writer coupling — every
// pid appends payload to its own data dropping and index records to its
// own index dropping. The engine makes the client side match that shape:
// Write/Sync hold the container lock *shared* and serialize only on the
// owning writer's lock, so N pids writing one container stream N
// droppings fully in parallel; the logical clock is a lone atomic; a
// writer's creation makes its droppings with no container lock held; and
// index records group-flush every DefaultIndexBatch records instead of
// hitting the backend per record. There is one write path, writeV:
// Write is its one-segment case.
//
// # Write-behind
//
// A one-segment write under stageBelow bytes is copied into its writer's
// stage, a WriteStage-byte buffer the writer owns, and returns: the
// stage's bytes land later as one positional write at the stage's base,
// the writer's cursor. Every other write — too large to stage, a vector,
// or a small one the stage has no room left for — lands with the staged
// bytes ahead of it in one pwritev, so it costs no more backend ops than
// it would with nothing staged.
//
// One rule keeps the index honest: no index record reaches the backend
// ahead of the bytes it maps. A staged write's record, stamped when the
// write was accepted, waits in the writer (pending) and moves into the
// index writer only once its bytes have landed (land). Every path that
// puts records on the backend lands first: the group flush, flushIndex
// (so a read through the instance sees its own writes), Sync,
// truncateShared and writer teardown.
//
// A landing's failure is a write's failure, and it is the writer's to
// hear: the durable prefix is indexed, the cursor moves to its end, the
// fold is dropped, and the error, errno intact, goes to the writer's own
// call. When that call landed it — Write or WriteV, Sync, Close — the
// call returns it. When a call made for someone else landed it — a read,
// Size, Stat or MergedIndex through flushIndex, or a truncate — the
// error is kept on the writer (writer.err, after Linux's errseq) and
// the writer's next Write, WriteV, Sync or Close returns it, once; the
// reader or truncator did not write those bytes and gets no error for
// them. Staged bytes past the prefix are lost with their records, as the
// tail of an unstaged write is.
package plfs

import (
	"fmt"
	"sync"

	"ldplfs/internal/iostats"
	idx "ldplfs/internal/plfs/index"
	"ldplfs/internal/posix"
)

// WriteStage is the size of a writer's write-behind stage: the most
// payload of small writes a writer holds before landing it. 32 KiB turns
// eight 4 KiB strided writes into one backend write, and costs each
// writer that stages once, on its first staged write; a 64 KiB stage
// cost a wide container's many small writers more than it saved (see
// README.md, "Constants, and why").
const WriteStage = 32 << 10

// stageBelow is the largest write, exclusive, that is staged: a write
// this large is already few enough per byte that copying it buys little.
const stageBelow = WriteStage / 4

// lockWriter returns pid's writer with the container lock held shared
// and the writer's own lock held, creating the writer on first use.
// unlock releases both. A closed handle gets EBADF: Close sets the flag
// under the container lock, and a writer is installed only under it.
func (f *File) lockWriter(pid uint32) (*writer, func(), error) {
	c := f.container
	for {
		c.mu.RLock()
		if w, ok := c.writers[pid]; ok && !f.closed.Load() {
			w.mu.Lock()
			return w, func() { w.mu.Unlock(); c.mu.RUnlock() }, nil
		}
		c.mu.RUnlock()
		// First write from this pid: create the writer, then loop back to
		// the shared fast path (a concurrent Trunc/Close may retire it
		// before we re-acquire).
		if err := f.createWriter(pid); err != nil {
			return nil, nil, err
		}
	}
}

// createWriter makes pid's writer and installs it in the record. The
// backend ops — the clock seed, the hostdir, both droppings, the
// openhosts record — run with no container lock held, so every other
// writer's I/O and Sync go on meanwhile; the exclusive lock is taken
// only to claim the pid and to install. One creator per pid at a time: a
// second waits for the first and returns, to look again. What a creator
// made is closed again when its handle closed or a truncate ran
// meanwhile (the truncate may have unlinked it).
func (f *File) createWriter(pid uint32) error {
	c := f.container
	c.mu.Lock()
	if f.closed.Load() {
		c.mu.Unlock()
		return posix.EBADF
	}
	if _, ok := c.writers[pid]; ok {
		c.mu.Unlock()
		return nil
	}
	if wait, ok := c.creating[pid]; ok {
		c.mu.Unlock()
		<-wait
		return nil
	}
	if c.creating == nil {
		c.creating = make(map[uint32]chan struct{})
	}
	done := make(chan struct{})
	c.creating[pid] = done
	truncs, seeded := c.truncs, c.seeded
	c.mu.Unlock()

	w, err := c.makeWriter(pid, !seeded, !f.comm)

	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.creating, pid)
	close(done)
	switch {
	case err != nil:
		return err
	case f.closed.Load():
		c.closeWriter(pid, w)
		return posix.EBADF
	case c.truncs != truncs:
		c.closeWriter(pid, w)
		return nil
	}
	c.seeded = true
	if w.fold == nil {
		delete(c.folds, w.idxPath) // it resumed that dropping
	}
	c.writers[pid] = w
	return nil
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
// A vector is never staged: it lands before WriteV returns, in one
// pwritev with whatever pid's writer had staged ahead of it, the
// writer's lock held once for the whole vector.
//
// Partial-failure semantics mirror Read's short-read contract: the
// durable prefix lands in segment order, and every byte of it is
// indexed, so the logical file always reflects exactly the durable
// data. The returned count is the length of the vector's part of that
// prefix, and the error names the first write it does not cover: a
// segment, or a staged write landing ahead of the vector (then the count
// is 0). The writer's cursor moves to the prefix's end, so a failed tail
// leaves no gap in the dropping.
func (f *File) WriteV(segs []WriteSeg, pid uint32) (int64, error) {
	start := f.fs.opStart()
	n, err := f.writeV(segs, pid)
	f.fs.observeOp(iostats.Write, n, start, err)
	return n, err
}

// writeBufs pools the buffer list a landing hands to pwritev, so a warm
// WriteV allocates none.
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
	if err := w.takeErr(); err != nil {
		return 0, err
	}

	// before is where the write begins among the bytes the next landing
	// puts down; n counts those bytes as landed so far.
	before := int64(len(w.stage))
	var n int64
	if len(segs) == 1 && total < stageBelow && len(w.stage)+int(total) <= WriteStage {
		w.hold(segs[0], f.fs.clock.Add(1), pid)
		n = before + total
	} else {
		n, err = w.land(f.fs, segs, pid)
	}
	if ln, lerr := f.maybeFlushIndexLocked(w); lerr != nil {
		n, err = ln, lerr
	}
	return min(max(n-before, 0), total), err
}

// hold copies s into the writer's stage, whose room the caller
// checked, and keeps its record, stamped ts, until the bytes land.
// Caller holds the writer's lock.
func (w *writer) hold(s WriteSeg, ts uint64, pid uint32) {
	if w.stage == nil {
		w.stage = make([]byte, 0, WriteStage)
	}
	w.pending = append(w.pending, idx.Entry{
		LogicalOffset:  s.Off,
		Length:         int64(len(s.Data)),
		PhysicalOffset: w.physOff + int64(len(w.stage)),
		Timestamp:      ts,
		Pid:            pid,
	})
	w.stage = append(w.stage, s.Data...)
}

// land puts the writer's staged bytes and then segs on the backend with
// one positional write at the cursor, moves the records of the durable
// prefix into the index writer — the staged writes' records, then one per
// segment for pid, stamped now — and moves the cursor to the prefix's
// end. It returns the length of that prefix, staged bytes included. The
// stage is empty afterwards either way. A failed landing drops the fold,
// and its error names the first write the prefix does not cover. Caller
// holds the writer's lock.
func (w *writer) land(p *FS, segs []WriteSeg, pid uint32) (int64, error) {
	staged := int64(len(w.stage))
	total := staged
	for _, s := range segs {
		total += int64(len(s.Data))
	}
	if total == 0 {
		return 0, nil
	}
	base := w.physOff
	var n int64
	var err error
	switch {
	case len(segs) == 0 || staged == 0 && len(segs) == 1:
		buf := w.stage
		if len(segs) == 1 {
			buf = segs[0].Data
		}
		var m int
		m, err = posix.WriteFull(p.backend, w.dataFD, buf, base)
		n = int64(m)
	default:
		bufs := writeBufs.Get().(*[][]byte)
		if staged > 0 {
			*bufs = append(*bufs, w.stage)
		}
		for _, s := range segs {
			*bufs = append(*bufs, s.Data)
		}
		n, err = posix.Pwritev(p.backend, w.dataFD, *bufs, base)
		clear(*bufs) // the pool keeps no caller buffer
		*bufs = (*bufs)[:0]
		writeBufs.Put(bufs)
		if err == nil && n < total {
			err = fmt.Errorf("short write: want %d got %d", total, n)
		}
	}

	// Index the durable prefix record by record, and move the cursor to
	// its end. The first record it does not wholly cover is the one the
	// error names.
	end := base + n
	var short error
	for _, e := range w.pending {
		l := min(e.Length, end-e.PhysicalOffset)
		if l > 0 {
			whole := e.Length
			e.Length = l
			w.index(e)
			if l == whole {
				continue
			}
		}
		if err != nil {
			short = fmt.Errorf("plfs: staged write (logical %d): %w", e.LogicalOffset, err)
		}
		break
	}
	phys := base + staged
	for i, s := range segs {
		l := min(int64(len(s.Data)), end-phys)
		if l > 0 {
			w.index(idx.Entry{LogicalOffset: s.Off, Length: l, PhysicalOffset: phys, Timestamp: p.clock.Add(1), Pid: pid})
			phys += l
		}
		if l < int64(len(s.Data)) {
			if err != nil && short == nil {
				short = fmt.Errorf("plfs: writev segment %d (logical %d): %w", i, s.Off, err)
			}
			break
		}
	}
	w.physOff = end
	w.stage = w.stage[:0]
	w.pending = w.pending[:0]
	if err != nil {
		w.fold = nil
		if short == nil { // a backend that erred after moving every byte
			short = fmt.Errorf("plfs: write: %w", err)
		}
		return n, short
	}
	return n, nil
}

// index buffers e in the index writer and folds it into the writer's
// fold; a fold that spills is dropped.
func (w *writer) index(e idx.Entry) {
	w.idxW.Append(e)
	if w.fold != nil && !w.fold.Append(e) {
		w.fold = nil
	}
}

// syncIndex lands the writer's stage and then syncs its index writer,
// for the writer's own Sync. The landing's error wins; the records of
// its durable prefix are synced all the same. Caller holds the writer's
// lock.
func (w *writer) syncIndex(p *FS) error {
	_, lerr := w.land(p, nil, 0)
	if err := w.idxW.Sync(); lerr == nil {
		return err
	}
	return lerr
}

// settle is syncIndex for a call made on someone else's behalf — a read
// or Stat through flushIndex, a truncate: a landing's error is kept for
// the writer's own next call (takeErr) and only the index sync's is
// returned. An error already kept stays, as the earlier one. Caller
// holds the writer's lock.
func (w *writer) settle(p *FS) error {
	if _, err := w.land(p, nil, 0); err != nil && w.err == nil {
		w.err = err
	}
	return w.idxW.Sync()
}

// takeErr returns the landing error kept for the writer by settle, and
// forgets it: it is reported once. Caller holds the writer's lock.
func (w *writer) takeErr() error {
	err := w.err
	w.err = nil
	return err
}

// maybeFlushIndexLocked group-flushes the writer's index records once
// they — the staged writes' records included — reach the batch
// threshold. It lands the stage first, so the records it flushes are
// those of bytes on the backend, and returns that landing's count and
// error (0 and nil with nothing staged). The flush is an append without
// fsync; a failure leaves the unwritten records buffered for the next
// flush or Sync, which will surface a persistent error. Flushed records
// are on the backend, so the shared index generation is bumped —
// readers of other handles see them, exactly as after a Sync.
func (f *File) maybeFlushIndexLocked(w *writer) (int64, error) {
	if len(w.pending)+w.idxW.BufferedRecords() < f.fs.indexBatch {
		return 0, nil
	}
	n, err := w.land(f.fs, nil, 0)
	// Invalidate whenever bytes reached the backend, error or not: a
	// short flush still made records visible to rebuilds.
	if m, _ := w.idxW.Flush(); m > 0 {
		f.fs.invalidateIndex(f.path)
	}
	return n, err
}
