package index

import (
	"container/heap"
	"errors"
	"fmt"

	"ldplfs/internal/posix"
)

// ErrUnsorted reports that a dropping's records are not in ascending
// timestamp order, so it cannot participate in a streaming merge. Real
// droppings are always timestamp-sorted (each writer stamps records from
// a monotonic clock), but a hand-built or adversarial dropping may not
// be; callers fall back to the slurp-and-sort path, which handles any
// order.
var ErrUnsorted = errors.New("index: dropping records out of timestamp order")

// DefaultStreamChunk is the number of records a DroppingStream buffers
// per backend read. The streaming merge's memory bound is
// droppings × DefaultStreamChunk × EntrySize, independent of how many
// records the droppings hold.
const DefaultStreamChunk = 2048

// DroppingStream reads an index dropping incrementally: header first,
// then fixed-size chunks of records on demand. It is the memory-bounded
// replacement for slurping whole droppings before a merge.
type DroppingStream struct {
	fs   posix.FS
	fd   int
	path string

	off     int64 // next unread byte (record-aligned)
	end     int64 // last whole-record boundary at open time
	buf     []byte
	bufOff  int
	chunk   int
	lastTS  uint64
	started bool
}

// OpenDroppingStream opens the index dropping at path for streaming,
// validating its header. chunkRecords bounds the records buffered per
// read (0 = DefaultStreamChunk). In-flight states are read past exactly
// as ReadDropping reads past them (see wholeRecords).
func OpenDroppingStream(fs posix.FS, path string, chunkRecords int) (*DroppingStream, error) {
	if chunkRecords <= 0 {
		chunkRecords = DefaultStreamChunk
	}
	fd, err := fs.Open(path, posix.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("index: open dropping %s: %w", path, err)
	}
	_, n, err := probeDropping(fs, fd, path)
	if err != nil {
		fs.Close(fd)
		return nil, err
	}
	return &DroppingStream{
		fs:    fs,
		fd:    fd,
		path:  path,
		off:   headerSize,
		end:   headerSize + n*EntrySize,
		chunk: chunkRecords,
	}, nil
}

// Len returns the number of whole records the stream will yield in total.
func (s *DroppingStream) Len() int { return int((s.end - headerSize) / EntrySize) }

// fill loads the next chunk of records into the buffer.
func (s *DroppingStream) fill() error {
	want := int64(s.chunk) * EntrySize
	if rem := s.end - s.off; rem < want {
		want = rem
	}
	if want <= 0 {
		s.buf, s.bufOff = nil, 0
		return nil
	}
	if cap(s.buf) < int(want) {
		s.buf = make([]byte, want)
	}
	s.buf = s.buf[:want]
	if err := posix.ReadFull(s.fs, s.fd, s.buf, s.off); err != nil {
		return fmt.Errorf("index: read dropping %s: %w", s.path, err)
	}
	s.off += want
	s.bufOff = 0
	return nil
}

// Prefetch loads the stream's first chunk; the merge's caller may fan
// prefetches out in parallel before the (serial) heap merge starts.
func (s *DroppingStream) Prefetch() error {
	if s.started || len(s.buf) > 0 {
		return nil
	}
	return s.fill()
}

// Next returns the next record. ok is false at end of stream. Records
// must arrive in non-decreasing timestamp order or Next fails with
// ErrUnsorted.
func (s *DroppingStream) Next() (e Entry, ok bool, err error) {
	if s.bufOff >= len(s.buf) {
		if s.off >= s.end {
			return Entry{}, false, nil
		}
		if err := s.fill(); err != nil {
			return Entry{}, false, err
		}
		if len(s.buf) == 0 {
			return Entry{}, false, nil
		}
	}
	rec := s.buf[s.bufOff : s.bufOff+EntrySize]
	if err := e.Unmarshal(rec); err != nil {
		recNo := (s.off - headerSize - int64(len(s.buf)) + int64(s.bufOff)) / EntrySize
		return Entry{}, false, fmt.Errorf("index: dropping %s record %d: %w", s.path, recNo, err)
	}
	s.bufOff += EntrySize
	if s.started && e.Timestamp < s.lastTS {
		return Entry{}, false, fmt.Errorf("%w: %s", ErrUnsorted, s.path)
	}
	s.started, s.lastTS = true, e.Timestamp
	return e, true, nil
}

// Close releases the stream's descriptor.
func (s *DroppingStream) Close() error { return s.fs.Close(s.fd) }

// mergeItem is one stream's head entry in the merge heap.
type mergeItem struct {
	e      Entry
	stream int
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	a, b := h[i].e, h[j].e
	if a.Timestamp != b.Timestamp {
		return a.Timestamp < b.Timestamp
	}
	if a.Pid != b.Pid {
		return a.Pid < b.Pid
	}
	if a.Dropping != b.Dropping {
		return a.Dropping < b.Dropping
	}
	return h[i].stream < h[j].stream
}
func (h mergeHeap) Swap(i, j int)           { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)             { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() any               { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h mergeHeap) head() *mergeItem        { return &h[0] }
func (h *mergeHeap) fixHead()               { heap.Fix(h, 0) }
func (h *mergeHeap) popHead() (m mergeItem) { return heap.Pop(h).(mergeItem) }

// MergeStreams k-way-merges timestamp-sorted dropping streams into a
// global index, overlaying entries in ascending (timestamp, pid,
// dropping) order — the same resolution Build performs over a slurped
// entry slice, but with memory bounded by the streams' chunk buffers
// instead of the container's total record count. A stream that turns out
// to be unsorted fails with ErrUnsorted (callers fall back to Build);
// corrupt records fail with their parse error. Alongside the index it
// returns the newest timestamp it overlaid (0 for no records) — what a
// caller minting further records must out-stamp.
func MergeStreams(streams ...*DroppingStream) (*Index, uint64, error) {
	h := make(mergeHeap, 0, len(streams))
	for i, s := range streams {
		e, ok, err := s.Next()
		if err != nil {
			return nil, 0, err
		}
		if ok {
			h = append(h, mergeItem{e, i})
		}
	}
	heap.Init(&h)
	idx := &Index{}
	var newest uint64
	for h.Len() > 0 {
		head := h.head()
		idx.insert(head.e)
		newest = head.e.Timestamp // the heap pops in ascending timestamp order
		e, ok, err := streams[head.stream].Next()
		if err != nil {
			return nil, 0, err
		}
		if ok {
			head.e = e
			h.fixHead()
		} else {
			h.popHead()
		}
	}
	return idx, newest, nil
}
