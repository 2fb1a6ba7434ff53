package index

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"ldplfs/internal/posix"
)

// ErrUnsorted reports that a dropping's records are not in ascending
// timestamp order, so it cannot participate in a streaming merge. Real
// droppings are always timestamp-sorted (each writer stamps records from
// a monotonic clock), but a hand-built or adversarial dropping may not
// be; callers fall back to the slurp-and-sort path, which handles any
// order.
var ErrUnsorted = errors.New("index: dropping records out of timestamp order")

// DefaultStreamChunk is the number of records a DroppingStream decodes
// per backend read. The streaming merge's memory bound is droppings ×
// min(DefaultStreamChunk, records per dropping) × EntrySize, independent
// of how many records the droppings hold in total: a stream decodes a
// chunk in the memory it read it into (see fill).
const DefaultStreamChunk = 2048

// fill decodes records over their own raw bytes, which needs an Entry
// no larger in memory than on disk; this fails to compile otherwise.
var _ [EntrySize - unsafe.Sizeof(Entry{})]byte

// DroppingStream reads an index dropping incrementally: header first,
// then fixed-size chunks of records on demand, each decoded and checked
// (checksum, in-stream timestamp order) as it is read. It is the
// memory-bounded replacement for slurping whole droppings before a merge.
type DroppingStream struct {
	fs   posix.FS
	fd   int
	path string

	off   int64 // next unread byte (record-aligned)
	end   int64 // last whole-record boundary at open time
	chunk int

	buf  []byte  // the current chunk as read
	ents []Entry // its records, decoded and checked, over buf's memory
	pos  int     // next record of ents to yield
	// bad is the failure of the record just past ents — a corrupt record
	// or one out of timestamp order — held until the reader gets there.
	bad    error
	lastTS uint64
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

// fill reads the next chunk into buf and decodes it, in place, into
// ents: Entry i (in memory, 40 bytes at 40i) ends at or before raw record
// i+1 (on disk, EntrySize bytes at EntrySize*(i+1)), so storing it
// overwrites only records already decoded, and a stream holds one raw
// chunk, decoded or not, with no buffer beside it. Decoding stops at the
// first record that fails its checksum or goes back in time; that
// failure is held in bad, behind the good records before it, so it
// surfaces exactly when a reader reaches it. Only a failed read is
// returned.
func (s *DroppingStream) fill() error {
	n := int(min(int64(s.chunk), (s.end-s.off)/EntrySize))
	if cap(s.buf) < n*EntrySize {
		s.buf = make([]byte, n*EntrySize)
	}
	raw := s.buf[:n*EntrySize]
	s.ents, s.pos = nil, 0
	if err := posix.ReadFull(s.fs, s.fd, raw, s.off); err != nil {
		return fmt.Errorf("index: read dropping %s: %w", s.path, err)
	}
	first := (s.off - headerSize) / EntrySize
	s.off += int64(len(raw))
	// Entry holds no pointers and fits its raw record, and a heap
	// allocation of 48 bytes or more is 8-byte aligned, as Entry needs.
	ents := unsafe.Slice((*Entry)(unsafe.Pointer(&raw[0])), n)
	for i := range ents {
		var e Entry
		if err := e.Unmarshal(raw[i*EntrySize:]); err != nil {
			ents, s.bad = ents[:i], fmt.Errorf("index: dropping %s record %d: %w", s.path, first+int64(i), err)
			break
		}
		if e.Timestamp < s.lastTS {
			ents, s.bad = ents[:i], fmt.Errorf("%w: %s", ErrUnsorted, s.path)
			break
		}
		ents[i], s.lastTS = e, e.Timestamp
	}
	s.ents = ents
	return nil
}

// Prefetch reads and decodes the stream's first chunk; the merge's
// caller fans prefetches out in parallel before the (serial) merge
// starts. A bad record in the chunk is not a prefetch failure: the
// stream yields the records before it and then reports it from Next.
func (s *DroppingStream) Prefetch() error {
	if s.off != headerSize || s.off == s.end {
		return nil
	}
	return s.fill()
}

// head returns the stream's next record in place, without consuming it:
// nil at end of stream, or the held failure once the records before it
// are consumed. The pointer is valid until the stream reads its next
// chunk.
func (s *DroppingStream) head() (*Entry, error) {
	if s.pos == len(s.ents) && s.bad == nil && s.off < s.end {
		if err := s.fill(); err != nil {
			return nil, err
		}
	}
	if s.pos == len(s.ents) {
		return nil, s.bad
	}
	return &s.ents[s.pos], nil
}

// Next returns the next record. ok is false at end of stream. Records
// must arrive in non-decreasing timestamp order or Next fails with
// ErrUnsorted.
func (s *DroppingStream) Next() (e Entry, ok bool, err error) {
	h, err := s.head()
	if h == nil {
		return Entry{}, false, err
	}
	s.pos++
	return *h, true, nil
}

// Close releases the stream's descriptor.
func (s *DroppingStream) Close() error { return s.fs.Close(s.fd) }

// mergeKey is what the loser tree orders a stream's head record by:
// (timestamp, pid, dropping, stream), with pid and dropping packed into
// one word. An exhausted stream's key sorts after every record's.
type mergeKey struct {
	ts     uint64
	src    uint64 // pid<<32 | dropping
	stream int
}

func (a *mergeKey) less(b *mergeKey) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.stream < b.stream
}

// loserTree is a tournament tree over k streams' head keys: leaf i sits
// at node k+i, node n's children are 2n and 2n+1, every internal node
// 1..k-1 holds the loser of the match played there, and node 0 the
// overall winner. Any k works, not only powers of two. Replacing the
// winner's key costs one comparison per level on its leaf-to-root path.
type loserTree struct {
	keys []mergeKey // per stream
	node []int      // node[0] = winner; node[1..k-1] = losers
}

// setKey loads stream i's head key, the exhausted key at end of stream.
func (t *loserTree) setKey(i int, s *DroppingStream) error {
	e, err := s.head()
	if err != nil {
		return err
	}
	if e == nil {
		// stream = k+i keeps exhausted keys distinct and after every
		// record's, whose stream is below k.
		t.keys[i] = mergeKey{math.MaxUint64, math.MaxUint64, len(t.keys) + i}
		return nil
	}
	t.keys[i] = mergeKey{e.Timestamp, uint64(e.Pid)<<32 | uint64(e.Dropping), i}
	return nil
}

// build plays every match below node n and returns the subtree's winner.
func (t *loserTree) build(n int) int {
	k := len(t.keys)
	if n >= k {
		return n - k
	}
	l, r := t.build(2*n), t.build(2*n+1)
	if t.keys[r].less(&t.keys[l]) {
		l, r = r, l
	}
	t.node[n] = r
	return l
}

// replay re-plays the winner's path to the root after its key changed.
func (t *loserTree) replay() {
	w := t.node[0]
	for n := (w + len(t.keys)) >> 1; n > 0; n >>= 1 {
		if l := t.node[n]; t.keys[l].less(&t.keys[w]) {
			t.node[n], w = w, l
		}
	}
	t.node[0] = w
}

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
	idx := &Index{}
	k := len(streams)
	if k == 0 {
		return idx, 0, nil
	}
	t := loserTree{keys: make([]mergeKey, k), node: make([]int, k)}
	for i, s := range streams {
		if err := t.setKey(i, s); err != nil {
			return nil, 0, err
		}
	}
	t.node[0] = t.build(1)
	var newest uint64
	for w := t.node[0]; t.keys[w].stream < k; w = t.node[0] {
		s := streams[w]
		e := &s.ents[s.pos]
		idx.insert(*e)
		newest = e.Timestamp // the tree yields ascending timestamps
		s.pos++
		if err := t.setKey(w, s); err != nil {
			return nil, 0, err
		}
		t.replay()
	}
	return idx, newest, nil
}
