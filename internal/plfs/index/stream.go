package index

import (
	"errors"
	"fmt"
	"math"

	"ldplfs/internal/posix"
)

// ErrUnsorted reports that a dropping's records are not in ascending
// timestamp order, so it cannot participate in a streaming merge. Real
// droppings are always timestamp-sorted (each writer stamps records from
// a monotonic clock), but a hand-built or adversarial dropping may not
// be; the merge and the clock seed then fall back to the slurp-and-sort
// path (ReadDropping, clipped at the listed size), which handles any
// order.
var ErrUnsorted = errors.New("index: dropping records out of timestamp order")

// DefaultStreamChunk is the number of records a DroppingStream decodes
// per backend read. The streaming merge's memory bound is droppings ×
// min(DefaultStreamChunk, records per dropping) × EntrySize, independent
// of how many records the droppings hold in total: a stream decodes a
// chunk in the memory it read it into (see fill).
const DefaultStreamChunk = 2048

// DroppingStream reads an index dropping incrementally: header first,
// then fixed-size chunks of records on demand, each decoded and checked
// (checksum, in-stream timestamp order) as it is read. It is the
// memory-bounded replacement for slurping whole droppings before a merge.
//
// A stream yields the whole records up to the size it was opened with,
// and no further. A dropping that turns out shorter yields the whole
// records that arrived: a short read is the end of the stream, never an
// error.
type DroppingStream struct {
	fs   posix.FS
	fd   int
	path string

	off   int64 // next unread byte (record-aligned)
	end   int64 // last whole-record boundary to read to
	chunk int

	hdr  [headerSize]byte // the header, read with the first chunk
	vec  [2][]byte        // the first read's vector, held here so it does not escape
	buf  []byte           // the current chunk as read
	ents []Entry          // its records, decoded and checked, over buf's memory
	pos  int              // next record of ents to yield
	// bad is the failure of the record just past ents — a corrupt record
	// or one out of timestamp order — held until the reader gets there.
	bad    error
	lastTS uint64

	// fold, for a Fold's stream, is where the records come from instead
	// of a backend: run and k are the next record's run and its ordinal
	// in it (see fillFold).
	fold *Fold
	run  int
	k    int64
}

// OpenDroppingStream opens the index dropping at path as a listing saw
// it, size bytes long: one read brings the header and the first chunk,
// with no Fstat and no read of the header alone, and the stream ends at
// the last whole record within size — a merge then holds exactly the
// records its walk's signature describes. chunkRecords bounds the
// records buffered per read (0 = DefaultStreamChunk). The in-flight rule
// of wholeRecords applies to size and to what the read returns: under a
// header's length is zero records, a full header with a bad magic or
// version is fatal.
func OpenDroppingStream(fs posix.FS, path string, size int64, chunkRecords int) (*DroppingStream, error) {
	if chunkRecords <= 0 {
		chunkRecords = DefaultStreamChunk
	}
	fd, err := fs.Open(path, posix.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("index: open dropping %s: %w", path, err)
	}
	s := &DroppingStream{fs: fs, fd: fd, path: path, off: headerSize, end: headerSize, chunk: chunkRecords}
	if size < headerSize {
		return s, nil
	}
	s.end = headerSize + (size-headerSize)/EntrySize*EntrySize
	if err := s.fill(); err != nil {
		fs.Close(fd)
		return nil, err
	}
	return s, nil
}

// fill reads the next chunk into buf and decodes the chunk's records,
// in place, into ents (decodeRecords: checksums checked four records at
// a time, the same FNV-1a values Unmarshal checks), so a stream holds
// one raw chunk, decoded or not, with no buffer beside it. The first
// fill reads from byte 0 as one vectored read, the header into hdr and
// the records into buf, and checks the header; buf then holds records
// alone, and its size is the chunk's. A read that comes up short ends
// the stream at the last whole record it brought. Decoding stops at the
// first record that fails its checksum or goes back in time; that
// failure is held in bad, behind the good records before it, so it
// surfaces exactly when a reader reaches it. Only a failed read or a bad
// header is returned.
func (s *DroppingStream) fill() error {
	if s.fold != nil {
		s.fillFold()
		return nil
	}
	n := int(min(int64(s.chunk), (s.end-s.off)/EntrySize))
	want := n * EntrySize
	if cap(s.buf) < want {
		s.buf = make([]byte, want)
	}
	raw := s.buf[:want]
	s.ents, s.pos = nil, 0
	var got int
	var err error
	if s.off == headerSize {
		s.vec = [2][]byte{s.hdr[:], raw}
		var m int64
		if m, err = posix.Preadv(s.fs, s.fd, s.vec[:], 0); err == nil {
			if _, err := wholeRecords(s.path, m, s.hdr[:]); err != nil {
				return err
			}
		}
		got = int(m) - headerSize
	} else {
		got, err = readUpTo(s.fs, s.fd, raw, s.off)
	}
	if err != nil {
		return fmt.Errorf("index: read dropping %s: %w", s.path, err)
	}
	if got < want {
		n = max(got, 0) / EntrySize
		s.end = s.off + int64(n)*EntrySize
	}
	if n == 0 {
		return nil
	}
	first := (s.off - headerSize) / EntrySize
	s.off += int64(n) * EntrySize
	// A heap allocation of 48 bytes or more is 8-byte aligned, as the
	// in-place Entry slice needs.
	ents, err := decodeRecords(raw[:n*EntrySize], &s.lastTS)
	if err != nil {
		s.bad = recordError(s.path, first+int64(len(ents)), err)
	}
	s.ents = ents
	return nil
}

// readUpTo reads p at off until p is full or the file ends, returning
// how many bytes arrived.
func readUpTo(fs posix.FS, fd int, p []byte, off int64) (int, error) {
	got := 0
	for got < len(p) {
		n, err := fs.Pread(fd, p[got:], off+int64(got))
		if err != nil {
			return got, err
		}
		if n <= 0 {
			break
		}
		got += n
	}
	return got, nil
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

// Close releases the stream's descriptor, if it has one.
func (s *DroppingStream) Close() error {
	if s.fold != nil {
		return nil
	}
	return s.fs.Close(s.fd)
}

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
