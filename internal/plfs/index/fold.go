package index

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// MaxFoldRuns caps the runs one Fold holds. A writer whose records fold
// into no more than this many runs keeps them in memory for the close
// that flattens the container; past the cap the fold is dropped, and
// its dropping is read back like any other. One run covers a writer of
// N-1 strided blocks, a streaming appender and each writer of a
// round-robin wide write, so real writers stay at a handful; a random
// writer, whose records fold two to a run at best, spills after 512 to
// 1024 records, its fold then 32 KiB.
const MaxFoldRuns = 512

// foldRunSize is one run's length in a fold encoding.
const foldRunSize = 64

// foldRun is count records of one writer, each continuing the one
// before it exactly: record k is at logical + k·stride, length bytes,
// at physical + k·length in the data dropping, stamped ts + k·tsStride.
// The arithmetic wraps as Go's integers do, so any record sequence that
// extends a run is reproduced bit for bit.
type foldRun struct {
	logical, length, physical, stride int64
	ts, tsStride                      uint64
	count                             int64
	pid, dropping                     uint32
}

func (r *foldRun) entry(k int64) Entry {
	return Entry{
		LogicalOffset:  r.logical + k*r.stride,
		Length:         r.length,
		PhysicalOffset: r.physical + k*r.length,
		Timestamp:      r.ts + uint64(k)*r.tsStride,
		Pid:            r.pid,
		Dropping:       r.dropping,
	}
}

// extends reports whether e is the run's next record: every field
// continues it exactly. A run of one record takes any record of its
// length and dropping that lands right after it in the data dropping;
// that second record fixes the strides.
func (r *foldRun) extends(e *Entry) bool {
	if e.Length != r.length || e.Pid != r.pid || e.Dropping != r.dropping || e.PhysicalOffset != r.physical+r.count*r.length {
		return false
	}
	if r.count == 1 {
		r.stride, r.tsStride = e.LogicalOffset-r.logical, e.Timestamp-r.ts
		return true
	}
	return e.LogicalOffset == r.logical+r.count*r.stride && e.Timestamp == r.ts+uint64(r.count)*r.tsStride
}

// Fold is one writer's index records, in the order it appended them,
// folded into timestamped runs: what its index dropping holds, kept in
// memory so that a flatten by the same close need not read it back. A
// fold is sound only for a dropping its writer created: a dropping it
// resumed holds records the fold never saw. The zero value is empty.
type Fold struct {
	runs    []foldRun
	records int64 // -1 once spent
}

// Append adds e. It reports false when e would take the fold past
// MaxFoldRuns: the fold is then spent — it takes no more records and
// holds no dropping — and the caller drops it.
func (f *Fold) Append(e Entry) bool {
	if f.records < 0 {
		return false
	}
	if n := len(f.runs); n > 0 && f.runs[n-1].extends(&e) {
		f.runs[n-1].count++
		f.records++
		return true
	}
	if len(f.runs) == MaxFoldRuns {
		f.runs, f.records = nil, -1
		return false
	}
	f.runs = append(f.runs, foldRun{logical: e.LogicalOffset, length: e.Length, physical: e.PhysicalOffset,
		ts: e.Timestamp, count: 1, pid: e.Pid, dropping: e.Dropping})
	f.records++
	return true
}

// Holds reports whether a dropping listed size bytes long holds exactly
// the fold's records — a header and one whole record per record
// appended, the evidence a flattened record's raw signature trusts.
func (f *Fold) Holds(size int64) bool {
	return size >= headerSize && (size-headerSize)%EntrySize == 0 && (size-headerSize)/EntrySize == f.records
}

// Stream returns the fold's records as a DroppingStream over its index
// dropping would yield them: in append order, chunkRecords at a time
// (0 = DefaultStreamChunk), ending at the first record that goes back in
// time with ErrUnsorted. It reads no backend, and its Close does nothing.
func (f *Fold) Stream(chunkRecords int) *DroppingStream {
	if chunkRecords <= 0 {
		chunkRecords = DefaultStreamChunk
	}
	return &DroppingStream{fold: f, off: headerSize, end: headerSize + f.records*EntrySize, chunk: chunkRecords}
}

// fillFold is fill for a fold's stream: the next chunk's records,
// expanded from the runs at the stream's cursor into ents, checked for
// timestamp order as fill checks what it reads.
func (s *DroppingStream) fillFold() {
	n := int(min(int64(s.chunk), (s.end-s.off)/EntrySize))
	if cap(s.ents) < n {
		s.ents = make([]Entry, n)
	}
	ents := s.ents[:n]
	s.pos = 0
	for i := range ents {
		r := &s.fold.runs[s.run]
		e := r.entry(s.k)
		if s.k++; s.k == r.count {
			s.run, s.k = s.run+1, 0
		}
		if e.Timestamp < s.lastTS {
			ents, s.bad = ents[:i], ErrUnsorted
			break
		}
		ents[i], s.lastTS = e, e.Timestamp
	}
	s.off += int64(n) * EntrySize
	s.ents = ents
}

// foldMagic identifies a fold encoding ("PLFSFOLD").
const foldMagic uint64 = 0x504c4653464f4c44

// EncodeFolds encodes folds, keyed by the path of the index dropping
// each describes, as one instance hands them to another (a collective
// close's ranks to the rank that flattens):
//
//	magic 8, folds 8,
//	per fold, in path order: path length 8, path, records 8, runs 8,
//	  runs × 64 bytes (logical, length, physical, stride, ts, tsStride,
//	  count: 8 each; pid 4, dropping 4),
//	checksum 8: FNV-1a over everything before it.
//
// All fields are little-endian.
func EncodeFolds(folds map[string]*Fold) []byte {
	paths := make([]string, 0, len(folds))
	size := 8 + 8 + 8
	for p, f := range folds {
		paths = append(paths, p)
		size += 8 + len(p) + 8 + 8 + len(f.runs)*foldRunSize
	}
	slices.Sort(paths)
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint64(buf, foldMagic)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(paths)))
	for _, p := range paths {
		f := folds[p]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(p)))
		buf = append(buf, p...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.records))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(f.runs)))
		for i := range f.runs {
			r := &f.runs[i]
			for _, v := range [...]uint64{uint64(r.logical), uint64(r.length), uint64(r.physical), uint64(r.stride), r.ts, r.tsStride, uint64(r.count)} {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
			buf = binary.LittleEndian.AppendUint32(buf, r.pid)
			buf = binary.LittleEndian.AppendUint32(buf, r.dropping)
		}
	}
	return binary.LittleEndian.AppendUint64(buf, fnvSum(buf))
}

// DecodeFolds parses an EncodeFolds encoding and returns the folds of
// the droppings listed reports, by path, at exactly the size their
// records fill (Holds). A fold of any other dropping is skipped unread,
// so a fold that claims more records than its listed dropping holds
// drives no allocation. A damaged encoding — checksum, magic, lengths
// that do not fit the bytes, or runs that do not add up to the records
// they claim — is an error: the caller reads those droppings back.
func DecodeFolds(data []byte, listed func(path string) (size int64, ok bool)) (map[string]*Fold, error) {
	if len(data) < 24 {
		return nil, fmt.Errorf("index: fold encoding too short (%d bytes)", len(data))
	}
	end := len(data) - 8
	if got, sum := binary.LittleEndian.Uint64(data[end:]), fnvSum(data[:end]); got != sum {
		return nil, fmt.Errorf("index: fold encoding: checksum mismatch (got %#x want %#x)", got, sum)
	}
	if got := binary.LittleEndian.Uint64(data); got != foldMagic {
		return nil, fmt.Errorf("index: fold encoding: bad magic %#x", got)
	}
	body := data[16:end]
	n := binary.LittleEndian.Uint64(data[8:])
	if n > uint64(len(body))/24 {
		return nil, fmt.Errorf("index: fold encoding: %d folds do not fit %d bytes", n, len(data))
	}
	out := make(map[string]*Fold)
	next := func(k uint64) ([]byte, bool) {
		if k > uint64(len(body)) {
			return nil, false
		}
		b := body[:k]
		body = body[k:]
		return b, true
	}
	word := func() (uint64, bool) {
		b, ok := next(8)
		if !ok {
			return 0, false
		}
		return binary.LittleEndian.Uint64(b), true
	}
	for i := uint64(0); i < n; i++ {
		plen, ok := word()
		path, ok2 := next(plen)
		records, ok3 := word()
		nruns, ok4 := word()
		if !ok || !ok2 || !ok3 || !ok4 || nruns > uint64(len(body))/foldRunSize {
			return nil, fmt.Errorf("index: fold encoding: fold %d does not fit the bytes", i)
		}
		raw, _ := next(nruns * foldRunSize)
		f := &Fold{records: int64(records)} // past MaxInt64 it holds nothing
		if size, ok := listed(string(path)); !ok || !f.Holds(size) {
			continue
		}
		f.runs = make([]foldRun, nruns)
		var sum int64
		for k := range f.runs {
			b := raw[k*foldRunSize:]
			u := func(j int) uint64 { return binary.LittleEndian.Uint64(b[8*j:]) }
			r := foldRun{logical: int64(u(0)), length: int64(u(1)), physical: int64(u(2)), stride: int64(u(3)),
				ts: u(4), tsStride: u(5), count: int64(u(6)),
				pid: binary.LittleEndian.Uint32(b[56:]), dropping: binary.LittleEndian.Uint32(b[60:])}
			if r.count < 1 || r.count > f.records-sum {
				return nil, fmt.Errorf("index: fold encoding: %s: runs exceed its %d records", path, f.records)
			}
			sum += r.count
			f.runs[k] = r
		}
		if sum != f.records {
			return nil, fmt.Errorf("index: fold encoding: %s: runs hold %d of its %d records", path, sum, f.records)
		}
		out[string(path)] = f
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("index: fold encoding: %d trailing bytes", len(body))
	}
	return out, nil
}
