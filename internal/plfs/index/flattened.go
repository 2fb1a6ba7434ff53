package index

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"ldplfs/internal/posix"
)

// The flattened global index record: the resolved, non-overlapping extent
// table of an entire container persisted as one canonical file, so a cold
// open loads O(extents) instead of re-merging O(total-entries) across
// every writer's index dropping — PLFS's index flattening, made crash-safe
// and self-invalidating.
//
// The table is stored as its description, not its expansion: a strided
// pattern — an N-1 checkpoint's writer putting equal blocks a fixed
// distance apart, or one writer streaming appends — is one run record
// (offset, count, length, stride, as an MPI vector datatype states it),
// and only the extents that fold into no run are spelled out one by one.
//
// On-disk layout, version 2 (all fields little-endian):
//
//	header (56 bytes):
//	  magic       8  FlattenedMagic ("PLFSFLT1")
//	  version     8  FlattenedVersion
//	  generation  8  must match the <gen> in the file name
//	  rawsig      8  RawSignature of the droppings the table was built from
//	  size        8  logical file size (may exceed the last extent's end)
//	  runs        8  number of run records
//	  singles     8  number of single-extent records
//	run records (runs × 48 bytes, sorted by logical start):
//	  logical 8, length 8, physical 8, stride 8, count 8, pid 4, dropping 4
//	  — count ≥ 2 extents of one dropping, extent k at logical + k·stride
//	  and physical + k·length (stride ≥ length)
//	single records (singles × 32 bytes, sorted by logical start):
//	  logical 8, length 8, physical 8, pid 4, dropping 4
//	trailer (8 bytes):
//	  checksum    8  FNV-1a over header + records
//
// Version 1 is the same with a 48-byte header whose one count is of
// singles, and no runs; it is still read. A table that folds into no run
// costs v1's bytes plus the one extra count word.
//
// A record is trusted only when every structural check passes AND its
// rawsig equals the container's current raw-dropping signature AND no
// writer holds the container open; any mismatch, torn tail, checksum
// failure or overlapping extent makes readers silently fall back to the
// streaming merge of the raw droppings, so a flattened record can delay
// but never corrupt a read.
const (
	// FlattenedMagic identifies a flattened global index file.
	FlattenedMagic uint64 = 0x504c4653464c5431 // "PLFSFLT1"

	// FlattenedVersion is the flattened record format version written.
	FlattenedVersion = 2

	// FlattenedHeaderSize is the current header length in bytes.
	FlattenedHeaderSize = 56

	// FlattenedRunSize is the per-run record length in bytes.
	FlattenedRunSize = 48

	// FlattenedExtentSize is the single-extent record length in bytes,
	// the same in both versions.
	FlattenedExtentSize = 32

	// flattenedV1HeaderSize is a version 1 header: one count, of singles.
	flattenedV1HeaderSize = 48

	// flattenedTrailerSize holds the whole-file checksum.
	flattenedTrailerSize = 8
)

// Flattened is a flattened global index record: its header fields and
// the extent table it describes, expanded into an index.
type Flattened struct {
	Version    uint64 // the format version of the record's bytes
	Generation uint64
	RawSig     uint64
	Runs       int    // run records (none in a version 1 record)
	Singles    int    // single-extent records
	Index      *Index // the table and the logical size
}

// FlattenedBound is the most extents a table resolved from rawEntries
// raw index entries can hold: an insert adds at most two extents net (it
// splits one extent into a left piece, itself and a right piece) and a
// truncate only removes. A record claiming more was not built from the
// droppings it sits beside, so readers refuse it before allocating.
func FlattenedBound(rawEntries int64) int64 {
	return 2 * rawEntries
}

// maxFlattenedBytes is the length of the largest record a table of
// maxExtents extents can need: every extent a single.
func maxFlattenedBytes(maxExtents int64) int64 {
	const fixed = FlattenedHeaderSize + flattenedTrailerSize
	if maxExtents > (math.MaxInt64-fixed)/FlattenedExtentSize {
		return math.MaxInt64
	}
	return fixed + maxExtents*FlattenedExtentSize
}

// RawSignature summarises the raw index droppings a flattened record was
// built from: FNV-1a over (container-relative path, size) pairs in the
// deterministic container listing order — each pair serialised as the
// path bytes, a NUL separator, and the size in little-endian. Unlike the
// read cache's mtime-bearing Signature it survives byte-preserving
// copies and renames (fixture checkouts, container moves), while still
// changing whenever a dropping grows, shrinks, appears or disappears —
// droppings are append-only logs, so (name, size) pins their contents.
func RawSignature(relPaths []string, sizes []int64) uint64 {
	buf := make([]byte, 0, 64*len(relPaths))
	var sz [8]byte
	for i, p := range relPaths {
		buf = append(buf, p...)
		buf = append(buf, 0)
		binary.LittleEndian.PutUint64(sz[:], uint64(sizes[i]))
		buf = append(buf, sz[:]...)
	}
	return fnvSum(buf)
}

// fnvSum is FNV-1a, the checksum and signature hash of the flattened
// format.
func fnvSum(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// run is one record of the table's description: count extents of one
// dropping, extent k at logical + k·stride and physical + k·length. A
// single is a run of count 1.
type run struct {
	logical, length, physical, stride, count int64
	pid, dropping                            uint32
}

func (r *run) extent(k int64) Extent {
	return Extent{
		LogicalOffset:  r.logical + k*r.stride,
		Length:         r.length,
		PhysicalOffset: r.physical + k*r.length,
		Pid:            r.pid,
		Dropping:       r.dropping,
	}
}

func putRun(b []byte, r *run) {
	binary.LittleEndian.PutUint64(b[0:], uint64(r.logical))
	binary.LittleEndian.PutUint64(b[8:], uint64(r.length))
	binary.LittleEndian.PutUint64(b[16:], uint64(r.physical))
	binary.LittleEndian.PutUint64(b[24:], uint64(r.stride))
	binary.LittleEndian.PutUint64(b[32:], uint64(r.count))
	binary.LittleEndian.PutUint32(b[40:], r.pid)
	binary.LittleEndian.PutUint32(b[44:], r.dropping)
}

func getRun(b []byte) run {
	return run{
		logical:  int64(binary.LittleEndian.Uint64(b[0:])),
		length:   int64(binary.LittleEndian.Uint64(b[8:])),
		physical: int64(binary.LittleEndian.Uint64(b[16:])),
		stride:   int64(binary.LittleEndian.Uint64(b[24:])),
		count:    int64(binary.LittleEndian.Uint64(b[32:])),
		pid:      binary.LittleEndian.Uint32(b[40:]),
		dropping: binary.LittleEndian.Uint32(b[44:]),
	}
}

func putSingle(b []byte, x *Extent) {
	binary.LittleEndian.PutUint64(b[0:], uint64(x.LogicalOffset))
	binary.LittleEndian.PutUint64(b[8:], uint64(x.Length))
	binary.LittleEndian.PutUint64(b[16:], uint64(x.PhysicalOffset))
	binary.LittleEndian.PutUint32(b[24:], x.Pid)
	binary.LittleEndian.PutUint32(b[28:], x.Dropping)
}

func getSingle(b []byte) Extent {
	return Extent{
		LogicalOffset:  int64(binary.LittleEndian.Uint64(b[0:])),
		Length:         int64(binary.LittleEndian.Uint64(b[8:])),
		PhysicalOffset: int64(binary.LittleEndian.Uint64(b[16:])),
		Pid:            binary.LittleEndian.Uint32(b[24:]),
		Dropping:       binary.LittleEndian.Uint32(b[28:]),
	}
}

// MarshalFlattened folds f.Index into runs and singles and encodes it,
// with f's generation and raw signature, as a current-version record. It
// sets f.Version, f.Runs and f.Singles to what it wrote.
func MarshalFlattened(f *Flattened) []byte {
	ix := f.Index
	// Small tables fold without touching the heap: the stream of a
	// writer that closes often flattens on every last close.
	var runBuf [8]run
	var bitBuf [64]uint64
	runs, inRun := ix.fold(runBuf[:0], bitBuf[:])
	singles := ix.n
	for i := range runs {
		singles -= int(runs[i].count)
	}
	f.Version, f.Runs, f.Singles = FlattenedVersion, len(runs), singles
	buf := make([]byte, FlattenedHeaderSize+len(runs)*FlattenedRunSize+singles*FlattenedExtentSize+flattenedTrailerSize)
	binary.LittleEndian.PutUint64(buf[0:], FlattenedMagic)
	binary.LittleEndian.PutUint64(buf[8:], FlattenedVersion)
	binary.LittleEndian.PutUint64(buf[16:], f.Generation)
	binary.LittleEndian.PutUint64(buf[24:], f.RawSig)
	binary.LittleEndian.PutUint64(buf[32:], uint64(ix.size))
	binary.LittleEndian.PutUint64(buf[40:], uint64(len(runs)))
	binary.LittleEndian.PutUint64(buf[48:], uint64(singles))
	off := FlattenedHeaderSize
	for i := range runs {
		putRun(buf[off:], &runs[i])
		off += FlattenedRunSize
	}
	i := 0
	for _, c := range ix.chunks {
		for k := range c.ext {
			if inRun[i>>6]&(1<<(i&63)) == 0 {
				putSingle(buf[off:], &c.ext[k])
				off += FlattenedExtentSize
			}
			i++
		}
	}
	binary.LittleEndian.PutUint64(buf[off:], fnvSum(buf[:off]))
	return buf
}

// foldSlot is the fold's state for one dropping: its two newest open
// runs, newest first (count 0 = none), each with the ordinal of its
// first extent in the table.
type foldSlot struct {
	key   uint64 // pid<<32 | dropping
	used  bool
	open  [2]run
	first [2]int
}

// foldTable finds a dropping's slot: open addressing with linear
// probing, kept at most half full.
type foldTable struct {
	slots []foldSlot
	shift uint // 64 - log2(len(slots))
	used  int
}

func (t *foldTable) slot(key uint64) *foldSlot {
	mask := len(t.slots) - 1
	for h := int((key * 0x9e3779b97f4a7c15) >> t.shift); ; h = (h + 1) & mask {
		s := &t.slots[h]
		if s.used && s.key == key {
			return s
		}
		if s.used {
			continue
		}
		if 2*(t.used+1) > len(t.slots) {
			t.grow()
			return t.slot(key)
		}
		s.used, s.key = true, key
		t.used++
		return s
	}
}

func (t *foldTable) grow() {
	old := t.slots
	t.slots = make([]foldSlot, 2*len(old))
	t.shift--
	t.used = 0
	for k := range old {
		if old[k].used {
			*t.slot(old[k].key) = old[k]
		}
	}
}

// take extends one of s's open runs by x, the table's extent i, and
// reports whether one did. A run takes an extent of equal length that
// sits right after the run's last extent in the dropping and one stride
// after it in the file (its second extent sets the stride). Every extent
// a run covers is marked in inRun.
func (s *foldSlot) take(x *Extent, i int, inRun []uint64) bool {
	if !foldable(x) {
		return false
	}
	for k := range s.open {
		o := &s.open[k]
		if o.count == 0 || x.Length != o.length || x.PhysicalOffset != o.physical+o.count*o.length {
			continue
		}
		if o.count == 1 {
			o.stride = x.LogicalOffset - o.logical
			inRun[s.first[k]>>6] |= 1 << (s.first[k] & 63)
		} else if x.LogicalOffset != o.logical+o.count*o.stride {
			continue
		}
		o.count++
		inRun[i>>6] |= 1 << (i & 63)
		if k == 1 {
			s.open[0], s.open[1] = s.open[1], s.open[0]
			s.first[0], s.first[1] = s.first[1], s.first[0]
		}
		return true
	}
	return false
}

// foldable reports whether x may join a run: well formed, with ends
// that do not overflow.
func foldable(x *Extent) bool {
	return x.Length > 0 && x.LogicalOffset >= 0 && x.PhysicalOffset >= 0 &&
		x.LogicalOffset <= math.MaxInt64-x.Length && x.PhysicalOffset <= math.MaxInt64-x.Length
}

// fold describes the table as runs: each run ≥ 2 extents of one dropping
// with equal lengths, a constant logical stride and contiguous physical
// offsets. Each dropping keeps its two newest runs open, which finds two
// progressions interleaved in one dropping (evens then odds from one
// writer) as well as one. It appends the runs to runs, sorted by logical
// start, and returns them with a bitset of the extents (by ordinal in the
// table) they cover, in bits if it is long enough; the rest are singles.
// Extents whose end would overflow never fold: the record keeps them as
// singles and the reader's checks decide.
func (ix *Index) fold(runs []run, bits []uint64) ([]run, []uint64) {
	inRun := bits[:0]
	if words := (ix.n + 63) / 64; words <= len(bits) {
		inRun = bits[:words]
		clear(inRun)
	} else {
		inRun = make([]uint64, words)
	}
	var small [16]foldSlot
	t := foldTable{slots: small[:], shift: 64 - 4}
	var s *foldSlot
	i := 0
	for _, c := range ix.chunks {
		for xi := range c.ext {
			x := &c.ext[xi]
			key := uint64(x.Pid)<<32 | uint64(x.Dropping)
			if s == nil || s.key != key {
				s = t.slot(key)
			}
			if !s.take(x, i, inRun) {
				if s.open[1].count >= 2 {
					runs = append(runs, s.open[1])
				}
				s.open[1], s.first[1] = s.open[0], s.first[0]
				s.open[0], s.first[0] = run{}, i
				if foldable(x) {
					s.open[0] = run{logical: x.LogicalOffset, length: x.Length, physical: x.PhysicalOffset,
						count: 1, pid: x.Pid, dropping: x.Dropping}
				}
			}
			i++
		}
	}
	for k := range t.slots {
		for _, o := range t.slots[k].open {
			if o.count >= 2 {
				runs = append(runs, o)
			}
		}
	}
	slices.SortFunc(runs, func(a, b run) int { return cmp.Compare(a.logical, b.logical) })
	return runs, inRun
}

// UnmarshalFlattened parses and validates a version 1 or 2 record and
// expands its table into an index. Every structural property a reader
// relies on is checked, on the expanded table: exact length (a torn tail
// is a hard reject, not a truncation — the record is written atomically,
// so a short file is damage), magic, version, checksum, positive lengths
// and non-negative offsets, no overflowing extent or run end, each
// section sorted, and a sorted, non-overlapping table whose span fits the
// recorded size. maxExtents (FlattenedBound of the droppings' entries)
// bounds the expanded table before any of it is allocated.
func UnmarshalFlattened(data []byte, maxExtents int64) (*Flattened, error) {
	if len(data) < flattenedV1HeaderSize+flattenedTrailerSize {
		return nil, fmt.Errorf("index: flattened record too short (%d bytes)", len(data))
	}
	if got := binary.LittleEndian.Uint64(data[0:]); got != FlattenedMagic {
		return nil, fmt.Errorf("index: flattened record: bad magic %#x", got)
	}
	f := &Flattened{
		Version:    binary.LittleEndian.Uint64(data[8:]),
		Generation: binary.LittleEndian.Uint64(data[16:]),
		RawSig:     binary.LittleEndian.Uint64(data[24:]),
	}
	var hdr int
	var nRuns, nSingles uint64
	switch f.Version {
	case 1:
		hdr, nSingles = flattenedV1HeaderSize, binary.LittleEndian.Uint64(data[40:])
	case FlattenedVersion:
		if len(data) < FlattenedHeaderSize+flattenedTrailerSize {
			return nil, fmt.Errorf("index: flattened record too short (%d bytes)", len(data))
		}
		hdr = FlattenedHeaderSize
		nRuns, nSingles = binary.LittleEndian.Uint64(data[40:]), binary.LittleEndian.Uint64(data[48:])
	default:
		return nil, fmt.Errorf("index: flattened record: unsupported version %d", f.Version)
	}
	// Bound the counts by the bytes before any arithmetic on them: a
	// forged header must not drive an overflowing length check.
	body := uint64(len(data) - hdr - flattenedTrailerSize)
	if nRuns > body/FlattenedRunSize || nSingles > body/FlattenedExtentSize ||
		nRuns*FlattenedRunSize+nSingles*FlattenedExtentSize != body {
		return nil, fmt.Errorf("index: flattened record: %d bytes do not fit %d runs and %d singles", len(data), nRuns, nSingles)
	}
	end := len(data) - flattenedTrailerSize
	if got, sum := binary.LittleEndian.Uint64(data[end:]), fnvSum(data[:end]); got != sum {
		return nil, fmt.Errorf("index: flattened record: checksum mismatch (got %#x want %#x)", got, sum)
	}
	f.Runs, f.Singles = int(nRuns), int(nSingles)
	size := int64(binary.LittleEndian.Uint64(data[32:]))
	if size < 0 {
		return nil, fmt.Errorf("index: flattened record: negative size %d", size)
	}
	singles := data[hdr+f.Runs*FlattenedRunSize : end]
	var runBuf [16]run
	runs, total, err := checkRuns(runBuf[:0], data[hdr:hdr+f.Runs*FlattenedRunSize], f.Runs, maxExtents)
	if err != nil {
		return nil, err
	}
	if err := checkSingles(singles, f.Singles); err != nil {
		return nil, err
	}
	if total += int64(f.Singles); total > maxExtents {
		return nil, fmt.Errorf("index: flattened record: %d extents, more than the %d its droppings can produce", total, maxExtents)
	}
	if f.Index, err = expand(runs, singles, int(total), size); err != nil {
		return nil, err
	}
	return f, nil
}

// checkRuns decodes the n runs of the run section into runs (reusing its
// capacity) and checks them: each well formed and its ends free of
// overflow, starts ascending, and the extents they expand to — returned
// as total — within maxExtents.
func checkRuns(runs []run, data []byte, n int, maxExtents int64) ([]run, int64, error) {
	if cap(runs) < n {
		runs = make([]run, n)
	}
	runs = runs[:n]
	var total int64
	for i := range runs {
		r := getRun(data[i*FlattenedRunSize:])
		if r.length <= 0 || r.logical < 0 || r.physical < 0 || r.count < 2 || r.stride < r.length {
			return nil, 0, fmt.Errorf("index: flattened record: run %d malformed (%+v)", i, r)
		}
		if r.count > maxExtents-total {
			return nil, 0, fmt.Errorf("index: flattened record: run %d takes the table past the %d extents its droppings can produce", i, maxExtents)
		}
		// Overflowing ends would wrap negative and defeat the order and
		// size checks; a checksum is no defence against a forged record.
		if r.stride > (math.MaxInt64-r.logical-r.length)/(r.count-1) ||
			r.length > (math.MaxInt64-r.physical)/r.count {
			return nil, 0, fmt.Errorf("index: flattened record: run %d end overflows (%+v)", i, r)
		}
		if i > 0 && r.logical <= runs[i-1].logical {
			return nil, 0, fmt.Errorf("index: flattened record: run %d at %d out of order", i, r.logical)
		}
		total += r.count
		runs[i] = r
	}
	return runs, total, nil
}

// checkSingles checks the single section: each extent well formed, its
// end free of overflow, and the section sorted and non-overlapping.
func checkSingles(data []byte, n int) error {
	var prevEnd int64
	for i := 0; i < n; i++ {
		x := getSingle(data[i*FlattenedExtentSize:])
		if x.Length <= 0 || x.LogicalOffset < 0 || x.PhysicalOffset < 0 {
			return fmt.Errorf("index: flattened record: extent %d malformed (%+v)", i, x)
		}
		if x.LogicalOffset > math.MaxInt64-x.Length {
			return fmt.Errorf("index: flattened record: extent %d end overflows (%+v)", i, x)
		}
		if x.LogicalOffset < prevEnd {
			return fmt.Errorf("index: flattened record: extent %d at %d overlaps previous end %d",
				i, x.LogicalOffset, prevEnd)
		}
		prevEnd = x.LogicalOffset + x.Length
	}
	return nil
}

// expansion is the output side of expand: total extents written in
// order into one backing array, with the singles section merged in as
// the runs go by.
type expansion struct {
	out     []Extent
	n       int
	prevEnd int64
	singles []byte
	next    int64 // logical start of the next single; MaxInt64 when none
}

// put appends x, reporting false if x would break the table's order.
func (e *expansion) put(x Extent) bool {
	if x.LogicalOffset < e.prevEnd {
		return false
	}
	e.out[e.n] = x
	e.n++
	e.prevEnd = x.LogicalOffset + x.Length
	return true
}

// singlesBefore appends the singles that start before off.
func (e *expansion) singlesBefore(off int64) bool {
	for e.next < off {
		if !e.put(getSingle(e.singles)) {
			return false
		}
		e.singles = e.singles[FlattenedExtentSize:]
		e.next = math.MaxInt64
		if len(e.singles) > 0 {
			e.next = int64(binary.LittleEndian.Uint64(e.singles))
		}
	}
	return true
}

// expand writes the checked runs and singles as an index of total
// extents in 256-extent chunks over one backing array. Runs that share
// stride and count and start within one stride of the first interleave
// exactly — one row of blocks per stride, as N writers lay an N-1
// strided file — so the walk emits such a group row by row, merging the
// singles in by logical start. Any other arrangement that breaks the
// walk's order (runs whose spans overlap without sharing a stride) takes
// the general path, which sorts the whole expansion; either way the
// table must come out sorted and non-overlapping.
func expand(runs []run, singles []byte, total int, size int64) (*Index, error) {
	e := expansion{out: make([]Extent, total), singles: singles, next: math.MaxInt64}
	if len(singles) > 0 {
		e.next = int64(binary.LittleEndian.Uint64(singles))
	}
	ordered := true
walk:
	for i := 0; i < len(runs); {
		r0 := &runs[i]
		j := i + 1
		for j < len(runs) && runs[j].stride == r0.stride && runs[j].count == r0.count &&
			runs[j].logical-r0.logical < r0.stride {
			j++
		}
		group := runs[i:j]
		for k := int64(0); k < r0.count; k++ {
			for g := range group {
				x := group[g].extent(k)
				if (e.next < x.LogicalOffset && !e.singlesBefore(x.LogicalOffset)) || !e.put(x) {
					ordered = false
					break walk
				}
			}
		}
		i = j
	}
	if ordered && !e.singlesBefore(math.MaxInt64) {
		ordered = false
	}
	if !ordered {
		e.n = 0
		for i := range runs {
			for k := int64(0); k < runs[i].count; k++ {
				e.out[e.n] = runs[i].extent(k)
				e.n++
			}
		}
		for ; e.n < total; e.n++ {
			e.out[e.n] = getSingle(singles)
			singles = singles[FlattenedExtentSize:]
		}
		slices.SortFunc(e.out, func(a, b Extent) int { return cmp.Compare(a.LogicalOffset, b.LogicalOffset) })
		e.n, e.prevEnd = 0, 0
		for _, x := range e.out {
			if !e.put(x) {
				return nil, fmt.Errorf("index: flattened record: extent at %d overlaps previous end %d",
					x.LogicalOffset, e.prevEnd)
			}
		}
	}
	if size < e.prevEnd {
		return nil, fmt.Errorf("index: flattened record: size %d below extent end %d", size, e.prevEnd)
	}
	ix := &Index{size: size, n: total}
	nc := (total + chunkTarget - 1) / chunkTarget
	cs := make([]chunk, nc)
	ix.chunks = make([]*chunk, nc)
	for c := range cs {
		lo, hi := c*chunkTarget, min((c+1)*chunkTarget, total)
		cs[c].ext = e.out[lo:hi:hi]
		ix.chunks[c] = &cs[c]
	}
	return ix, nil
}

// WriteFlattened persists f at path atomically: MarshalFlattened's bytes
// go to fd, the caller's descriptor on the temp file tmp beside path,
// which is fsynced, closed and renamed over the final name, so readers
// only ever observe a complete record or none at all. That holds only
// while tmp is this writer's alone: two writers sharing one temp file
// write over each other's bytes, and the one that renames publishes
// whatever the other has written so far. So the caller creates tmp with
// O_EXCL, under a name no concurrent writer of path — in this process or
// another — means to share. fd is closed on every path, and tmp removed
// on failure.
func WriteFlattened(fs posix.FS, path, tmp string, fd int, f *Flattened) error {
	data := MarshalFlattened(f)
	if _, err := posix.WriteFull(fs, fd, data, 0); err != nil {
		fs.Close(fd)
		fs.Unlink(tmp)
		return fmt.Errorf("index: write flattened %s: %w", tmp, err)
	}
	if err := fs.Fsync(fd); err != nil {
		fs.Close(fd)
		fs.Unlink(tmp)
		return fmt.Errorf("index: sync flattened %s: %w", tmp, err)
	}
	if err := fs.Close(fd); err != nil {
		fs.Unlink(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Unlink(tmp)
		return fmt.Errorf("index: publish flattened %s: %w", path, err)
	}
	return nil
}

// ReadFlattened loads, validates and expands the flattened record at
// path as a listing saw it, size bytes long, for a container whose
// droppings can produce at most maxExtents extents (FlattenedBound). A
// size longer than any record of that many extents is refused before
// the file is opened. Exactly size bytes are read: a file that turns
// out shorter fails the read, and one that turns out longer fails the
// parse, since a record's length is fixed by its header.
func ReadFlattened(fs posix.FS, path string, size, maxExtents int64) (*Flattened, error) {
	if limit := maxFlattenedBytes(maxExtents); size > limit {
		return nil, fmt.Errorf("index: flattened %s: %d bytes, longer than the %d a record of its droppings' %d extents can need",
			path, size, limit, maxExtents)
	}
	fd, err := fs.Open(path, posix.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("index: open flattened %s: %w", path, err)
	}
	defer fs.Close(fd)
	data := make([]byte, size)
	if err := posix.ReadFull(fs, fd, data, 0); err != nil {
		return nil, fmt.Errorf("index: read flattened %s: %w", path, err)
	}
	f, err := UnmarshalFlattened(data, maxExtents)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
