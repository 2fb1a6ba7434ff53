// Package index implements the PLFS index: the metadata that maps a
// container's logical byte space onto the physical byte space of its data
// droppings.
//
// Every write a process performs against a PLFS file appends the payload to
// that process's data dropping and appends one fixed-size Entry to its index
// dropping. Reading the file back requires merging every index dropping in
// the container into a single global index — a set of non-overlapping
// logical extents where, for overlapping writes, the entry with the highest
// timestamp wins (last writer wins, as in PLFS proper).
//
// The merged index is held as a chunked interval map: the extent table is
// split into bounded chunks ordered by logical offset, so an overlay insert
// touches only the chunks its range covers (binary search over chunk
// boundaries, splice within a chunk) instead of memmoving one monolithic
// sorted slice. Random-offset overlays — the shape an interleaved N-writer
// merge produces — cost O(chunk) each rather than O(extents), while
// sequential appends keep their O(1) fast path.
package index

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Entry records a single logical write. It is the in-memory form of one
// on-disk index record.
type Entry struct {
	LogicalOffset  int64  // offset within the PLFS file the application wrote
	Length         int64  // number of bytes written; 0 marks a size record (see insert)
	PhysicalOffset int64  // offset within the data dropping
	Timestamp      uint64 // logical timestamp; later overwrites earlier
	Pid            uint32 // writer id, selects the data dropping
	Dropping       uint32 // dropping id within the container (hostdir-scoped)
}

// EntrySize is the on-disk size of one index record in bytes.
const EntrySize = 48

// Magic identifies an index dropping header record.
const Magic uint64 = 0x504c465349445831 // "PLFSIDX1"

// Marshal encodes the entry into buf, which must be at least EntrySize long.
func (e Entry) Marshal(buf []byte) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(e.LogicalOffset))
	binary.LittleEndian.PutUint64(buf[8:], uint64(e.Length))
	binary.LittleEndian.PutUint64(buf[16:], uint64(e.PhysicalOffset))
	binary.LittleEndian.PutUint64(buf[24:], e.Timestamp)
	binary.LittleEndian.PutUint32(buf[32:], e.Pid)
	binary.LittleEndian.PutUint32(buf[36:], e.Dropping)
	binary.LittleEndian.PutUint64(buf[40:], e.checksum())
}

// Unmarshal decodes an entry from buf and verifies its checksum.
func (e *Entry) Unmarshal(buf []byte) error {
	if len(buf) < EntrySize {
		return fmt.Errorf("index entry: short buffer (%d bytes)", len(buf))
	}
	e.LogicalOffset = int64(binary.LittleEndian.Uint64(buf[0:]))
	e.Length = int64(binary.LittleEndian.Uint64(buf[8:]))
	e.PhysicalOffset = int64(binary.LittleEndian.Uint64(buf[16:]))
	e.Timestamp = binary.LittleEndian.Uint64(buf[24:])
	e.Pid = binary.LittleEndian.Uint32(buf[32:])
	e.Dropping = binary.LittleEndian.Uint32(buf[36:])
	if got := binary.LittleEndian.Uint64(buf[40:]); got != e.checksum() {
		return fmt.Errorf("index entry: checksum mismatch (got %#x want %#x)", got, e.checksum())
	}
	return nil
}

// checksum is a cheap integrity word over the record fields (FNV-1a over
// the packed fields); it catches torn or misaligned index droppings.
// decodeRecords hashes the same bytes, in the same order, straight from
// raw records.
func (e Entry) checksum() uint64 {
	h := mix8(fnvOffset64, uint64(e.LogicalOffset))
	h = mix8(h, uint64(e.Length))
	h = mix8(h, uint64(e.PhysicalOffset))
	h = mix8(h, e.Timestamp)
	return mix8(h, uint64(e.Pid)<<32|uint64(e.Dropping))
}

// Extent is one contiguous piece of the resolved logical file: Length bytes
// at LogicalOffset live at PhysicalOffset in dropping (Pid, Dropping). A
// zero-filled hole is represented by Hole=true.
type Extent struct {
	LogicalOffset  int64
	Length         int64
	PhysicalOffset int64
	Pid            uint32
	Dropping       uint32
	Hole           bool
}

// chunkTarget is the nominal extent count per interval-map chunk. Inserts
// splice within one chunk, so the per-overlay memmove is bounded by a few
// chunkTarget-sized copies; chunks split at twice the target.
const chunkTarget = 256

// chunk is one bounded run of the interval map: sorted, non-overlapping
// extents. Chunks are never empty.
type chunk struct {
	ext []Extent
}

func (c *chunk) start() int64 { return c.ext[0].LogicalOffset }
func (c *chunk) end() int64 {
	last := c.ext[len(c.ext)-1]
	return last.LogicalOffset + last.Length
}

// Index is the merged, queryable global index of a container. The zero
// value is an empty index.
type Index struct {
	chunks []*chunk // globally sorted, non-overlapping; every chunk non-empty
	n      int      // total extent count across chunks
	size   int64    // logical EOF: max(offset+length) over all entries
}

// Build merges entries (from any number of index droppings, in any order)
// into a queryable index. Overlaps resolve to the highest timestamp; ties
// break toward the higher (Pid, Dropping) pair so the result is
// deterministic regardless of input order.
func Build(entries []Entry) *Index {
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Timestamp != b.Timestamp {
			return a.Timestamp < b.Timestamp
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		return a.Dropping < b.Dropping
	})
	idx := &Index{}
	for _, e := range sorted {
		idx.insert(e)
	}
	return idx
}

// findChunk returns the index of the first chunk whose end is after off
// (len(chunks) if none).
func (idx *Index) findChunk(off int64) int {
	return sort.Search(len(idx.chunks), func(k int) bool {
		return idx.chunks[k].end() > off
	})
}

// splitChunk splits chunk i in half when it outgrows the target.
func (idx *Index) splitChunk(i int) {
	c := idx.chunks[i]
	if len(c.ext) < 2*chunkTarget {
		return
	}
	mid := len(c.ext) / 2
	right := &chunk{ext: make([]Extent, len(c.ext)-mid)}
	copy(right.ext, c.ext[mid:])
	c.ext = c.ext[:mid:mid]
	idx.chunks = append(idx.chunks, nil)
	copy(idx.chunks[i+2:], idx.chunks[i+1:])
	idx.chunks[i+1] = right
}

// chunkify splits a merged extent run into evenly sized chunks of at
// most chunkTarget extents. Even distribution matters: a greedy
// 256-then-remainder split would shed size-1 slivers on every
// mid-chunk insert, collapsing average chunk size and blowing up the
// chunk count (and with it the per-insert splice cost).
func chunkify(extents []Extent) []*chunk {
	if len(extents) == 0 {
		return nil
	}
	pieces := (len(extents) + chunkTarget - 1) / chunkTarget
	out := make([]*chunk, 0, pieces)
	for i := 0; i < pieces; i++ {
		lo := i * len(extents) / pieces
		hi := (i + 1) * len(extents) / pieces
		c := &chunk{ext: make([]Extent, hi-lo)}
		copy(c.ext, extents[lo:hi])
		out = append(out, c)
	}
	return out
}

// insert overlays one entry onto the index; the entry wins every overlap
// (callers insert in ascending timestamp order). A size record — Length
// zero at LogicalOffset S — maps no bytes and only raises the size to S:
// the trailing hole a truncate leaves past the last extent.
func (idx *Index) insert(e Entry) {
	if e.Length <= 0 {
		if e.Length == 0 && e.LogicalOffset > idx.size {
			idx.size = e.LogicalOffset
		}
		return
	}
	if end := e.LogicalOffset + e.Length; end > idx.size {
		idx.size = end
	}
	newExt := Extent{
		LogicalOffset:  e.LogicalOffset,
		Length:         e.Length,
		PhysicalOffset: e.PhysicalOffset,
		Pid:            e.Pid,
		Dropping:       e.Dropping,
	}
	lo, hi := e.LogicalOffset, e.LogicalOffset+e.Length

	// Fast path: appending past the current tail (the overwhelmingly
	// common case — sequential checkpoint streams) costs O(1) instead of
	// a splice.
	nc := len(idx.chunks)
	if nc == 0 {
		idx.chunks = []*chunk{{ext: []Extent{newExt}}}
		idx.n = 1
		return
	}
	if last := idx.chunks[nc-1]; last.end() <= lo {
		last.ext = append(last.ext, newExt)
		idx.n++
		idx.splitChunk(nc - 1)
		return
	}

	// General overlay: locate the first extent whose end is after lo,
	// then consume every extent overlapping [lo,hi). Only the first
	// overlapped extent can contribute a surviving left piece and only
	// the last a right piece; everything between is fully shadowed.
	ci := idx.findChunk(lo)
	c := idx.chunks[ci]
	ei := sort.Search(len(c.ext), func(k int) bool {
		x := c.ext[k]
		return x.LogicalOffset+x.Length > lo
	})
	var left, right *Extent
	cj, ej := ci, ei
	removed := 0
walk:
	for cj < len(idx.chunks) {
		cc := idx.chunks[cj]
		for ej < len(cc.ext) {
			x := cc.ext[ej]
			if x.LogicalOffset >= hi {
				break walk
			}
			if x.LogicalOffset < lo {
				l := x
				l.Length = lo - x.LogicalOffset
				left = &l
			}
			if xEnd := x.LogicalOffset + x.Length; xEnd > hi {
				r := x
				r.Length = xEnd - hi
				r.LogicalOffset = hi
				if !x.Hole {
					r.PhysicalOffset = x.PhysicalOffset + (hi - x.LogicalOffset)
				}
				right = &r
			}
			removed++
			ej++
		}
		cj++
		ej = 0
	}
	// Overlap-free insert (the dominant case in an interleaved many-
	// writer merge): splice into chunk ci in place instead of rebuilding
	// it, splitting only when the chunk outgrows its bound.
	if removed == 0 {
		c.ext = append(c.ext, Extent{})
		copy(c.ext[ei+1:], c.ext[ei:])
		c.ext[ei] = newExt
		idx.n++
		idx.splitChunk(ci)
		return
	}

	// Affected chunk range is [ci, lastAffected]; tail holds the
	// untouched extents after the overlap inside the last affected chunk.
	lastAffected := cj
	var tail []Extent
	if cj == len(idx.chunks) {
		lastAffected = cj - 1
	} else if ej == 0 {
		// The walk stopped at the first extent of chunk cj: that chunk is
		// untouched.
		lastAffected = cj - 1
	} else {
		tail = idx.chunks[cj].ext[ej:]
	}

	merged := make([]Extent, 0, ei+3+len(tail))
	merged = append(merged, c.ext[:ei]...)
	if left != nil {
		merged = append(merged, *left)
	}
	merged = append(merged, newExt)
	if right != nil {
		merged = append(merged, *right)
	}
	merged = append(merged, tail...)

	replaced := 0
	for k := ci; k <= lastAffected; k++ {
		replaced += len(idx.chunks[k].ext)
	}
	pieces := chunkify(merged)
	out := make([]*chunk, 0, len(idx.chunks)-(lastAffected-ci+1)+len(pieces))
	out = append(out, idx.chunks[:ci]...)
	out = append(out, pieces...)
	out = append(out, idx.chunks[lastAffected+1:]...)
	idx.chunks = out
	idx.n += len(merged) - replaced
}

// Size returns the logical size of the file: the highest written offset
// plus one, or the largest size record's, or the truncated size if a
// truncate capped it.
func (idx *Index) Size() int64 { return idx.size }

// Truncate drops every extent at or beyond size and clips extents that
// straddle it, mirroring plfs_trunc; a size past the last extent's end
// leaves a trailing hole.
func (idx *Index) Truncate(size int64) {
	if size < 0 {
		size = 0
	}
	ci := idx.findChunk(size)
	if ci < len(idx.chunks) {
		c := idx.chunks[ci]
		// Clip within the straddling chunk.
		keep := sort.Search(len(c.ext), func(k int) bool {
			return c.ext[k].LogicalOffset >= size
		})
		kept := c.ext[:keep]
		if keep > 0 {
			if last := &kept[keep-1]; last.LogicalOffset+last.Length > size {
				last.Length = size - last.LogicalOffset
			}
		}
		// Recount the dropped tail.
		dropped := len(c.ext) - keep
		for k := ci + 1; k < len(idx.chunks); k++ {
			dropped += len(idx.chunks[k].ext)
		}
		if keep == 0 {
			idx.chunks = idx.chunks[:ci]
		} else {
			c.ext = kept
			idx.chunks = idx.chunks[:ci+1]
		}
		idx.n -= dropped
	}
	idx.size = size
}

// Query resolves the logical range [off, off+length) into a minimal
// sequence of extents covering it, including Hole extents for unwritten
// gaps. Ranges beyond EOF are clipped; a query entirely past EOF returns
// nil.
func (idx *Index) Query(off, length int64) []Extent {
	return idx.QueryInto(nil, off, length)
}

// QueryInto is Query appending into dst — the allocation-free form the
// read engine's pooled plans use: pass a recycled slice truncated to
// zero length and the warm path never grows it.
func (idx *Index) QueryInto(dst []Extent, off, length int64) []Extent {
	if off < 0 || length <= 0 || off >= idx.size {
		return dst
	}
	if off+length > idx.size {
		length = idx.size - off
	}
	lo, hi := off, off+length

	out := dst
	ci := idx.findChunk(lo)
	cur := lo
	var ei int
	if ci < len(idx.chunks) {
		c := idx.chunks[ci]
		ei = sort.Search(len(c.ext), func(k int) bool {
			x := c.ext[k]
			return x.LogicalOffset+x.Length > lo
		})
	}
	for ci < len(idx.chunks) && cur < hi {
		c := idx.chunks[ci]
		for ; ei < len(c.ext) && cur < hi; ei++ {
			x := c.ext[ei]
			if x.LogicalOffset >= hi {
				ci = len(idx.chunks) // terminate outer loop
				break
			}
			if x.LogicalOffset > cur {
				out = append(out, Extent{LogicalOffset: cur, Length: x.LogicalOffset - cur, Hole: true})
				cur = x.LogicalOffset
			}
			// Clip x to [cur, hi).
			skip := cur - x.LogicalOffset
			n := x.Length - skip
			if rem := hi - cur; n > rem {
				n = rem
			}
			out = append(out, Extent{
				LogicalOffset:  cur,
				Length:         n,
				PhysicalOffset: x.PhysicalOffset + skip,
				Pid:            x.Pid,
				Dropping:       x.Dropping,
				Hole:           x.Hole,
			})
			cur += n
		}
		ci++
		ei = 0
	}
	if cur < hi {
		out = append(out, Extent{LogicalOffset: cur, Length: hi - cur, Hole: true})
	}
	return out
}

// Extents returns a copy of the resolved extent list (holes omitted),
// useful for container inspection tools and index flattening.
func (idx *Index) Extents() []Extent {
	out := make([]Extent, 0, idx.n)
	for _, c := range idx.chunks {
		out = append(out, c.ext...)
	}
	return out
}

// NumExtents returns the number of resolved (non-hole) extents.
func (idx *Index) NumExtents() int { return idx.n }
