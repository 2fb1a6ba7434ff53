// Pooled staging arenas and zero-copy piece routing for the two-phase
// collective path.
//
// The shuffle plane never marshals payloads: a piece is a file range
// plus a reference into the owning rank's memory, and the in-process
// MPI exchange (mpi.Alltoall) moves the reference, not the bytes. For
// writes the reference is a window of the sender's application buffer
// that the aggregator copies once, into its staging arena, already
// coalesced. For reads the reference is the window of the requester's
// buffer the bytes must land in, so the aggregator delivers straight
// from its arena into the destination — one copy end to end, no
// per-piece allocation, no reassembly map.
package mpiio

import "sync"

// pieceRef is the exchange unit of the two-phase collective path: a
// file range plus a reference into the owning rank's memory (source
// window for writes, destination window for read requests). The
// collective rendezvous provides the happens-before edges that make
// touching the referenced memory safe across ranks.
type pieceRef struct {
	off  int64
	data []byte
}

// routePlan is the pooled per-collective routing scratch: the caller's
// flattened access split into pieces, one bucket per aggregator — an
// iovec-style index over the caller's buffer with no per-piece
// allocation.
type routePlan struct {
	ext     extent       // this rank's plan-exchange entry
	buckets [][]pieceRef // each aggregator's pieces, ascending
	send    []any        // the Alltoall send vector, one entry per rank
}

var routePool = sync.Pool{New: func() any { return new(routePlan) }}

// release clears buffer references (so the pool never retains caller
// memory) and returns the plan to the pool.
func (rp *routePlan) release() {
	for _, b := range rp.buckets {
		clear(b)
	}
	clear(rp.send)
	routePool.Put(rp)
}

// route splits segs at aggregator-domain boundaries into one bucket per
// aggregator and returns the send vector: a pointer to each non-empty
// bucket's slice header at its aggregator's rank, nil everywhere else.
// The pointer boxes nothing, and the header lives in rp, which outlives
// the collective. buf is the caller's flattened access buffer; every
// piece's data aliases it.
func (rp *routePlan) route(segs []Segment, buf []byte, g *colGeom, worldSize int) []any {
	for len(rp.buckets) < len(g.aggs) {
		rp.buckets = append(rp.buckets, nil)
	}
	for a := range rp.buckets {
		rp.buckets[a] = rp.buckets[a][:0]
	}
	cursor := 0
	for _, s := range segs {
		off, l := s.Off, s.Len
		for l > 0 {
			a, end := g.owner(off)
			n := min(l, end-off)
			rp.buckets[a] = append(rp.buckets[a], pieceRef{off: off, data: buf[cursor : cursor+int(n)]})
			off += n
			l -= n
			cursor += int(n)
		}
	}
	if cap(rp.send) < worldSize {
		rp.send = make([]any, worldSize)
	}
	rp.send = rp.send[:worldSize]
	clear(rp.send)
	for a, rank := range g.aggs {
		if len(rp.buckets[a]) > 0 {
			rp.send[rank] = &rp.buckets[a]
		}
	}
	return rp.send
}

// arena is one pooled aggregator staging buffer. An aggregator takes
// one per collective, collects its domain's pieces into it once, and
// stages them a buffer at a time: the buffer's coalesced runs packed
// back-to-back in buf.
type arena struct {
	buf     []byte
	runs    []Segment  // the buffer's ascending file ranges, packed in buf order
	pos     []int64    // byte position of each run in buf (reads)
	refs    []pieceRef // the domain's pieces, sorted by off (collect)
	scratch []pieceRef // merge-sort scratch
	ends    []int      // where each sender's run of refs ends
	cover   []Segment  // reads: the disjoint ascending union of the requests

	// The staging cursor: the first piece (writes) or cover run (reads)
	// not yet wholly staged, the bytes of it already staged, and the
	// bytes left to stage. from is the first request deliver still
	// looks at.
	next int
	done int64
	left int64
	from int
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// release clears piece references (the pool must not pin rank buffers
// across collectives) and returns the arena — buf is the arena's own
// memory and keeps its capacity.
func (a *arena) release() {
	clear(a.refs)
	clear(a.scratch)
	a.refs = a.refs[:0]
	a.scratch = a.scratch[:0]
	a.runs = a.runs[:0]
	a.pos = a.pos[:0]
	a.buf = a.buf[:0]
	arenaPool.Put(a)
}

// collect gathers the domain's pieces from the exchange result in rank
// order and sorts them by offset (stably, so overlapping writes resolve
// in rank order, whatever order the exchange delivered them in), and
// sets the write cursor to the first. Returns piece and byte counts for
// the shuffle counters.
func (a *arena) collect(recv []any) (npieces int, nbytes int64) {
	a.refs, a.ends = a.refs[:0], a.ends[:0]
	for _, v := range recv {
		if ps, _ := v.(*[]pieceRef); ps != nil {
			a.refs = append(a.refs, *ps...)
			a.ends = append(a.ends, len(a.refs))
		}
	}
	a.scratch = growPieces(a.scratch, len(a.refs))
	sortRuns(a.refs, a.scratch, a.ends, func(p pieceRef) int64 { return p.off })
	for _, p := range a.refs {
		nbytes += int64(len(p.data))
	}
	a.next, a.done, a.left, a.from = 0, 0, nbytes, 0
	return len(a.refs), nbytes
}

// stageWrite copies the next buffer of the sorted pieces into the
// arena, each byte exactly once (the only copy on the whole write
// path): up to staging bytes in order, a piece that does not fit split
// at the buffer's end, adjacent pieces coalesced into one run. It
// reports whether it staged anything.
func (a *arena) stageWrite(staging int64) bool {
	n := min(staging, a.left)
	a.buf = growBytes(a.buf, int(n))
	a.runs = a.runs[:0]
	for cursor := int64(0); cursor < n; {
		p := a.refs[a.next]
		off, data := p.off+a.done, p.data[a.done:]
		k := min(int64(len(data)), n-cursor)
		if r := len(a.runs) - 1; r >= 0 && a.runs[r].Off+a.runs[r].Len == off {
			a.runs[r].Len += k
		} else {
			a.runs = append(a.runs, Segment{Off: off, Len: k})
		}
		cursor += int64(copy(a.buf[cursor:], data[:k]))
		a.advance(k, int64(len(p.data)))
	}
	a.left -= n
	return n > 0
}

// advance moves the staging cursor k bytes on in an item of size bytes.
func (a *arena) advance(k, size int64) {
	if a.done += k; a.done == size {
		a.next, a.done = a.next+1, 0
	}
}

// union merges the sorted read requests into the disjoint ascending
// runs they cover, each byte once, and sets the read cursor to the
// first. The requests stay in a.refs, each still carrying its
// requester's destination window, for deliver.
func (a *arena) union() {
	a.cover = a.cover[:0]
	a.left = 0
	for _, p := range a.refs {
		end := p.off + int64(len(p.data))
		if c := len(a.cover) - 1; c >= 0 && p.off <= a.cover[c].Off+a.cover[c].Len {
			a.cover[c].Len = max(a.cover[c].Len, end-a.cover[c].Off)
			continue
		}
		a.cover = append(a.cover, Segment{Off: p.off, Len: end - p.off})
	}
	for _, c := range a.cover {
		a.left += c.Len
	}
}

// stageRead lays out the next buffer of the union for fetchArena: up to
// staging bytes of its runs in order, a run that does not fit split at
// the buffer's end, with each run's position in buf. It reports whether
// it staged anything.
func (a *arena) stageRead(staging int64) bool {
	n := min(staging, a.left)
	a.buf = growBytes(a.buf, int(n))
	a.runs, a.pos = a.runs[:0], a.pos[:0]
	for cursor := int64(0); cursor < n; {
		c := a.cover[a.next]
		k := min(c.Len-a.done, n-cursor)
		a.runs = append(a.runs, Segment{Off: c.Off + a.done, Len: k})
		a.pos = append(a.pos, cursor)
		cursor += k
		a.advance(k, c.Len)
	}
	a.left -= n
	return n > 0
}

// deliver copies from the fetched buffer every request's bytes that
// fall in it straight into the requester's destination window. A
// request lies in one run of the union, and a buffer holds one
// contiguous part of each run, so a request's part in the buffer is one
// copy from one staged run.
func (a *arena) deliver() {
	last := a.runs[len(a.runs)-1]
	lo, hi := a.runs[0].Off, last.Off+last.Len
	for a.from < len(a.refs) && a.refs[a.from].off+int64(len(a.refs[a.from].data)) <= lo {
		a.from++
	}
	for _, rq := range a.refs[a.from:] {
		if rq.off >= hi {
			break
		}
		s, e := max(rq.off, lo), min(rq.off+int64(len(rq.data)), hi)
		if s >= e {
			continue
		}
		i := a.findRun(s)
		at := a.pos[i] + s - a.runs[i].Off
		copy(rq.data[s-rq.off:e-rq.off], a.buf[at:at+e-s])
	}
}

// findRun binary-searches the run covering off — the reassembly index.
func (a *arena) findRun(off int64) int {
	lo, hi := 0, len(a.runs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if a.runs[mid].Off <= off {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// sortRuns stably sorts s by key, s being ascending runs that end at
// ends (the last at len(s)), as every sender's pieces ascend: it merges
// neighbouring runs into scratch and back, the earlier run first on
// ties, until one is left — O(n log runs), not O(n log n). scratch must
// be as long as s; ends is consumed.
func sortRuns[T any](s, scratch []T, ends []int, key func(T) int64) {
	src, dst := s, scratch
	for len(ends) > 1 {
		merged, lo := ends[:0], 0
		for i := 0; i < len(ends); i += 2 {
			mid, hi := ends[i], ends[i]
			if i+1 < len(ends) {
				hi = ends[i+1]
			}
			mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi], key)
			merged, lo = append(merged, hi), hi
		}
		ends, src, dst = merged, dst, src
	}
	if len(s) > 0 && &src[0] != &s[0] {
		copy(s, src)
	}
}

// mergeRuns merges two key-sorted runs into dst, left first on ties.
func mergeRuns[T any](dst, left, right []T, key func(T) int64) {
	i, j, k := 0, 0, 0
	for i < len(left) && j < len(right) {
		if key(left[i]) <= key(right[j]) {
			dst[k] = left[i]
			i++
		} else {
			dst[k] = right[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], left[i:])
	copy(dst[k:], right[j:])
}

// growBytes resizes s to n elements reusing its capacity; contents are
// unspecified (callers overwrite or zero-fill every byte they expose).
func growBytes(s []byte, n int) []byte {
	if cap(s) < n {
		return make([]byte, n)
	}
	return s[:n]
}

// growPieces resizes s to n elements reusing its capacity.
func growPieces(s []pieceRef, n int) []pieceRef {
	if cap(s) < n {
		return make([]pieceRef, n)
	}
	return s[:n]
}
