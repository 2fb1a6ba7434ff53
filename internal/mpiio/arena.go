// Pooled staging arenas and zero-copy piece routing for the pipelined
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

// pieceRef is the exchange unit of the pipelined collective path: a
// file range plus a reference into the owning rank's memory (source
// window for writes, destination window for read requests). The
// collective rendezvous provides the happens-before edges that make
// touching the referenced memory safe across ranks.
type pieceRef struct {
	off  int64
	data []byte
}

// routePlan is the pooled per-collective routing scratch: the caller's
// flattened access split into pieces and laid out bucket-contiguously
// by (round, aggregator), so each round's send vector is a set of
// subslices — an iovec-style index over the caller's buffer, built in
// two passes (count, then fill) with no per-piece allocation.
type routePlan struct {
	pieces []pieceRef
	counts []int // pieces per bucket (round*naggs + agg)
	starts []int // first piece of each bucket
	fill   []int // per-bucket cursor during the fill pass
	send   []any // reusable Alltoall send vector, one entry per rank
}

var routePool = sync.Pool{New: func() any { return new(routePlan) }}

// release clears buffer references (so the pool never retains caller
// memory) and returns the plan to the pool.
func (rp *routePlan) release() {
	for i := range rp.pieces {
		rp.pieces[i].data = nil
	}
	for i := range rp.send {
		rp.send[i] = nil
	}
	rp.pieces = rp.pieces[:0]
	routePool.Put(rp)
}

// route splits segs at aggregator-domain and round boundaries and lays
// the pieces out bucket-contiguously. buf is the caller's flattened
// access buffer; every piece's data aliases it.
func (rp *routePlan) route(segs []Segment, buf []byte, g *colGeom, worldSize int) {
	nb := g.rounds * len(g.aggs)
	rp.counts = growInts(rp.counts, nb)
	total := 0
	rp.walk(segs, buf, g, func(b int, off int64, data []byte) {
		rp.counts[b]++
		total++
	})
	rp.starts = growInts(rp.starts, nb)
	sum := 0
	for b := 0; b < nb; b++ {
		rp.starts[b] = sum
		sum += rp.counts[b]
	}
	rp.fill = growInts(rp.fill, nb)
	rp.pieces = growPieces(rp.pieces, total)
	rp.walk(segs, buf, g, func(b int, off int64, data []byte) {
		i := rp.starts[b] + rp.fill[b]
		rp.fill[b]++
		rp.pieces[i] = pieceRef{off: off, data: data}
	})
	if cap(rp.send) < worldSize {
		rp.send = make([]any, worldSize)
	}
	rp.send = rp.send[:worldSize]
}

// walk visits every (bucket, file-offset, buffer-window) piece of the
// access in segment order.
func (rp *routePlan) walk(segs []Segment, buf []byte, g *colGeom, visit func(b int, off int64, data []byte)) {
	cursor := 0
	for _, s := range segs {
		off, l := s.Off, s.Len
		for l > 0 {
			a, r, end := g.locate(off)
			n := l
			if off+n > end {
				n = end - off
			}
			visit(r*len(g.aggs)+a, off, buf[cursor:cursor+int(n)])
			off += n
			l -= n
			cursor += int(n)
		}
	}
}

// bucket returns the pieces of one (round, aggregator) bucket.
func (rp *routePlan) bucket(round, agg, naggs int) []pieceRef {
	b := round*naggs + agg
	s := rp.starts[b]
	return rp.pieces[s : s+rp.counts[b]]
}

// sendFor fills the reusable Alltoall send vector for one round: each
// aggregator's bucket slice (nil when empty), nil for every other rank.
func (rp *routePlan) sendFor(round int, g *colGeom) []any {
	for i := range rp.send {
		rp.send[i] = nil
	}
	for a, rank := range g.aggs {
		if b := rp.bucket(round, a, len(g.aggs)); len(b) > 0 {
			rp.send[rank] = b
		}
	}
	return rp.send
}

// arena is one pooled aggregator staging buffer: the coalesced runs of
// one pipeline round packed back-to-back in buf. Two arenas per
// aggregator double-buffer the pipeline, overlapping round k's exchange
// and staging with round k-1's backend I/O.
type arena struct {
	buf     []byte
	runs    []Segment  // ascending file ranges, packed in buf order
	pos     []int64    // byte position of each run in buf
	refs    []pieceRef // the round's pieces (sorted by off after staging)
	scratch []pieceRef // merge-sort scratch
	ioErr   error      // set by the pipeline worker before handing back
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// release clears piece references (the pool must not pin rank buffers
// across collectives) and returns the arena — buf is the arena's own
// memory and keeps its capacity.
func (a *arena) release() {
	for i := range a.refs {
		a.refs[i].data = nil
	}
	for i := range a.scratch {
		a.scratch[i].data = nil
	}
	a.refs = a.refs[:0]
	a.scratch = a.scratch[:0]
	a.runs = a.runs[:0]
	a.pos = a.pos[:0]
	a.buf = a.buf[:0]
	a.ioErr = nil
	arenaPool.Put(a)
}

// collect gathers the round's pieces from the exchange result in rank
// order and sorts them by offset (stably, so overlapping writes resolve
// in rank order, whatever order the exchange delivered them in).
func (a *arena) collect(recv []any) {
	a.refs = a.refs[:0]
	for _, v := range recv {
		ps, _ := v.([]pieceRef)
		a.refs = append(a.refs, ps...)
	}
	a.sortRefs()
}

// stageWrite coalesces the round's write pieces into packed runs,
// copying each piece exactly once into the arena (the only copy on the
// whole write path). maxRun caps a single run at the staging size.
// Returns piece and byte counts for the shuffle counters.
func (a *arena) stageWrite(recv []any, maxRun int64) (npieces int, nbytes int64) {
	a.collect(recv)
	a.runs = a.runs[:0]
	need := 0
	for _, p := range a.refs {
		need += len(p.data)
	}
	a.buf = growBytes(a.buf, need)
	cursor := 0
	for _, p := range a.refs {
		n := len(a.runs)
		if n > 0 && a.runs[n-1].Off+a.runs[n-1].Len == p.off &&
			a.runs[n-1].Len+int64(len(p.data)) <= maxRun {
			a.runs[n-1].Len += int64(len(p.data))
		} else {
			a.runs = append(a.runs, Segment{Off: p.off, Len: int64(len(p.data))})
		}
		cursor += copy(a.buf[cursor:], p.data)
	}
	nbytes = int64(need)
	return len(a.refs), nbytes
}

// stageReadRuns builds the disjoint covering runs of the round's read
// requests: the union of the requested ranges, chopped at maxRun, with
// per-run buf positions recorded for delivery. The request pieces stay
// in a.refs (each still carrying its requester's destination window)
// until deliver.
func (a *arena) stageReadRuns(recv []any, maxRun int64) (npieces int, nbytes int64) {
	a.collect(recv)
	a.runs = a.runs[:0]
	a.pos = a.pos[:0]
	var runOff, runEnd int64
	open := false
	emit := func(off, end int64) {
		for off < end {
			n := end - off
			if n > maxRun {
				n = maxRun
			}
			a.runs = append(a.runs, Segment{Off: off, Len: n})
			off += n
		}
	}
	for _, p := range a.refs {
		e := p.off + int64(len(p.data))
		if !open {
			runOff, runEnd, open = p.off, e, true
			continue
		}
		if p.off <= runEnd {
			if e > runEnd {
				runEnd = e
			}
			continue
		}
		emit(runOff, runEnd)
		runOff, runEnd = p.off, e
	}
	if open {
		emit(runOff, runEnd)
	}
	var total int64
	a.pos = growInt64s(a.pos, len(a.runs))
	for i, r := range a.runs {
		a.pos[i] = total
		total += r.Len
	}
	a.buf = growBytes(a.buf, int(total))
	for _, p := range a.refs {
		nbytes += int64(len(p.data))
	}
	return len(a.refs), nbytes
}

// deliver copies every staged request's bytes from the arena straight
// into the requester's destination window. Runs are disjoint, ascending
// and (within one requested range) contiguous, so a request spanning a
// maxRun chop walks consecutive runs.
func (a *arena) deliver() {
	for _, rq := range a.refs {
		off, dst := rq.off, rq.data
		for len(dst) > 0 {
			i := a.findRun(off)
			r := a.runs[i]
			src := a.buf[a.pos[i]+(off-r.Off) : a.pos[i]+r.Len]
			n := copy(dst, src)
			dst = dst[n:]
			off += int64(n)
		}
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

// sortRefs stably sorts a.refs by offset with a bottom-up merge sort
// into pooled scratch — no interface boxing, no allocation once warm,
// and stability keeps overlap resolution deterministic (rank order).
func (a *arena) sortRefs() {
	n := len(a.refs)
	if n < 2 {
		return
	}
	a.scratch = growPieces(a.scratch, n)
	src, dst := a.refs, a.scratch
	swapped := false
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			mergeRefs(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
		swapped = !swapped
	}
	if swapped {
		copy(a.refs, src)
	}
}

// mergeRefs merges two offset-sorted halves, preferring left on ties
// (stability).
func mergeRefs(dst, left, right []pieceRef) {
	i, j, k := 0, 0, 0
	for i < len(left) && j < len(right) {
		if left[i].off <= right[j].off {
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

// growInts resizes s to n zeroed elements, reusing its capacity.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// growInt64s resizes s to n zeroed elements, reusing its capacity.
func growInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
