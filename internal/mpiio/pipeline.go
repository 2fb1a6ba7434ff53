// The two-phase collective path: each aggregator's file domain is cut
// into rounds that each stage at most one staging buffer of data —
// holes take no room, so a sparse domain takes fewer rounds than its
// span would — and each round runs on the rank's own goroutine:
// exchange, stage, then the round's backend I/O. The win "Optimizing
// Noncontiguous Accesses in MPI-IO" (Thakur et al.) credits two-phase
// I/O with is few, large coalesced requests, and the staged-bytes cut
// gives those; at the default staging size every collective in the
// tree's kernels is one round, so there is nothing for a round's I/O
// to overlap.
//
// Schedule, per collective:
//
//	all ranks    plan: Allgather of every rank's access; a sparse
//	             access's aggregators cut their own domains, and a
//	             second Allgather hands the cuts round
//	all ranks    round k: Alltoall of piece references (zero-copy)
//	aggregator   stage round k into a pooled arena (the one copy), then
//	             its vectored backend I/O; a read delivers before k+1
//	all ranks    closing allreduce funnels errors; no early returns
//
// Every rank must reach every exchange and the closing allreduce, so
// aggregator errors are carried, never returned early — an early
// return would deadlock the communicator. The closing allreduce is
// also the happens-before edge that lets aggregators write read bytes
// directly into requester buffers and lets senders reuse their
// buffers after WriteAll returns.
package mpiio

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"

	"ldplfs/internal/mpi"
)

// colGeom is the per-collective geometry every rank derives from the
// same allgathered accesses and the shape agreed at Open, so round
// counts and boundaries agree everywhere (divergence would deadlock the
// exchanges).
//
// [lo, hi) is split evenly over the aggregators, as ROMIO splits it, so
// which aggregator writes a byte depends on the extent alone. Each
// domain is then cut into rounds by the bytes its arena will stage, not
// by file span: a cut goes where the bytes staged since the previous
// cut reach the staging size, so a sparse domain takes only the rounds
// its data needs, and a dense one is cut every staging bytes, where span
// cutting cuts it.
type colGeom struct {
	lo, hi  int64
	domain  int64 // contiguous file region per aggregator
	staging int64 // cb buffer size: the most a round stages, and the run cap
	rounds  int   // the most rounds any domain takes
	aggs    []int // aggregator rank ids, ascending (the File's)
	dense   bool  // the pieces tile [lo, hi), each byte once
	// cuts holds every domain's round boundaries, ascending: domain a's
	// are cuts[first[a]:first[a+1]], and its round r ends at the r-th.
	cuts  []int64
	first []int
}

// rankAccess is one rank's entry in the plan exchange: its segment list
// and a summary its owner makes once, from which every rank finds the
// extent and tells a dense collective without walking the lists.
type rankAccess struct {
	segs   []Segment
	lo, hi int64  // the list's extent (lo > hi when it is empty)
	chain  uint64 // the sum of mix(start) - mix(end) over its pieces
}

// summarize makes a rank's plan-exchange entry for segs.
func summarize(segs []Segment) rankAccess {
	ra := rankAccess{segs: segs, lo: 1 << 62}
	for _, s := range segs {
		ra.lo, ra.hi = min(ra.lo, s.Off), max(ra.hi, s.Off+s.Len)
		if s.Len > 0 {
			ra.chain += mix(uint64(s.Off)) - mix(uint64(s.Off+s.Len))
		}
	}
	return ra
}

// mix is splitmix64's finalizer: a fixed 64-bit hash, so that equal
// multisets of offsets have equal sums of it and unequal ones almost
// never do.
func mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// newGeom derives one collective's extent and domains from every rank's
// access; the rounds come from cutting the domains (cut, cutAll). The
// geometry aliases rp's scratch until the collective ends.
//
// The access is dense when its pieces tile [lo, hi). That holds exactly
// when the pieces' starts plus hi equal their ends plus lo as multisets:
// a tiling chains each end but hi to the next piece's start, and pieces
// that chain from lo to hi with nothing left over tile it, since pieces
// only run forward. Each owner sums a hash of its starts minus its ends
// (chain), so comparing the multisets costs a rank one add per rank.
// Were a non-dense access ever to collide, it would be cut by span, as
// ROMIO cuts every access, and still move the right bytes.
func newGeom(all []*rankAccess, staging int64, aggs []int, rp *routePlan) colGeom {
	g := colGeom{lo: 1 << 62, staging: staging, aggs: aggs}
	var chain uint64
	for _, ra := range all {
		g.lo, g.hi = min(g.lo, ra.lo), max(g.hi, ra.hi)
		chain += ra.chain
	}
	g.cuts, g.first = rp.cuts[:0], append(rp.first[:0], 0)
	if g.hi > g.lo {
		n := int64(len(aggs))
		g.domain = (g.hi - g.lo + n - 1) / n
		g.dense = chain == mix(uint64(g.lo))-mix(uint64(g.hi))
	}
	return g
}

// edge is one end of a piece on the sweep that places a domain's cuts:
// the number of pieces covering an offset rises by one at a piece's
// start and falls by one at its end.
type edge struct {
	off   int64
	delta int
}

// cut places domain a's round cuts in rp.plan. Bytes are counted as the
// aggregator will stage them: a write stages every piece, so pieces of
// different ranks that overlap count once each (stageWrite); a read
// stages the union of the requests (stageReadRuns), which union
// selects. A dense domain is swept as one piece, with no list walked; a
// sparse one from the pieces of every rank that fall in it, each list
// entered by binary search. A piece that crosses a cut is split there.
func (g *colGeom) cut(all []*rankAccess, a int, union bool, rp *routePlan) {
	start := g.lo + int64(a)*g.domain
	end := min(start+g.domain, g.hi)
	edges := rp.edges[:0]
	if g.dense {
		if start < end {
			edges = append(edges, edge{start, 1}, edge{end, -1})
		}
	} else {
		rp.ends = rp.ends[:0]
		for _, ra := range all {
			n := len(edges)
			i, _ := slices.BinarySearchFunc(ra.segs, start, func(s Segment, off int64) int {
				return cmp.Compare(s.Off+s.Len, off+1)
			})
			for _, s := range ra.segs[i:] {
				if s.Off >= end {
					break
				}
				if lo, hi := max(s.Off, start), min(s.Off+s.Len, end); lo < hi {
					edges = append(edges, edge{lo, 1}, edge{hi, -1})
				}
			}
			if len(edges) > n {
				rp.ends = append(rp.ends, len(edges))
			}
		}
		rp.spare = slices.Grow(rp.spare[:0], len(edges))[:len(edges)]
		sortRuns(edges, rp.spare, rp.ends, func(e edge) int64 { return e.off })
	}
	rp.edges = edges

	// Edges at one offset may come in any order: the spans between them
	// are empty, and the sweep skips empty spans.
	p := domainPlan{cuts: rp.plan.cuts[:0]}
	depth := 0
	var staged int64 // bytes the current round stages so far
	for i := 1; i < len(edges); i++ {
		depth += edges[i-1].delta
		s, e := edges[i-1].off, edges[i].off
		if depth == 0 || s == e {
			continue
		}
		d := int64(depth) // bytes staged per offset of [s, e)
		if union {
			d = 1
		}
		p.rounds = max(p.rounds, 1)
		for s < e {
			if staged > 0 && staged+d > g.staging {
				p.cuts = append(p.cuts, s)
				p.rounds++
				staged = 0
			}
			// A round takes at least one offset, even one that more
			// pieces overlap on than the staging size holds.
			k := min(max((g.staging-staged)/d, 1), e-s)
			staged += k * d
			s += k
		}
	}
	rp.plan = p
}

// domainPlan is one domain's rounds: how many, and the cuts between them.
type domainPlan struct {
	cuts   []int64
	rounds int
}

// add appends the next domain's plan to the geometry.
func (g *colGeom) add(p *domainPlan) {
	g.cuts = append(g.cuts, p.cuts...)
	g.first = append(g.first, len(g.cuts))
	g.rounds = max(g.rounds, p.rounds)
}

// cutAll cuts every domain on this rank.
func (g *colGeom) cutAll(all []*rankAccess, union bool, rp *routePlan) {
	for a := range g.aggs {
		g.cut(all, a, union, rp)
		g.add(&rp.plan)
	}
}

// locate maps a file offset to its (aggregator, round) bucket and the
// bucket's end offset.
func (g *colGeom) locate(off int64) (agg, round int, end int64) {
	a := min(int((off-g.lo)/g.domain), len(g.aggs)-1)
	cuts := g.cuts[g.first[a]:g.first[a+1]]
	r, at := slices.BinarySearch(cuts, off)
	if at {
		r++
	}
	if r < len(cuts) {
		return a, r, cuts[r]
	}
	return a, r, g.lo + int64(a+1)*g.domain
}

// exchangePlan allgathers every rank's access and derives the shared
// collective geometry; union marks a read. The in-process exchange
// moves the entry's reference, as ROMIO's exchange of request offsets
// and lengths moves the lists. A dense access's cuts are arithmetic,
// so every rank places them all. A sparse one's take a sweep of the
// domain's pieces, so each aggregator cuts only its own domain and a
// second allgather hands the plans round, as ROMIO's aggregators work
// out only their own domain's requests. Every rank is done reading the
// others' entries and plans before any reaches the closing allreduce,
// and rp, which holds this rank's, outlives it. rp lends the scratch.
func (f *File) exchangePlan(segs []Segment, union bool, rp *routePlan) colGeom {
	rp.mine = summarize(segs)
	rp.all = rp.all[:0]
	for _, v := range f.rank.Allgather(&rp.mine) {
		rp.all = append(rp.all, v.(*rankAccess))
	}
	g := newGeom(rp.all, int64(f.hints.CBBufferSize), f.aggs, rp)
	switch {
	case g.hi <= g.lo: // no data: no rounds
	case g.dense:
		g.cutAll(rp.all, union, rp)
	default:
		rp.plan.cuts, rp.plan.rounds = rp.plan.cuts[:0], 0
		if a := slices.Index(f.aggs, f.rank.Rank()); a >= 0 {
			g.cut(rp.all, a, union, rp)
		}
		plans := f.rank.Allgather(&rp.plan)
		for _, rank := range f.aggs {
			g.add(plans[rank].(*domainPlan))
		}
	}
	rp.cuts, rp.first = g.cuts, g.first
	return g
}

// flushArena issues one staged round's runs, still coalesced, under
// the one driver-call rule: a vector-capable driver takes two or more
// runs in one call (the PLFS driver turns it into one WriteV, whose
// engine batches physically-contiguous pwrites), any other gets a
// pwrite per run. agg_flush_ops counts the calls.
func (f *File) flushArena(a *arena) error {
	if vw, ok := f.df.(VectorWriter); ok && len(a.runs) > 1 {
		f.cdw.Add(1)
		f.cago.Add(1)
		n, err := vw.PwritevAt(a.runs, a.buf)
		f.cbw.Add(int64(n))
		return err
	}
	var cursor, calls, n int64
	var err error
	for _, run := range a.runs {
		calls++
		w, werr := f.df.PwriteAt(a.buf[cursor:cursor+run.Len], run.Off)
		n += int64(w)
		if werr != nil {
			err = werr
			break
		}
		cursor += run.Len
	}
	f.cdw.Add(calls)
	f.cago.Add(calls)
	f.cbw.Add(n)
	return err
}

// fetchArena reads one round's covering runs into the arena under the
// same rule: one PreadvAt for two or more runs on a vector-capable
// driver (PLFS resolves the index once and batches contiguous extents
// across runs), otherwise a pread per run. EOF is not an error, and
// bytes past it are zero-filled either way.
func (f *File) fetchArena(a *arena) error {
	if vr, ok := f.df.(VectorReader); ok && len(a.runs) > 1 {
		f.cdr.Add(1)
		f.cago.Add(1)
		n, err := vr.PreadvAt(a.runs, a.buf)
		f.cbr.Add(int64(n))
		return err
	}
	var cursor, calls, n int64
	var err error
	for _, run := range a.runs {
		calls++
		dst := a.buf[cursor : cursor+run.Len]
		r, rerr := f.df.PreadAt(dst, run.Off)
		n += int64(r)
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			err = rerr
			break
		}
		clear(dst[r:])
		cursor += run.Len
	}
	f.cdr.Add(calls)
	f.cago.Add(calls)
	f.cbr.Add(n)
	return err
}

// twoPhase runs one collective write, or read when read is set, round
// by round. An aggregator stages each round in its one pooled arena and
// issues the round's I/O before the next exchange; a read delivers
// straight into the requesters' buffers. The first backend error is
// sticky: later rounds still reach every exchange, but do no I/O and
// deliver nothing, and the closing allreduce surfaces the error on
// every rank.
func (f *File) twoPhase(segs []Segment, buf []byte, read bool) error {
	rp := routePool.Get().(*routePlan)
	defer rp.release()
	g := f.exchangePlan(segs, read, rp)
	rp.route(segs, buf, &g, f.rank.Size())

	var a *arena
	if f.isAgg {
		a = arenaPool.Get().(*arena)
		defer a.release()
	}
	var err error
	for k := 0; k < g.rounds; k++ {
		recv := f.rank.Alltoall(rp.sendFor(k, &g))
		if a == nil || err != nil {
			continue
		}
		var np int
		var nb int64
		if read {
			np, nb = a.stageReadRuns(recv, g.staging)
			if err = f.fetchArena(a); err == nil {
				a.deliver()
			}
		} else {
			np, nb = a.stageWrite(recv, g.staging)
			err = f.flushArena(a)
		}
		f.cshp.Add(int64(np))
		f.cshb.Add(nb)
	}
	op := "write"
	if read {
		op = "read"
	}
	return funnel(f.rank, err, op)
}

// funnel runs the closing allreduce every rank must reach: the
// collective op succeeded everywhere or failed everywhere. A rank that
// failed keeps its own error; the others learn that one did.
func funnel(r *mpi.Rank, err error, op string) error {
	var flag int64
	if err != nil {
		flag = 1
	}
	if r.AllreduceInt64(flag, mpi.OpMax) != 0 && err == nil {
		return fmt.Errorf("mpiio: collective %s failed on another rank", op)
	}
	return err
}
