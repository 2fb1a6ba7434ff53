// The two-phase collective path: one exchange per collective. Every
// rank sends each aggregator the pieces of its access that fall in the
// aggregator's file domain, in one Alltoall of piece references, and
// each aggregator then stages its domain a buffer at a time — at most
// one staging buffer of data, holes taking no room — issuing each
// buffer's backend I/O before it stages the next. The win "Optimizing
// Noncontiguous Accesses in MPI-IO" (Thakur et al.) credits two-phase
// I/O with is few, large coalesced requests, and full staging buffers
// give those. ROMIO exchanges in rounds because real MPI moves the
// bytes, so the rounds bound what an aggregator receives; here the
// exchange moves references, so only the staging buffer needs a bound,
// and the aggregator sets it alone: no rank needs to know where another
// aggregator's buffers end.
//
// Schedule, per collective:
//
//	all ranks    plan: Allgather of every rank's extent; the extent is
//	             split evenly into one domain per aggregator
//	all ranks    Alltoall of piece references (zero-copy), one bucket
//	             per aggregator
//	aggregator   sort the domain's pieces once (a read takes their
//	             union); then, a buffer at a time, stage up to
//	             cb_buffer_size bytes into a pooled arena (the one
//	             copy) and issue its vectored backend I/O; a read
//	             delivers each buffer before staging the next
//	all ranks    closing allreduce funnels errors; no early returns
//
// Every rank must reach the exchanges and the closing allreduce, so
// aggregator errors are carried, never returned early — an early
// return would deadlock the communicator. The closing allreduce is
// also the happens-before edge that lets aggregators write read bytes
// directly into requester buffers and lets senders reuse their
// buffers after WriteAll returns.
package mpiio

import (
	"errors"
	"fmt"
	"io"

	"ldplfs/internal/mpi"
)

// colGeom is the per-collective geometry every rank derives from the
// same allgathered extents and the aggregators agreed at Open, so every
// rank routes a byte to the same aggregator.
//
// The extent [lo, hi) is split evenly over the aggregators, as ROMIO
// splits it, so which aggregator writes a byte depends on the extent
// alone: aggregator a's domain starts at lo + a*domain.
type colGeom struct {
	lo     int64
	domain int64 // contiguous file region per aggregator
	aggs   []int // aggregator rank ids, ascending (the File's)
}

// extent is one rank's entry in the plan exchange: the file range its
// access spans (lo > hi when it is empty).
type extent struct{ lo, hi int64 }

// extentOf is the file range segs span.
func extentOf(segs []Segment) extent {
	e := extent{lo: 1 << 62}
	for _, s := range segs {
		e.lo, e.hi = min(e.lo, s.Off), max(e.hi, s.Off+s.Len)
	}
	return e
}

// newGeom splits [lo, hi) evenly over aggs.
func newGeom(lo, hi int64, aggs []int) colGeom {
	g := colGeom{lo: lo, aggs: aggs}
	if hi > lo {
		n := int64(len(aggs))
		g.domain = (hi - lo + n - 1) / n
	}
	return g
}

// owner maps a file offset to its aggregator and the end of that
// aggregator's domain.
func (g *colGeom) owner(off int64) (agg int, end int64) {
	a := min(int((off-g.lo)/g.domain), len(g.aggs)-1)
	return a, g.lo + int64(a+1)*g.domain
}

// exchangePlan allgathers every rank's extent and derives the shared
// geometry. The in-process exchange moves a reference to the entry in
// rp, which outlives the collective's closing allreduce.
func (f *File) exchangePlan(segs []Segment, rp *routePlan) colGeom {
	rp.ext = extentOf(segs)
	lo, hi := int64(1<<62), int64(0)
	for _, v := range f.rank.Allgather(&rp.ext) {
		e := v.(*extent)
		lo, hi = min(lo, e.lo), max(hi, e.hi)
	}
	return newGeom(lo, hi, f.aggs)
}

// flushArena issues one staged buffer's runs, still coalesced, under
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

// fetchArena reads one staged buffer's runs into the arena under the
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

// twoPhase runs one collective write, or read when read is set, with
// one exchange. An aggregator stages its domain in its pooled arena a
// buffer at a time and issues each buffer's I/O before staging the
// next; a read delivers straight into the requesters' buffers. The
// first backend error stops the aggregator's loop, and the closing
// allreduce surfaces it on every rank.
func (f *File) twoPhase(segs []Segment, buf []byte, read bool) error {
	rp := routePool.Get().(*routePlan)
	defer rp.release()
	g := f.exchangePlan(segs, rp)
	recv := f.rank.Alltoall(rp.route(segs, buf, &g, f.rank.Size()))

	var err error
	if f.isAgg {
		a := arenaPool.Get().(*arena)
		defer a.release()
		np, nb := a.collect(recv)
		f.cshp.Add(int64(np))
		f.cshb.Add(nb)
		staging := int64(f.hints.CBBufferSize)
		if read {
			a.union()
			for err == nil && a.stageRead(staging) {
				if err = f.fetchArena(a); err == nil {
					a.deliver()
				}
			}
		} else {
			for err == nil && a.stageWrite(staging) {
				err = f.flushArena(a)
			}
		}
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
