// The pipelined two-phase collective path: the file domain is split
// into staging-sized rounds and round k's exchange overlaps round k-1's
// aggregator I/O — the overlap "Optimizing Noncontiguous Accesses in
// MPI-IO" (Thakur et al.) identifies as the second half of the
// collective win, on top of large coalesced requests.
//
// Schedule, per collective:
//
//	all ranks    round k: Alltoall of piece references (zero-copy)
//	aggregator   stage round k into a pooled arena (the one copy)
//	flusher      |— goroutine: round k-1's vectored backend I/O —|
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
	"fmt"
	"time"

	"ldplfs/internal/mpi"
)

// colGeom is the per-collective geometry every rank derives from the
// same allgathered extent and the shape agreed at Open, so round counts
// and boundaries agree everywhere (divergence would deadlock the
// exchanges).
type colGeom struct {
	lo, hi  int64
	domain  int64 // contiguous file region per aggregator
	staging int64 // cb buffer size: the width of a round and the run cap
	rounds  int   // ceil(domain / staging)
	aggs    []int // aggregator rank ids, ascending (the File's)
}

// newGeom splits [lo, hi) evenly over the aggregators and each domain
// into staging-sized rounds.
func newGeom(lo, hi, staging int64, aggs []int) colGeom {
	g := colGeom{lo: lo, hi: hi, staging: staging, aggs: aggs}
	if hi > lo {
		n := int64(len(aggs))
		g.domain = (hi - lo + n - 1) / n
		g.rounds = int((g.domain + staging - 1) / staging)
	}
	return g
}

// locate maps a file offset to its (aggregator, round) bucket and the
// bucket's end offset.
func (g *colGeom) locate(off int64) (agg, round int, end int64) {
	rel := off - g.lo
	a := int(rel / g.domain)
	if a >= len(g.aggs) {
		a = len(g.aggs) - 1
	}
	inDom := rel - int64(a)*g.domain
	r := int(inDom / g.staging)
	if r >= g.rounds {
		r = g.rounds - 1
	}
	end = g.lo + int64(a)*g.domain + int64(r+1)*g.staging
	if domEnd := g.lo + int64(a+1)*g.domain; end > domEnd {
		end = domEnd
	}
	return a, r, end
}

// exchangePlan allgathers every rank's extent and derives the shared
// collective geometry.
func (f *File) exchangePlan(segs []Segment) colGeom {
	type colExtent struct{ lo, hi int64 }
	mine := colExtent{lo: 1 << 62, hi: 0}
	for _, s := range segs {
		if s.Off < mine.lo {
			mine.lo = s.Off
		}
		if end := s.Off + s.Len; end > mine.hi {
			mine.hi = end
		}
	}
	all := mine
	for _, v := range f.rank.Allgather(mine) {
		e := v.(colExtent)
		if e.lo < all.lo {
			all.lo = e.lo
		}
		if e.hi > all.hi {
			all.hi = e.hi
		}
	}
	return newGeom(all.lo, all.hi, int64(f.hints.CBBufferSize), f.aggs)
}

// aggWorker is the background half of one aggregator's double-buffered
// pipeline: arenas cycle free -> (stage) -> work -> (io) -> free for
// writes, with an extra ready hop for reads so delivery waits for the
// round's backend I/O. The first error is recorded and later rounds
// are drained without touching the backend; the collective's closing
// allreduce surfaces it on every rank.
type aggWorker struct {
	f     *File
	io    func(*arena) error
	work  chan *arena
	out   chan *arena // reads: completed arenas, in round order
	free  chan *arena
	done  chan struct{}
	err   error // owned by the worker goroutine until done is closed
	busy  int64 // ns spent in backend I/O (worker-owned)
	stall int64 // ns the main loop blocked on the pipeline (main-owned)
}

// newAggWorker starts the worker with two pooled arenas in flight.
// forReads adds the ready hop.
func (f *File) newAggWorker(io func(*arena) error, forReads bool) *aggWorker {
	w := &aggWorker{
		f:    f,
		io:   io,
		work: make(chan *arena, 1),
		free: make(chan *arena, 2),
		done: make(chan struct{}),
	}
	if forReads {
		w.out = make(chan *arena, 2)
	}
	// The double-buffer arenas outlive this function by design: they
	// cycle through the pipeline until close() drains the rings and
	// release()s every one back to the pool.
	//plfslint:ignore bufpool arenas are returned by aggWorker.close via arena.release; the pipeline's lifecycle spans the collective, not one function
	w.free <- arenaPool.Get().(*arena)
	w.free <- arenaPool.Get().(*arena)
	go w.run()
	return w
}

func (w *aggWorker) run() {
	defer close(w.done)
	for a := range w.work {
		if w.err == nil {
			t0 := time.Now()
			w.err = w.io(a)
			w.busy += time.Since(t0).Nanoseconds()
		}
		// The sticky error rides the arena back: the channel send is the
		// happens-before edge, so the main loop never touches w.err while
		// the worker owns it.
		a.ioErr = w.err
		if w.out != nil {
			w.out <- a
		} else {
			w.free <- a
		}
	}
}

// next blocks until an arena is free, charging the wait to the stall
// clock (pipeline backpressure: the backend is slower than the
// exchange).
func (w *aggWorker) next() *arena {
	t0 := time.Now()
	a := <-w.free
	w.stall += time.Since(t0).Nanoseconds()
	return a
}

// submit hands a staged arena to the worker.
func (w *aggWorker) submit(a *arena) { w.work <- a }

// ready blocks until the oldest submitted arena's I/O completed
// (reads only). The caller recycles it with recycle after delivery.
func (w *aggWorker) ready() *arena {
	t0 := time.Now()
	a := <-w.out
	w.stall += time.Since(t0).Nanoseconds()
	return a
}

// recycle returns a delivered arena to the free ring.
func (w *aggWorker) recycle(a *arena) { w.free <- a }

// close drains the pipeline, joins the worker, releases the arenas and
// reports the first backend error plus the exchange/I-O overlap the
// pipeline achieved (I/O time that ran concurrently with the main
// loop's exchanges rather than stalling them).
func (w *aggWorker) close() (error, int64) {
	close(w.work)
	<-w.done
	if w.out != nil {
		for len(w.out) > 0 {
			(<-w.out).release()
		}
	}
	for len(w.free) > 0 {
		(<-w.free).release()
	}
	overlap := w.busy - w.stall
	if overlap < 0 {
		overlap = 0
	}
	return w.err, overlap
}

// flushArena issues one staged round's runs, still coalesced, and
// counts the driver calls it took.
func (f *File) flushArena(a *arena) error {
	_, calls, err := f.writeRuns(a.runs, a.buf)
	f.cago.Add(calls)
	return err
}

// fetchArena reads one round's covering runs into the arena, zero-
// filling past EOF.
func (f *File) fetchArena(a *arena) error {
	_, calls, err := f.readRuns(a.runs, a.buf)
	f.cago.Add(calls)
	return err
}

// writeAllPipelined is the pipelined collective write. Phase 1 of round
// k (zero-copy piece exchange + arena staging) overlaps phase 2 of
// round k-1 (the flusher goroutine's backend I/O).
func (f *File) writeAllPipelined(segs []Segment, buf []byte) (int, error) {
	g := f.exchangePlan(segs)
	if g.hi <= g.lo {
		f.rank.AllreduceInt64(0, mpi.OpMax)
		return 0, nil
	}
	rp := routePool.Get().(*routePlan)
	defer rp.release()
	rp.route(segs, buf, &g, f.rank.Size())

	var fl *aggWorker
	if f.isAgg {
		fl = f.newAggWorker(f.flushArena, false)
	}
	for k := 0; k < g.rounds; k++ {
		recv := f.rank.Alltoall(rp.sendFor(k, &g))
		if fl != nil {
			a := fl.next()
			np, nb := a.stageWrite(recv, g.staging)
			f.cshp.Add(int64(np))
			f.cshb.Add(nb)
			fl.submit(a)
		}
	}
	var aggErr error
	if fl != nil {
		var overlap int64
		aggErr, overlap = fl.close()
		f.covl.Add(overlap)
	}
	if err := funnel(f.rank, aggErr, "write"); err != nil {
		return 0, err
	}
	return int(segsBytes(segs)), nil
}

// readAllPipelined is the pipelined collective read. Requests carry the
// requester's destination window, so aggregators deliver bytes straight
// into peer buffers — the prefetcher goroutine reads round k while the
// main loop exchanges round k+1's requests and delivers round k-1.
func (f *File) readAllPipelined(segs []Segment, buf []byte) (int, error) {
	g := f.exchangePlan(segs)
	if g.hi <= g.lo {
		f.rank.AllreduceInt64(0, mpi.OpMax)
		return 0, nil
	}
	rp := routePool.Get().(*routePlan)
	defer rp.release()
	rp.route(segs, buf, &g, f.rank.Size())

	var pf *aggWorker
	if f.isAgg {
		pf = f.newAggWorker(f.fetchArena, true)
	}
	inFlight := 0
	for k := 0; k < g.rounds; k++ {
		recv := f.rank.Alltoall(rp.sendFor(k, &g))
		if pf == nil {
			continue
		}
		if inFlight == 2 {
			a := pf.ready()
			if a.ioErr == nil {
				a.deliver()
			}
			pf.recycle(a)
			inFlight--
		}
		a := pf.next()
		np, nb := a.stageReadRuns(recv, g.staging)
		f.cshp.Add(int64(np))
		f.cshb.Add(nb)
		pf.submit(a)
		inFlight++
	}
	var aggErr error
	if pf != nil {
		for inFlight > 0 {
			a := pf.ready()
			if a.ioErr == nil {
				a.deliver()
			}
			pf.recycle(a)
			inFlight--
		}
		var overlap int64
		aggErr, overlap = pf.close()
		f.covl.Add(overlap)
	}
	if err := funnel(f.rank, aggErr, "read"); err != nil {
		return 0, err
	}
	return int(segsBytes(segs)), nil
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
