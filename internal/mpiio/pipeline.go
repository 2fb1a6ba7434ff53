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
	"errors"
	"fmt"
	"io"
	"time"

	"ldplfs/internal/mpi"
)

// colGeom is the per-collective geometry every rank derives from the
// same allgathered plan, so round counts and boundaries agree
// everywhere (divergence would deadlock the exchanges).
type colGeom struct {
	lo, hi  int64
	domain  int64 // contiguous file region per aggregator
	span    int64 // round span within a domain
	rounds  int
	staging int64 // effective cb buffer size (run cap)
	aggs    []int // aggregator rank ids, ascending
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
	r := int(inDom / g.span)
	if r >= g.rounds {
		r = g.rounds - 1
	}
	end = g.lo + int64(a)*g.domain + int64(r+1)*g.span
	if domEnd := g.lo + int64(a+1)*g.domain; end > domEnd {
		end = domEnd
	}
	return a, r, end
}

// colKnobs are the collective-buffering knob values committed on rank 0
// (hints, runtime Set* overrides, or the autotune controller) and
// broadcast with the extent exchange, so every rank computes identical
// round geometry whatever its local hints say.
type colKnobs struct {
	staging int
	rounds  int
	aggsPer int
}

// committedKnobs resolves this handle's effective knob values: runtime
// overrides win over hints.
func (f *File) committedKnobs() colKnobs {
	k := colKnobs{
		staging: f.hints.CBBufferSize,
		rounds:  f.hints.CBRounds,
		aggsPer: f.hints.CBAggregators,
	}
	if v := f.knobStaging.Load(); v > 0 {
		k.staging = int(v)
	}
	if v := f.knobRounds.Load(); v > 0 {
		k.rounds = int(v)
	}
	if v := f.knobAggs.Load(); v > 0 {
		k.aggsPer = int(v)
	}
	if k.staging <= 0 {
		k.staging = 16 << 20
	}
	if k.aggsPer <= 0 {
		k.aggsPer = 1
	}
	return k
}

// SetCBBufferSize overrides the staging size at runtime (autotune's
// actuator). Only rank 0's committed value matters: it is broadcast at
// each collective.
func (f *File) SetCBBufferSize(n int) { f.knobStaging.Store(int64(n)) }

// SetCBRounds overrides the pipeline round count (0 = derive from the
// staging size).
func (f *File) SetCBRounds(n int) { f.knobRounds.Store(int64(n)) }

// SetCBAggregators overrides the aggregators-per-node count.
func (f *File) SetCBAggregators(n int) { f.knobAggs.Store(int64(n)) }

// exchangePlan allgathers every rank's extent plus rank 0's committed
// knobs and derives the shared collective geometry.
func (f *File) exchangePlan(segs []Segment) colGeom {
	type colExtent struct {
		lo, hi int64
		k      colKnobs // meaningful on rank 0's entry only
	}
	mine := colExtent{lo: 1 << 62, hi: 0}
	for _, s := range segs {
		if s.Off < mine.lo {
			mine.lo = s.Off
		}
		if end := s.Off + s.Len; end > mine.hi {
			mine.hi = end
		}
	}
	if f.rank.Rank() == 0 {
		mine.k = f.committedKnobs()
	}
	all := f.rank.Allgather(mine)
	g := colGeom{lo: 1 << 62, hi: 0}
	for _, v := range all {
		e := v.(colExtent)
		if e.lo < g.lo {
			g.lo = e.lo
		}
		if e.hi > g.hi {
			g.hi = e.hi
		}
	}
	k := all[0].(colExtent).k
	g.staging = int64(k.staging)

	// Aggregators: the first min(aggsPer, ppn) ranks of each node.
	ppn := f.rank.PPN()
	per := k.aggsPer
	if per > ppn {
		per = ppn
	}
	for n := 0; n < f.rank.Nodes(); n++ {
		for i := 0; i < per; i++ {
			if r := n*ppn + i; r < f.rank.Size() {
				g.aggs = append(g.aggs, r)
			}
		}
	}
	if g.hi <= g.lo {
		return g
	}
	g.domain = (g.hi - g.lo + int64(len(g.aggs)) - 1) / int64(len(g.aggs))
	if k.rounds > 0 {
		g.rounds = k.rounds
		g.span = (g.domain + int64(g.rounds) - 1) / int64(g.rounds)
	} else {
		g.span = g.staging
		g.rounds = int((g.domain + g.span - 1) / g.span)
	}
	if g.rounds < 1 {
		g.rounds = 1
	}
	if g.span < 1 {
		g.span = 1
	}
	return g
}

// aggIndexOf returns this rank's position in the aggregator list, or -1.
func aggIndexOf(rank int, g *colGeom) int {
	for i, r := range g.aggs {
		if r == rank {
			return i
		}
	}
	return -1
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

// flushArena issues one staged round: vector-capable drivers take every
// run in a single call (the PLFS driver turns it into one WriteV, whose
// engine batches physically-contiguous pwrites), others get a pwrite
// per run — still coalesced.
func (f *File) flushArena(a *arena) error {
	if len(a.runs) == 0 {
		return nil
	}
	if vw, ok := f.df.(VectorWriter); ok && len(a.runs) > 1 {
		f.cdw.Add(1)
		f.cago.Add(1)
		n, err := vw.PwritevAt(a.runs, a.buf)
		f.cbw.Add(int64(n))
		return err
	}
	cursor := int64(0)
	for _, run := range a.runs {
		f.cdw.Add(1)
		f.cago.Add(1)
		n, err := f.df.PwriteAt(a.buf[cursor:cursor+run.Len], run.Off)
		f.cbw.Add(int64(n))
		if err != nil {
			return err
		}
		cursor += run.Len
	}
	return nil
}

// fetchArena reads one round's covering runs into the arena:
// vector-capable drivers in one call (PLFS resolves the index once and
// batches contiguous extents across runs), others a pread per run.
// Bytes past EOF are zero-filled either way.
func (f *File) fetchArena(a *arena) error {
	if len(a.runs) == 0 {
		return nil
	}
	if vr, ok := f.df.(VectorReader); ok && len(a.runs) > 1 {
		f.cdr.Add(1)
		f.cago.Add(1)
		n, err := vr.PreadvAt(a.runs, a.buf)
		f.cbr.Add(int64(n))
		return err
	}
	cursor := int64(0)
	for _, run := range a.runs {
		f.cdr.Add(1)
		f.cago.Add(1)
		dst := a.buf[cursor : cursor+run.Len]
		n, err := f.df.PreadAt(dst, run.Off)
		if err != nil && !errors.Is(err, io.EOF) {
			return err
		}
		for i := n; i < len(dst); i++ {
			dst[i] = 0
		}
		f.cbr.Add(int64(n))
		cursor += run.Len
	}
	return nil
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
	if aggIndexOf(f.rank.Rank(), &g) >= 0 {
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
	if err := f.funnel(aggErr, nil, "write"); err != nil {
		return 0, err
	}
	n := int(segsBytes(segs))
	f.observeTune(int64(n))
	return n, nil
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
	if aggIndexOf(f.rank.Rank(), &g) >= 0 {
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
	if err := f.funnel(aggErr, nil, "read"); err != nil {
		return 0, err
	}
	n := int(segsBytes(segs))
	f.observeTune(int64(n))
	return n, nil
}

// funnel runs the closing allreduce every rank must reach and turns the
// reduced flag into this rank's error.
func (f *File) funnel(aggErr, localErr error, op string) error {
	var flag int64
	if aggErr != nil || localErr != nil {
		flag = 1
	}
	if f.rank.AllreduceInt64(flag, mpi.OpMax) != 0 {
		switch {
		case aggErr != nil:
			return aggErr
		case localErr != nil:
			return localErr
		default:
			return fmt.Errorf("mpiio: collective %s failed on another rank", op)
		}
	}
	return nil
}
