// Package mpi provides an in-process MPI runtime: ranks are goroutines,
// the world communicator supports the collectives ROMIO and the
// mini-applications need (Barrier, Bcast, Gather, Allgather, Allreduce,
// Alltoall), and the processes-per-node a world is launched with
// mirrors how the paper lays ranks out on Minerva and Sierra.
//
// Collectives are built on a single generation-counted rendezvous: every
// rank deposits a value, the last arrival runs a combiner over the full
// slot vector, and all ranks pick up their per-rank result. This gives
// deterministic semantics without per-collective channel plumbing. The
// slot and result vectors live in the communicator and are reused by
// every collective, and so are the vectors Allgather and Alltoall hand
// their callers: a Barrier, a Bcast, an Allgather of a pointer and an
// Alltoall allocate nothing. Only Gather's vector is fresh each time.
package mpi

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Rank is the per-goroutine handle: rank id, world size, and topology.
type Rank struct {
	rank int
	comm *Comm
}

// Comm is a communicator shared by a set of ranks.
type Comm struct {
	size int
	ppn  int

	mu      sync.Mutex
	cond    *sync.Cond
	gen     uint64
	arrived int
	slots   []any
	results []any

	// The vectors Allgather and Alltoall hand their callers: one
	// gathered vector every rank shares, one receive vector per rank,
	// and the send vectors Alltoall's combiner reads. A rank's view
	// stays valid until its next collective: the next combine that
	// overwrites it runs only once every rank has entered that one.
	gathered []any
	recv     [][]any
	sends    [][]any
}

func newComm(size, ppn int) *Comm {
	c := &Comm{
		size: size, ppn: ppn,
		slots: make([]any, size), results: make([]any, size),
		gathered: make([]any, size), recv: make([][]any, size), sends: make([][]any, size),
	}
	for i := range c.recv {
		c.recv[i] = make([]any, size)
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Run launches size ranks with ppn processes per node and waits for all of
// them. A panic in any rank is recovered and returned as an error naming
// the rank (so test failures are attributable).
func Run(size, ppn int, body func(r *Rank)) error {
	if size <= 0 {
		return fmt.Errorf("mpi: invalid world size %d", size)
	}
	if ppn <= 0 {
		ppn = 1
	}
	comm := newComm(size, ppn)
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("mpi: rank %d panicked: %v", r, p)
				}
			}()
			body(&Rank{rank: r, comm: comm})
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Rank returns this process's rank in the world communicator.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return r.comm.size }

// PPN returns the processes-per-node the world was launched with.
func (r *Rank) PPN() int { return r.comm.ppn }

// rendezvous deposits value, lets the last arrival run combine over all
// deposits, and returns this rank's combined result. combine fills
// results, one per rank, from slots; it must not keep either vector,
// which the next collective reuses. A rank reads its result before it
// can deposit into the next collective, so the next combine never
// overwrites a result still unread.
func (r *Rank) rendezvous(value any, combine func(slots, results []any)) any {
	c := r.comm
	c.mu.Lock()
	gen := c.gen
	c.slots[r.rank] = value
	c.arrived++
	if c.arrived == c.size {
		clear(c.results)
		combine(c.slots, c.results)
		clear(c.slots)
		c.arrived = 0
		c.gen++
		c.cond.Broadcast()
	} else {
		for c.gen == gen {
			c.cond.Wait()
		}
	}
	res := c.results[r.rank]
	c.mu.Unlock()
	return res
}

// Barrier blocks until every rank has entered it.
func (r *Rank) Barrier() {
	r.rendezvous(nil, func(_, _ []any) {})
}

// Bcast returns root's value on every rank.
func (r *Rank) Bcast(root int, value any) any {
	return r.rendezvous(value, func(in, out []any) {
		for i := range out {
			out[i] = in[root]
		}
	})
}

// Gather returns every rank's value, in rank order, on root (nil
// elsewhere).
func (r *Rank) Gather(root int, value any) []any {
	res := r.rendezvous(value, func(in, out []any) {
		out[root] = slices.Clone(in)
	})
	if res == nil {
		return nil
	}
	return res.([]any)
}

// Allgather returns every rank's value, in rank order, on all ranks.
// Every rank gets the same vector, valid until its next collective;
// callers must not modify it.
func (r *Rank) Allgather(value any) []any {
	c := r.comm
	r.rendezvous(value, func(in, _ []any) { copy(c.gathered, in) })
	return c.gathered
}

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMin
	OpMax
)

func reduceInt64(vals []any, op Op) int64 {
	acc := vals[0].(int64)
	for _, v := range vals[1:] {
		x := v.(int64)
		switch op {
		case OpSum:
			acc += x
		case OpMin:
			if x < acc {
				acc = x
			}
		case OpMax:
			if x > acc {
				acc = x
			}
		}
	}
	return acc
}

// AllreduceInt64 reduces value across ranks and returns the result
// everywhere.
func (r *Rank) AllreduceInt64(value int64, op Op) int64 {
	res := r.rendezvous(value, func(in, out []any) {
		var acc any = reduceInt64(in, op)
		for i := range out {
			out[i] = acc
		}
	})
	return res.(int64)
}

// Alltoall exchanges one arbitrary value per destination rank: send[i]
// goes to rank i, and the result holds at index j the value rank j sent
// to this rank. Nil entries are allowed and arrive as nil. The result
// is this rank's receive vector, valid until its next collective; send
// is not kept, so the caller may reuse it for its next collective.
//
// Nothing is marshalled: the value itself — typically a slice of
// descriptors referencing the sender's memory — crosses ranks by
// reference, so large payloads move zero-copy. The rendezvous gives the
// usual happens-before edge (everything a sender wrote before entering
// the exchange is visible to receivers after it returns), and a
// receiver holding references into a peer's memory keeps them valid as
// long as both sides still have a later collective to meet at. mpiio's
// two-phase collective is built on that: its closing allreduce is the
// meeting point.
func (r *Rank) Alltoall(send []any) []any {
	c := r.comm
	if len(send) != c.size {
		panic(fmt.Sprintf("mpi: Alltoall send vector has %d entries for %d ranks", len(send), c.size))
	}
	// The send vector rides beside the rendezvous, not in its slot, so
	// that depositing it boxes nothing. The rendezvous's lock orders this
	// write before the combine, which runs once every rank has arrived.
	c.sends[r.rank] = send
	r.rendezvous(nil, func(_, _ []any) {
		for dst, recv := range c.recv {
			for src, s := range c.sends {
				recv[src] = s[dst]
			}
		}
		clear(c.sends)
	})
	return c.recv[r.rank]
}
