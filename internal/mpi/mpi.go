// Package mpi provides an in-process MPI runtime: ranks are goroutines,
// the world communicator supports the collectives ROMIO and the
// mini-applications need (Barrier, Bcast, Gather, Allgather, Reduce,
// Allreduce, Alltoall), and a node topology (processes-per-node) mirrors
// how the paper lays ranks out on Minerva and Sierra.
//
// Collectives are built on a single generation-counted rendezvous: every
// rank deposits a value, the last arrival runs a combiner over the full
// slot vector, and all ranks pick up their per-rank result. This gives
// deterministic semantics without per-collective channel plumbing.
package mpi

import (
	"errors"
	"fmt"
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
	combine func([]any) []any
	mbox    *mailbox
}

func newComm(size, ppn int) *Comm {
	c := &Comm{size: size, ppn: ppn, slots: make([]any, size), results: make([]any, size)}
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

// Node returns the compute node this rank lives on (block distribution,
// as mpirun lays out ranks by default).
func (r *Rank) Node() int { return r.rank / r.comm.ppn }

// NodeRank returns this rank's index within its node.
func (r *Rank) NodeRank() int { return r.rank % r.comm.ppn }

// Nodes returns the number of nodes in the job.
func (r *Rank) Nodes() int { return (r.comm.size + r.comm.ppn - 1) / r.comm.ppn }

// NodeLeader reports whether this rank is the first on its node — the
// default ROMIO collective-buffering aggregator (one per distinct node,
// exactly the paper's configuration).
func (r *Rank) NodeLeader() bool { return r.NodeRank() == 0 }

// rendezvous deposits value, lets the last arrival run combine over all
// deposits, and returns this rank's combined result.
func (r *Rank) rendezvous(value any, combine func([]any) []any) any {
	c := r.comm
	c.mu.Lock()
	gen := c.gen
	c.slots[r.rank] = value
	c.arrived++
	if c.arrived == c.size {
		out := combine(c.slots)
		if len(out) != c.size {
			c.mu.Unlock()
			panic(fmt.Sprintf("mpi: combiner returned %d results for %d ranks", len(out), c.size))
		}
		copy(c.results, out)
		c.arrived = 0
		c.slots = make([]any, c.size)
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
	r.rendezvous(nil, func(in []any) []any { return in })
}

// Bcast returns root's value on every rank.
func (r *Rank) Bcast(root int, value any) any {
	return r.rendezvous(value, func(in []any) []any {
		out := make([]any, len(in))
		for i := range out {
			out[i] = in[root]
		}
		return out
	})
}

// Gather returns every rank's value, in rank order, on root (nil
// elsewhere).
func (r *Rank) Gather(root int, value any) []any {
	res := r.rendezvous(value, func(in []any) []any {
		gathered := make([]any, len(in))
		copy(gathered, in)
		out := make([]any, len(in))
		out[root] = gathered
		return out
	})
	if res == nil {
		return nil
	}
	return res.([]any)
}

// Allgather returns every rank's value, in rank order, on all ranks.
func (r *Rank) Allgather(value any) []any {
	res := r.rendezvous(value, func(in []any) []any {
		gathered := make([]any, len(in))
		copy(gathered, in)
		out := make([]any, len(in))
		for i := range out {
			out[i] = gathered
		}
		return out
	})
	return res.([]any)
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

func reduceFloat64(vals []any, op Op) float64 {
	acc := vals[0].(float64)
	for _, v := range vals[1:] {
		x := v.(float64)
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
	res := r.rendezvous(value, func(in []any) []any {
		acc := reduceInt64(in, op)
		out := make([]any, len(in))
		for i := range out {
			out[i] = acc
		}
		return out
	})
	return res.(int64)
}

// AllreduceFloat64 reduces value across ranks and returns the result
// everywhere.
func (r *Rank) AllreduceFloat64(value float64, op Op) float64 {
	res := r.rendezvous(value, func(in []any) []any {
		acc := reduceFloat64(in, op)
		out := make([]any, len(in))
		for i := range out {
			out[i] = acc
		}
		return out
	})
	return res.(float64)
}

// ReduceInt64 reduces to root; other ranks receive 0.
func (r *Rank) ReduceInt64(root int, value int64, op Op) int64 {
	res := r.rendezvous(value, func(in []any) []any {
		acc := reduceInt64(in, op)
		out := make([]any, len(in))
		for i := range out {
			out[i] = int64(0)
		}
		out[root] = acc
		return out
	})
	return res.(int64)
}

// Alltoall exchanges one arbitrary value per destination rank: send[i]
// goes to rank i, and the result holds at index j the value rank j sent
// to this rank. Nil entries are allowed and arrive as nil.
//
// Nothing is marshalled: the value itself — typically
// a slice of descriptors referencing the sender's memory — crosses
// ranks by reference, so large payloads move zero-copy. The rendezvous
// gives the usual happens-before edge (everything a sender wrote before
// entering the exchange is visible to receivers after it returns), and
// a receiver holding references into a peer's memory keeps them valid
// by construction as long as both sides still have a later collective
// to meet at — the discipline the mpiio pipelined two-phase path is
// built on, where the closing allreduce is that meeting point.
func (r *Rank) Alltoall(send []any) []any {
	if len(send) != r.comm.size {
		panic(fmt.Sprintf("mpi: Alltoall send vector has %d entries for %d ranks", len(send), r.comm.size))
	}
	// The combiner must not retain the caller's slice: rendezvous slots
	// are recycled, but send itself may be reused by the caller for the
	// next round, so transpose out of it entirely.
	res := r.rendezvous(send, func(in []any) []any {
		n := len(in)
		out := make([]any, n)
		for dst := 0; dst < n; dst++ {
			recv := make([]any, n)
			for src := 0; src < n; src++ {
				recv[src] = in[src].([]any)[dst]
			}
			out[dst] = recv
		}
		return out
	})
	return res.([]any)
}
