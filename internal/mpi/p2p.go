package mpi

import (
	"fmt"
	"sync"
)

// Point-to-point messaging: blocking Send/Recv with tag matching, built
// on per-destination mailboxes. ROMIO's two-phase exchange uses
// Alltoall, but tools and tests (and MPI programs generally) also need
// plain sends — and the FLASH master-slave startup uses them.

type p2pKey struct {
	src, dst, tag int
}

type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue map[p2pKey][][]byte
}

func newMailbox() *mailbox {
	m := &mailbox{queue: make(map[p2pKey][][]byte)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// box lazily attaches one mailbox to the communicator.
func (c *Comm) box() *mailbox {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mbox == nil {
		c.mbox = newMailbox()
	}
	return c.mbox
}

// Send delivers a copy of buf to rank dst with the given tag. It returns
// once the message is enqueued (buffered send, like MPI_Bsend — safe
// because mailbox capacity is bounded only by memory).
func (r *Rank) Send(dst, tag int, buf []byte) {
	if dst < 0 || dst >= r.comm.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d", dst))
	}
	msg := make([]byte, len(buf))
	copy(msg, buf)
	key := p2pKey{src: r.rank, dst: dst, tag: tag}
	b := r.comm.box()
	b.mu.Lock()
	b.queue[key] = append(b.queue[key], msg)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. Messages from one (src,tag) pair arrive in send
// order.
func (r *Rank) Recv(src, tag int) []byte {
	if src < 0 || src >= r.comm.size {
		panic(fmt.Sprintf("mpi: Recv from invalid rank %d", src))
	}
	key := p2pKey{src: src, dst: r.rank, tag: tag}
	b := r.comm.box()
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.queue[key]) == 0 {
		b.cond.Wait()
	}
	msg := b.queue[key][0]
	b.queue[key] = b.queue[key][1:]
	if len(b.queue[key]) == 0 {
		delete(b.queue, key)
	}
	return msg
}

// SendRecv exchanges messages with a partner in one call — the classic
// deadlock-free pairwise exchange.
func (r *Rank) SendRecv(partner, tag int, send []byte) []byte {
	r.Send(partner, tag, send)
	return r.Recv(partner, tag)
}
