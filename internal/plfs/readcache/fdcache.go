package readcache

import (
	"errors"
	"sync"

	"ldplfs/internal/posix"
)

// DefaultMaxFDs bounds the number of open read descriptors, in use and
// cached. Wide containers (thousands of historical writers) would
// otherwise hold one fd per data dropping, during a read and for as
// long as any reader exists.
const DefaultMaxFDs = 128

// FDCache is a size-capped cache of read-only file descriptors keyed by
// backend path, pinned a plan at a time: a scatter-gather hands Pin the
// distinct droppings it is about to read, preads through the
// descriptors it gets back and hands them all to Unpin when it is done.
// Concurrent plans over one dropping share its descriptor (positional
// Pread carries no file pointer, so sharing is safe — see posix.FS).
//
// Only idle descriptors — pinned by no plan — are ever evicted, least
// recently unpinned first, so recency is per plan and a plan never
// closes one of its own droppings to admit another. The cap bounds what
// is open, pinned and idle together: a plan wider than the room the cap
// leaves it is pinned a round at a time (Pin reports that there is
// more), cached droppings first, so a cyclic scan of N > cap droppings
// still opens only N - cap a pass. The one excess is for progress: a
// round that finds every slot pinned by other plans opens a single
// descriptor over the cap, so the cache holds at most cap + plans in
// flight - 1. A descriptor dropped (DropPrefix) while pinned stays
// open, and counted, until its last Unpin. All methods are safe for
// concurrent use.
//
// Multi-backend instances hand the cache their striped composite
// (posix.StripedFS): a dropping's path names exactly one backend under
// the placement rule, so the path key is simultaneously the backend key
// and cached descriptors never cross backends. DropPrefix on a container
// path therefore reaches the droppings on every backend at once.
type FDCache struct {
	fs  posix.FS
	max int

	mu      sync.Mutex
	entries map[string]*fdEntry // live descriptors, pinned and idle
	idle    fdEntry             // sentinel of the idle ring: idle.next is the LRU
	nidle   int                 // descriptors on the idle ring
	held    int                 // descriptors pinned by plans, plus slots reserved for opens under way
}

type fdEntry struct {
	path string
	fd   int
	refs int  // plans holding the descriptor; 0 = on the idle ring
	dead bool // dropped while pinned; closes when refs reaches zero

	// Idle-ring links, nil while pinned; next alone chains entries that
	// have left the cache on their way to Close.
	prev, next *fdEntry
}

// NewFDCache returns a cache over fs holding at most max descriptors
// (DefaultMaxFDs if max <= 0).
func NewFDCache(fs posix.FS, max int) *FDCache {
	if max <= 0 {
		max = DefaultMaxFDs
	}
	c := &FDCache{fs: fs, max: max, entries: make(map[string]*fdEntry)}
	c.idle.prev, c.idle.next = &c.idle, &c.idle
	return c
}

// Pin is one dropping of a plan. While Live, FD is valid until the
// Unpin that returns it, whatever the cache evicts or drops meanwhile —
// or Err says why the dropping could not be opened. Neither Live nor
// done, it waits for a later round.
type Pin struct {
	FD   int
	Err  error
	e    *fdEntry
	done bool // read in an earlier round of its plan
}

// Live reports whether the last Pin call settled this dropping, with a
// descriptor or with an error: its batches are this round's to run.
func (p *Pin) Live() bool { return p.e != nil || p.Err != nil }

// Pin starts a round of a plan over paths (distinct, len(pins) ==
// len(paths), pins zeroed before the first round). Every cached
// descriptor the plan has not read through yet is taken first, under one
// lock hold; then as many of the others are opened as the cap has room
// for — one at least when nothing was cached, so every round reads
// something. A failed open is reported in its Pin alone, except that a
// process out of descriptors (EMFILE with every idle one given back)
// only ends a round that already holds something to read through. more
// reports droppings left for another round: hand the pins to Unpin,
// errors included, and call Pin again.
func (c *FDCache) Pin(paths []string, pins []Pin) (more bool) {
	got, misses := 0, 0
	c.mu.Lock()
	for i, path := range paths {
		if pins[i].done {
			continue
		}
		if e := c.entries[path]; e != nil {
			pins[i] = Pin{FD: c.pinLocked(e), e: e}
			got++
		} else {
			misses++
		}
	}
	room := c.max - c.held
	if got == 0 {
		room = max(room, 1)
	}
	take := max(min(misses, room), 0)
	c.held += take // reserved: the idle descriptors make way before the opens
	victims := c.evictLocked(c.max, nil)
	c.mu.Unlock()
	c.closeAll(victims)

	more = misses > take
	for i := 0; take > 0; i++ {
		if pins[i].done || pins[i].e != nil {
			continue
		}
		fd, err := c.open(paths[i])
		c.mu.Lock()
		if got > 0 && errors.Is(err, posix.EMFILE) {
			c.held -= take
			c.mu.Unlock()
			return true
		}
		take--
		c.held-- // the reservation: pinLocked counts the descriptor itself
		if err != nil {
			pins[i].Err = err
			c.mu.Unlock()
			continue
		}
		e := c.entries[paths[i]]
		if e == nil {
			e = &fdEntry{path: paths[i], fd: fd}
			c.entries[paths[i]] = e
		}
		pins[i] = Pin{FD: c.pinLocked(e), e: e}
		got++
		c.mu.Unlock()
		if e.fd != fd {
			// Another plan opened the same dropping while we did; share
			// its descriptor and discard ours.
			c.fs.Close(fd)
		}
	}
	return more
}

// Unpin ends a round: it releases every descriptor the Pin call
// returned and marks those droppings done. Descriptors no other plan
// holds go idle in pin order, behind those of every round that finished
// earlier, and the cache is within its cap again.
func (c *FDCache) Unpin(pins []Pin) {
	var victims *fdEntry
	c.mu.Lock()
	for i := range pins {
		e := pins[i].e
		if !pins[i].Live() {
			continue
		}
		pins[i] = Pin{done: true}
		if e == nil {
			continue
		}
		if e.refs--; e.refs > 0 {
			continue
		}
		c.held--
		if e.dead {
			e.next, victims = victims, e
			continue
		}
		e.prev, e.next = c.idle.prev, &c.idle
		e.prev.next, c.idle.prev = e, e
		c.nidle++
	}
	victims = c.evictLocked(c.max, victims)
	c.mu.Unlock()
	c.closeAll(victims)
}

// pinLocked takes a reference on e, lifting it off the idle ring if it
// was there. Caller holds c.mu.
func (c *FDCache) pinLocked(e *fdEntry) int {
	if e.next != nil {
		c.unlinkLocked(e)
	}
	if e.refs == 0 {
		c.held++
	}
	e.refs++
	return e.fd
}

func (c *FDCache) unlinkLocked(e *fdEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	c.nidle--
}

// evictLocked removes idle entries, least recently unpinned first,
// until at most keep descriptors are open or spoken for, or nothing is
// idle, and returns them chained ahead of victims, for closeAll. Caller
// holds c.mu.
func (c *FDCache) evictLocked(keep int, victims *fdEntry) *fdEntry {
	for c.held+c.nidle > keep && c.nidle > 0 {
		e := c.idle.next
		c.unlinkLocked(e)
		delete(c.entries, e.path)
		e.next, victims = victims, e
	}
	return victims
}

// closeAll closes a chain of entries that have left the cache.
func (c *FDCache) closeAll(victims *fdEntry) {
	for e := victims; e != nil; e = e.next {
		c.fs.Close(e.fd)
	}
}

// open opens path read-only. EMFILE means the process is out of
// descriptors, not that the dropping is out of reach: every idle
// descriptor is given back and the open tried once more.
func (c *FDCache) open(path string) (int, error) {
	fd, err := c.fs.Open(path, posix.O_RDONLY, 0)
	if errors.Is(err, posix.EMFILE) {
		c.mu.Lock()
		victims := c.evictLocked(0, nil)
		c.mu.Unlock()
		c.closeAll(victims)
		fd, err = c.fs.Open(path, posix.O_RDONLY, 0)
	}
	return fd, err
}

// DropPrefix invalidates every entry whose path starts with prefix —
// called when a container's droppings are deleted (truncate-to-zero,
// unlink, rename) or its last open handle closes. Idle descriptors
// close immediately; pinned ones close on their final Unpin.
func (c *FDCache) DropPrefix(prefix string) {
	var victims *fdEntry
	c.mu.Lock()
	for p, e := range c.entries {
		if len(p) < len(prefix) || p[:len(prefix)] != prefix {
			continue
		}
		delete(c.entries, p)
		e.dead = true
		if e.refs == 0 {
			c.unlinkLocked(e)
			e.next, victims = victims, e
		}
	}
	c.mu.Unlock()
	c.closeAll(victims)
}

// Len returns the number of cached (live) descriptors.
func (c *FDCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
