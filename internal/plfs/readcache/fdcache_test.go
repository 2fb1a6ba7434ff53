package readcache

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ldplfs/internal/iostats"
	"ldplfs/internal/posix"
)

func fdFixture(t *testing.T, n int) (*posix.MemFS, []string) {
	t.Helper()
	mem := posix.NewMemFS()
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d%d", i)
		fd, err := mem.Open(paths[i], posix.O_CREAT|posix.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		mem.Write(fd, []byte("x"))
		mem.Close(fd)
	}
	return mem, paths
}

// pin pins paths as one round of a plan and fails the test on any open
// error, or if the cache had no room for them all.
func pin(t *testing.T, c *FDCache, paths ...string) []Pin {
	t.Helper()
	pins := make([]Pin, len(paths))
	if c.Pin(paths, pins) {
		t.Fatalf("pin %v: droppings left for another round", paths)
	}
	for i, p := range pins {
		if p.Err != nil {
			t.Fatalf("pin %s: %v", paths[i], p.Err)
		}
	}
	return pins
}

// limitFS is a process with room for only limit descriptors.
type limitFS struct {
	*posix.MemFS
	limit, opens int
}

func (l *limitFS) Open(path string, flags int, mode uint32) (int, error) {
	if l.OpenFDs() >= l.limit {
		return -1, posix.EMFILE
	}
	l.opens++
	return l.MemFS.Open(path, flags, mode)
}

func TestPinSharesDescriptor(t *testing.T) {
	mem, paths := fdFixture(t, 1)
	c := NewFDCache(mem, 0)
	a := pin(t, c, paths[0])
	b := pin(t, c, paths[0])
	if a[0].FD != b[0].FD {
		t.Fatalf("same dropping produced two fds: %d vs %d", a[0].FD, b[0].FD)
	}
	c.Unpin(a)
	c.Unpin(b)
	if a[0].Live() || a[0].e != nil {
		t.Fatalf("Unpin left %+v behind, want no descriptor and no error", a[0])
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1 (unpin keeps the entry cached)", got)
	}
	if got := mem.OpenFDs(); got != 1 {
		t.Fatalf("backend fds = %d, want 1", got)
	}
}

func TestCapEvictsOldestUnpinned(t *testing.T) {
	mem, paths := fdFixture(t, 6)
	plane := iostats.NewPlane()
	c := NewFDCache(posix.NewInstrumentFS(mem, plane), 4)
	countOpens := func(fn func()) int64 {
		before := plane.Layer("posix").OpCount(iostats.Open)
		fn()
		return plane.Layer("posix").OpCount(iostats.Open) - before
	}
	for _, p := range paths {
		c.Unpin(pin(t, c, p))
	}
	if got := c.Len(); got != 4 {
		t.Fatalf("Len = %d, want cap 4", got)
	}
	if got := mem.OpenFDs(); got != 4 {
		t.Fatalf("backend fds = %d, want 4 (evicted fds closed)", got)
	}
	// The survivors are the four most recently unpinned: re-pinning them
	// opens nothing, re-pinning an evicted one does.
	if opens := countOpens(func() { c.Unpin(pin(t, c, paths[2:]...)) }); opens != 0 {
		t.Fatalf("re-pinning the 4 newest cost %d opens, want 0", opens)
	}
	if opens := countOpens(func() { c.Unpin(pin(t, c, paths[0])) }); opens != 1 {
		t.Fatalf("re-pinning the oldest cost %d opens, want 1", opens)
	}
}

// scan reads every dropping of paths as one plan, a round at a time, and
// returns the rounds it took; the cache must stay within bound
// descriptors throughout.
func scan(t *testing.T, c *FDCache, mem *posix.MemFS, bound int, paths []string) (rounds int) {
	t.Helper()
	pins := make([]Pin, len(paths))
	read := make([]bool, len(paths))
	buf := make([]byte, 1)
	for more := true; more; rounds++ {
		more = c.Pin(paths, pins)
		if got, fds := c.Len(), mem.OpenFDs(); got > bound || fds > bound {
			t.Fatalf("round %d: Len = %d, backend fds = %d, want both <= %d", rounds, got, fds, bound)
		}
		live := 0
		for i := range pins {
			if !pins[i].Live() {
				continue
			}
			live++
			if read[i] {
				t.Fatalf("round %d: %s pinned twice in one plan", rounds, paths[i])
			}
			read[i] = true
			if pins[i].Err != nil {
				t.Fatalf("round %d: pin %s: %v", rounds, paths[i], pins[i].Err)
			}
			if _, err := mem.Pread(pins[i].FD, buf, 0); err != nil {
				t.Fatalf("round %d: pinned fd of %s unusable: %v", rounds, paths[i], err)
			}
		}
		if live == 0 {
			t.Fatalf("round %d made no progress", rounds)
		}
		c.Unpin(pins)
	}
	for i, ok := range read {
		if !ok {
			t.Fatalf("%s never pinned", paths[i])
		}
	}
	return rounds
}

func TestPlanWiderThanCap(t *testing.T) {
	mem, paths := fdFixture(t, 6)
	lim := &limitFS{MemFS: mem, limit: 1 << 30}
	c := NewFDCache(lim, 4)
	// The cap holds during the plan too: a plan wider than it goes round
	// by round, and never closes a dropping it has yet to read through.
	if rounds := scan(t, c, mem, 4, paths); rounds != 2 || lim.opens != 6 {
		t.Fatalf("cold 6-wide plan over cap 4: %d rounds, %d opens, want 2 and 6", rounds, lim.opens)
	}
	// Cached droppings go first, so a second pass reopens only the two
	// the cap had no room for — not the whole container.
	lim.opens = 0
	if rounds := scan(t, c, mem, 4, paths); rounds != 2 || lim.opens != 2 {
		t.Fatalf("warm 6-wide plan over cap 4: %d rounds, %d opens, want 2 and 2", rounds, lim.opens)
	}
	// Another plan holds the whole cap: this one still moves, one
	// descriptor over it at a time.
	other := pin(t, c, paths[:4]...)
	if rounds := scan(t, c, mem, 5, paths[4:]); rounds != 2 {
		t.Fatalf("2-wide plan beside a full cap: %d rounds, want 2", rounds)
	}
	c.Unpin(other)
	if got, fds := c.Len(), mem.OpenFDs(); got != 4 || fds != 4 {
		t.Fatalf("after the plans: Len = %d, backend fds = %d, want 4 and 4", got, fds)
	}
}

// A process with fewer descriptors than the cap, or than the plan is
// wide, still reads every dropping: a round ends where the descriptors
// do, and the next one starts by giving the idle ones back.
func TestPlanWiderThanProcessLimit(t *testing.T) {
	for _, fdCap := range []int{2, 3, 128} {
		mem, paths := fdFixture(t, 8)
		lim := &limitFS{MemFS: mem, limit: 3}
		c := NewFDCache(lim, fdCap)
		for pass := 0; pass < 3; pass++ {
			scan(t, c, mem, 3, paths)
		}
		c.DropPrefix("/")
		if got := mem.OpenFDs(); got != 0 {
			t.Fatalf("cap %d: backend fds = %d after the last drop, want 0", fdCap, got)
		}
	}
}

func TestEvictionDefersUntilRelease(t *testing.T) {
	mem, paths := fdFixture(t, 3)
	c := NewFDCache(mem, 1)
	// Pin the first descriptor, then blow past the cap: the pinned fd
	// must stay open and readable until its unpin.
	held := pin(t, c, paths[0])
	fd0 := held[0].FD
	for _, p := range paths[1:] {
		c.Unpin(pin(t, c, p))
	}
	buf := make([]byte, 1)
	if _, err := mem.Pread(fd0, buf, 0); err != nil {
		t.Fatalf("pinned fd unusable: %v", err)
	}
	c.DropPrefix("/") // kill everything; fd0 still pinned
	if _, err := mem.Pread(fd0, buf, 0); err != nil {
		t.Fatalf("pinned fd closed by DropPrefix: %v", err)
	}
	c.Unpin(held)
	c.Unpin(held) // the pins were zeroed: a second unpin is a no-op
	if got := mem.OpenFDs(); got != 0 {
		t.Fatalf("backend fds = %d, want 0 after final unpin", got)
	}
}

func TestPinReportsOpenErrorPerPath(t *testing.T) {
	mem, paths := fdFixture(t, 2)
	c := NewFDCache(mem, 0)
	pins := make([]Pin, 3)
	c.Pin([]string{paths[0], "/absent", paths[1]}, pins)
	if pins[0].Err != nil || pins[2].Err != nil || pins[1].Err == nil {
		t.Fatalf("errors = %v, %v, %v; want only the absent dropping to fail", pins[0].Err, pins[1].Err, pins[2].Err)
	}
	c.Unpin(pins)
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

func TestEMFILEClosesIdleAndRetries(t *testing.T) {
	mem, paths := fdFixture(t, 4)
	flt := posix.NewFaultFS(mem)
	c := NewFDCache(flt, 0)
	c.Unpin(pin(t, c, paths[:3]...)) // three idle descriptors
	flt.Inject(&posix.FaultRule{Op: posix.FaultOpen, Times: 1, Err: posix.EMFILE})
	pins := pin(t, c, paths[3])
	if got := mem.OpenFDs(); got != 1 {
		t.Fatalf("backend fds = %d after the EMFILE retry, want 1 (every idle one given back)", got)
	}
	c.Unpin(pins)
	// A second EMFILE in a row is the caller's to see.
	c.DropPrefix("/")
	flt.Inject(&posix.FaultRule{Op: posix.FaultOpen, Times: 2, Err: posix.EMFILE})
	pins = make([]Pin, 1)
	c.Pin(paths[:1], pins)
	if !errors.Is(pins[0].Err, posix.EMFILE) {
		t.Fatalf("err = %v, want EMFILE after the one retry", pins[0].Err)
	}
	c.Unpin(pins)
	if got := mem.OpenFDs(); got != 0 {
		t.Fatalf("backend fds = %d, want 0", got)
	}
}

func TestDropPrefixScopesToContainer(t *testing.T) {
	mem := posix.NewMemFS()
	mem.Mkdir("/a", 0o755)
	mem.Mkdir("/ab", 0o755)
	for _, p := range []string{"/a/d", "/ab/d"} {
		fd, _ := mem.Open(p, posix.O_CREAT|posix.O_WRONLY, 0o644)
		mem.Close(fd)
	}
	c := NewFDCache(mem, 0)
	c.Unpin(pin(t, c, "/a/d", "/ab/d"))
	c.DropPrefix("/a/")
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1 (/ab/d must survive /a/'s drop)", got)
	}
}

func TestPinConcurrent(t *testing.T) {
	mem, paths := fdFixture(t, 8)
	c := NewFDCache(mem, 4)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pins := make([]Pin, 3)
			plan := make([]string, 3)
			buf := make([]byte, 1)
			for i := 0; i < 50; i++ {
				for k := range plan {
					plan[k] = paths[(g+i+k)%len(paths)]
				}
				clear(pins)
				for more := true; more; {
					more = c.Pin(plan, pins)
					for k, p := range pins {
						if !p.Live() {
							continue
						}
						if p.Err != nil {
							t.Error(p.Err)
						} else if _, err := mem.Pread(p.FD, buf, 0); err != nil {
							t.Errorf("pread via pinned fd of %s: %v", plan[k], err)
						}
					}
					if i%16 == 0 {
						c.DropPrefix("/d1")
					}
					if fds := mem.OpenFDs(); fds > 4+32-1 {
						t.Errorf("%d descriptors open, want <= cap 4 + 32 plans - 1", fds)
					}
					c.Unpin(pins)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Len(); got > 4 {
		t.Fatalf("Len = %d, want <= 4 after churn", got)
	}
	c.DropPrefix("/")
	if got := mem.OpenFDs(); got != 0 {
		t.Fatalf("backend fds = %d after the last drop, want 0", got)
	}
}
