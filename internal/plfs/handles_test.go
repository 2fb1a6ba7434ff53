package plfs

import (
	"bytes"
	"fmt"
	"testing"

	"ldplfs/internal/posix"
)

// windowRun is one script of TestHandleWindow: n handles on one
// container in one instance, each driven from its own goroutine, checked
// against a flat []byte oracle.
type windowRun struct {
	p      *FS
	path   string
	pids   []uint32
	files  []*File // nil = closed
	work   []chan func() error
	ack    chan error
	oracle []byte
}

// on runs fn on handle h's goroutine and waits for it: the interleaving
// is the script's, the goroutines are real.
func (r *windowRun) on(h int, fn func() error) error {
	r.work[h] <- fn
	return <-r.ack
}

// file returns handle h, reopening it if an earlier step closed it.
func (r *windowRun) file(h int) (*File, error) {
	if r.files[h] == nil {
		f, err := r.p.Open(r.path, posix.O_CREAT|posix.O_RDWR, r.pids[h], 0o644)
		if err != nil {
			return nil, err
		}
		r.files[h] = f
	}
	return r.files[h], nil
}

func (r *windowRun) closeHandle(h int) error {
	f := r.files[h]
	if f == nil {
		return nil
	}
	r.files[h] = nil
	// One Close per pid of the run, the way writeN1 closes a handle that
	// wrote for many pids: only the first may release it.
	for _, pid := range append([]uint32{r.pids[h]}, r.pids...) {
		if err := f.Close(pid); err != nil {
			return err
		}
	}
	return nil
}

// offset is where step's write lands: overlapping the previous step's,
// and never past EOF — the index cannot represent the trailing hole a
// later truncate into a gap would leave (see truncateContainer).
func (r *windowRun) offset(step int) int64 { return int64(min(3*step, len(r.oracle))) }

func (r *windowRun) put(off int64, data []byte) {
	if end := int(off) + len(data); end > len(r.oracle) {
		r.oracle = append(r.oracle, make([]byte, end-len(r.oracle))...)
	}
	copy(r.oracle[off:], data)
}

// windowOps is the alphabet the scripts are drawn from. Each op runs on
// handle h's goroutine as step number step and keeps the oracle in sync.
var windowOps = []struct {
	name string
	do   func(r *windowRun, h, step int) error
}{
	{"Write", func(r *windowRun, h, step int) error {
		f, err := r.file(h)
		if err != nil {
			return err
		}
		data, off := bytes.Repeat([]byte{byte('a' + 3*step + h)}, 5), r.offset(step)
		r.put(off, data)
		_, err = f.Write(data, off, r.pids[h])
		return err
	}},
	{"WriteV", func(r *windowRun, h, step int) error {
		f, err := r.file(h)
		if err != nil {
			return err
		}
		data, off := bytes.Repeat([]byte{byte('A' + 3*step + h)}, 3), r.offset(step)
		r.put(off, data)
		r.put(off+3, data[:2])
		_, err = f.WriteV([]WriteSeg{{Off: off + 3, Data: data[:2]}, {Off: off, Data: data}}, r.pids[h])
		return err
	}},
	{"Sync", func(r *windowRun, h, step int) error {
		f, err := r.file(h)
		if err != nil {
			return err
		}
		return f.Sync(r.pids[h])
	}},
	{"Read", func(r *windowRun, h, step int) error {
		f, err := r.file(h)
		if err != nil {
			return err
		}
		return r.check(f)
	}},
	{"Trunc0", func(r *windowRun, h, step int) error {
		f, err := r.file(h)
		if err != nil {
			return err
		}
		r.oracle = r.oracle[:0]
		return f.Trunc(0)
	}},
	{"TruncHalf", func(r *windowRun, h, step int) error {
		f, err := r.file(h)
		if err != nil {
			return err
		}
		r.oracle = r.oracle[:len(r.oracle)/2]
		return f.Trunc(int64(len(r.oracle)))
	}},
	{"Close", func(r *windowRun, h, step int) error {
		return r.closeHandle(h)
	}},
	{"ReopenTrunc", func(r *windowRun, h, step int) error {
		if err := r.closeHandle(h); err != nil {
			return err
		}
		r.oracle = r.oracle[:0]
		f, err := r.p.Open(r.path, posix.O_RDWR|posix.O_TRUNC, r.pids[h], 0)
		r.files[h] = f
		return err
	}},
	{"PathTruncate", func(r *windowRun, h, step int) error {
		r.oracle = r.oracle[:len(r.oracle)*2/3]
		return r.p.Truncate(r.path, int64(len(r.oracle)))
	}},
}

// check reads the whole file through f and compares it with the oracle.
func (r *windowRun) check(f *File) error {
	got := make([]byte, len(r.oracle)+8)
	n, err := f.Read(got, 0)
	if err != nil {
		return err
	}
	if !bytes.Equal(got[:n], r.oracle) {
		return fmt.Errorf("read %q, oracle %q", got[:n], r.oracle)
	}
	return nil
}

// registered reports how many handles the instance's registry counts on
// the run's container.
func (r *windowRun) registered() int {
	r.p.hmu.Lock()
	defer r.p.hmu.Unlock()
	if c := r.p.containers[r.path]; c != nil {
		return c.handles
	}
	return 0
}

// TestHandleWindow enumerates, rather than samples, what several handles
// on one container in one instance can do to each other: every sequence
// of three ops from windowOps, dealt round-robin to 1, 2 or 3 handles
// that share a pid or not. Each handle has its own goroutine; channels
// fix the interleaving. After every step the registry counts exactly the
// open handles; after the last Close the container reads back equal to
// the oracle through a fresh instance and nothing is left open.
func TestHandleWindow(t *testing.T) {
	const steps = 3
	nops := len(windowOps)
	total := 1
	for i := 0; i < steps; i++ {
		total *= nops
	}
	for _, nh := range []int{1, 2, 3} {
		for _, samePid := range []bool{true, false} {
			for code := 0; code < total; code++ {
				script := make([]int, steps)
				name := fmt.Sprintf("handles=%d/samePid=%v", nh, samePid)
				for i, c := 0, code; i < steps; i, c = i+1, c/nops {
					script[i] = c % nops
					name += "/" + windowOps[script[i]].name
				}
				if err := runWindow(nh, samePid, script); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

func runWindow(nh int, samePid bool, script []int) error {
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		return err
	}
	r := &windowRun{
		p:     New(mem, EngineOptions{NumHostdirs: 4}),
		path:  "/backend/w",
		pids:  make([]uint32, nh),
		files: make([]*File, nh),
		work:  make([]chan func() error, nh),
		ack:   make(chan error),
	}
	for h := range r.work {
		r.pids[h] = 7
		if !samePid {
			r.pids[h] += uint32(h)
		}
		ch := make(chan func() error)
		r.work[h] = ch
		go func() {
			for fn := range ch {
				r.ack <- fn()
			}
		}()
		defer close(ch)
	}
	open := func() int {
		n := 0
		for _, f := range r.files {
			if f != nil {
				n++
			}
		}
		return n
	}
	step := func(what string, h int, fn func() error) error {
		if err := r.on(h, fn); err != nil {
			return fmt.Errorf("%s on handle %d: %w", what, h, err)
		}
		if got, want := r.registered(), open(); got != want {
			return fmt.Errorf("after %s on handle %d: registry counts %d handles, %d are open", what, h, got, want)
		}
		return nil
	}

	for h := range r.files {
		if err := step("open", h, func() error { _, err := r.file(h); return err }); err != nil {
			return err
		}
	}
	for i, op := range script {
		h := i % nh
		if err := step(windowOps[op].name, h, func() error { return windowOps[op].do(r, h, i) }); err != nil {
			return err
		}
	}
	// A closing write through handle 0, so the last writer out has a
	// flattened record to leave behind.
	if err := step("tail write", 0, func() error { return windowOps[0].do(r, 0, len(script)) }); err != nil {
		return err
	}
	for h := range r.files {
		if err := step("close", h, func() error { return r.closeHandle(h) }); err != nil {
			return err
		}
	}

	fresh := New(mem, EngineOptions{NumHostdirs: 4})
	f, err := fresh.Open(r.path, posix.O_RDONLY, 99, 0)
	if err != nil {
		return err
	}
	if err := r.check(f); err != nil {
		return fmt.Errorf("fresh instance: %w", err)
	}
	if err := f.Close(99); err != nil {
		return err
	}
	if hosts, err := mem.Readdir(r.path + "/" + openhostsDir); err != nil || len(hosts) != 0 {
		return fmt.Errorf("openhosts after last close: %v, %v", hosts, err)
	}
	if n := r.p.CachedReadFDs() + fresh.CachedReadFDs(); n != 0 {
		return fmt.Errorf("%d read fds still cached", n)
	}
	if n := mem.OpenFDs(); n != 0 {
		return fmt.Errorf("%d backend fds still open", n)
	}
	health, err := r.p.IndexHealth(r.path)
	if err != nil {
		return err
	}
	if health.Flattened == nil || !health.Flattened.Fresh || health.StaleRecords != 0 {
		return fmt.Errorf("flattened record after last close: %+v (stale records %d)", health.Flattened, health.StaleRecords)
	}
	return nil
}
