package client_test

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ldplfs/internal/core"
	"ldplfs/internal/posix"
	"ldplfs/internal/service"
	"ldplfs/internal/service/client"
)

// pipeGateway serves a MemFS gateway over in-memory pipes and returns
// what dials it: the wire, its framing and its copies with no kernel in
// between, so an allocation count is the package's own.
func pipeGateway(t *testing.T) func() *client.Conn {
	t.Helper()
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	mounts, err := core.ParseMounts("/mnt/plfs=/backend")
	if err != nil {
		t.Fatal(err)
	}
	g, err := service.NewGateway(service.Config{
		Backend: mem,
		Mounts:  mounts,
		Tenants: []service.TenantConfig{{Name: "gold"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
	srv := service.NewServer(g)
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-served
	})
	return func() *client.Conn {
		t.Helper()
		near, far := net.Pipe()
		select {
		case ln.conns <- far:
		case <-ln.closed:
			t.Fatal("gateway closed")
		}
		c, err := client.New(near, "gold")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
}

type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

const block = 64 << 10

// TestWireDataPathAllocs is the budget the connection buffers exist to
// meet: a warmed 64 KiB Pread or Pwrite round trip — client, wire,
// server loop, session and QoS stage together, both goroutines counted —
// allocates at most 10 objects and 1 KiB. The parent allocated four
// 64 KiB buffers per op (≈ 255 KB). Counts only, no wall clock.
//
// The read is a PLFS container's; the write goes in place to a plain
// file beside the mount, because MemFS grows an appended-to dropping by
// doubling and that, not the wire, would be what a container write
// counts.
func TestWireDataPathAllocs(t *testing.T) {
	c := pipeGateway(t)()
	data := pattern(block)

	rfd, err := c.Open("/mnt/plfs/warm", posix.O_CREAT|posix.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	wfd, err := c.Open("/backend/plain", posix.O_CREAT|posix.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.Pwrite(rfd, data, 0); err != nil || n != block {
		t.Fatalf("Pwrite = %d, %v", n, err)
	}
	got := make([]byte, block)
	ops := map[string]func(){
		"Pread": func() {
			if n, err := c.Pread(rfd, got, 0); err != nil || n != block {
				t.Fatalf("Pread = %d, %v", n, err)
			}
		},
		"Pwrite": func() {
			if n, err := c.Pwrite(wfd, data, 0); err != nil || n != block {
				t.Fatalf("Pwrite = %d, %v", n, err)
			}
		},
	}
	for name, op := range ops {
		for i := 0; i < 8; i++ {
			op() // warm: buffers sized, index built, plans pooled
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, op)
		runtime.ReadMemStats(&after)
		perOp := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once more
		t.Logf("%s: %.1f allocs, %.0f B per round trip", name, allocs, perOp)
		if allocs > 10 {
			t.Errorf("%s: %.1f allocations per round trip, budget 10", name, allocs)
		}
		if perOp > 1024 {
			t.Errorf("%s: %.0f bytes allocated per round trip, budget 1024", name, perOp)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
}

// TestFramePayloadNotRetained checks the lifetime rule from both sides.
// Nothing below the session keeps the frame buffer a write arrived in
// (block A survives the frame that carried block B in the same memory),
// the client keeps nothing of the caller's slice (it is overwritten as
// soon as Pwrite returns), and a control reply decoded out of the
// connection's buffer is the caller's own copy while another goroutine's
// reads reuse the connection — the last under -race.
func TestFramePayloadNotRetained(t *testing.T) {
	c := pipeGateway(t)()
	fd, err := c.Open("/mnt/plfs/ab", posix.O_CREAT|posix.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pattern(block), bytes.Repeat([]byte{0xb1, 0x0b}, block/2)
	buf := append([]byte(nil), a...)
	if n, err := c.Pwrite(fd, buf, 0); err != nil || n != block {
		t.Fatalf("Pwrite A = %d, %v", n, err)
	}
	copy(buf, b)
	if n, err := c.Pwrite(fd, buf, 3*block); err != nil || n != block {
		t.Fatalf("Pwrite B = %d, %v", n, err)
	}
	clear(buf)
	got := make([]byte, block)
	if n, err := c.Pread(fd, got, 0); err != nil || n != block || !bytes.Equal(got, a) {
		t.Fatalf("block A read back wrong (n=%d, err=%v): the frame that carried B overwrote it", n, err)
	}
	if n, err := c.Pread(fd, got, 3*block); err != nil || n != block || !bytes.Equal(got, b) {
		t.Fatalf("block B read back wrong (n=%d, err=%v)", n, err)
	}

	// One Conn, two goroutines: data replies land in the reader's slice,
	// control replies come out of the connection's buffer.
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		mine := make([]byte, block)
		for i := 0; i < rounds; i++ {
			if n, err := c.Pread(fd, mine, 0); err != nil || n != block || !bytes.Equal(mine, a) {
				t.Errorf("concurrent Pread %d: n=%d err=%v, or wrong bytes", i, n, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			text, err := c.Stats()
			if err != nil || !strings.Contains(text, "tenant:gold") {
				t.Errorf("concurrent Stats %d: err=%v, tenant layer present=%v", i, err, strings.Contains(text, "tenant:gold"))
				return
			}
			if st, err := c.Stat("/mnt/plfs/ab"); err != nil || st.Size != 4*block {
				t.Errorf("concurrent Stat %d: %+v, %v", i, st, err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestLongPathRefusedBeforeSend: a path the wire's u16 cannot carry
// whole is EINVAL from every op that takes one, and nothing is sent —
// the gateway used to get the first 0xffff bytes and act on that path.
func TestLongPathRefusedBeforeSend(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	seen := make(chan byte, 8) // ops that reached the far end after the hello; sized past what the test can send
	go func() {
		for hello := true; ; hello = false {
			f, err := service.ReadFrame(far)
			if err != nil {
				return
			}
			if !hello {
				seen <- f.Op
				f.Payload = make([]byte, 12) // a stat reply: size u64, mode u32
			}
			service.WriteFrame(far, f.Op, append([]byte{0, 0, 0, 0}, f.Payload...))
		}
	}()
	c, err := client.New(near, "gold")
	if err != nil {
		t.Fatal(err)
	}
	long := "/mnt/plfs/" + strings.Repeat("p", 0xffff)
	_, errOpen := c.Open(long, posix.O_RDONLY, 0)
	_, errStat := c.Stat(long)
	_, errDoctor := c.Doctor(long, false)
	for op, err := range map[string]error{
		"open": errOpen, "stat": errStat, "truncate": c.Truncate(long, 0), "unlink": c.Unlink(long), "doctor": errDoctor,
	} {
		if err != posix.EINVAL {
			t.Errorf("%s of a %d-byte path: %v, want EINVAL", op, len(long), err)
		}
	}
	// A call returns only after its reply, so a request that went out
	// has been seen by now.
	select {
	case op := <-seen:
		t.Fatalf("a refused request reached the wire: op %d", op)
	default:
	}
	// The longest path the wire does carry still goes out.
	if _, err := c.Stat(strings.Repeat("p", 0xffff-1)); err != nil {
		t.Fatalf("stat of a path that fits: %v", err)
	}
	if op := <-seen; op != service.OpStat {
		t.Fatalf("far end saw op %d, want the stat", op)
	}
}

// TestOverlongReadReplyFailsTheCall: a read reply that carries more than
// was asked for is a protocol error. The data lands in the caller's
// slice straight off the connection, so it must fail the call — neither
// cut to fit nor written past the slice — and the next reply must still
// be read from its own header.
func TestOverlongReadReplyFailsTheCall(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	reply := func(op byte, status int32, body []byte) {
		p := binary.LittleEndian.AppendUint32(nil, uint32(status))
		service.WriteFrame(far, op, append(p, body...))
	}
	go func() {
		f, err := service.ReadFrame(far)
		if err != nil {
			return
		}
		reply(service.OpHello, 0, f.Payload)
		for i := 0; ; i++ {
			f, err := service.ReadFrame(far)
			if err != nil {
				return
			}
			if i == 0 {
				reply(f.Op, 0, bytes.Repeat([]byte{0xee}, 24)) // 24 bytes for a 16-byte read
			} else {
				reply(f.Op, 0, []byte("sixteen bytes ok"))
			}
		}
	}()
	c, err := client.New(near, "gold")
	if err != nil {
		t.Fatal(err)
	}
	backing := make([]byte, 32)
	p := backing[:16:16]
	if n, err := c.Pread(3, p, 0); err == nil || n != 0 {
		t.Fatalf("overlong reply: Pread = %d, %v, want an error", n, err)
	}
	if !bytes.Equal(backing, make([]byte, 32)) {
		t.Fatalf("overlong reply reached the caller's memory: %x", backing)
	}
	if n, err := c.Pread(3, p, 0); err != nil || string(p[:n]) != "sixteen bytes ok" {
		t.Fatalf("the reply after the bad one: %q, %v", p[:n], err)
	}
}
