package service

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"ldplfs/internal/posix"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	g := newTestGateway(t, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(g)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// rawConn speaks frames without the client package, to exercise the
// server's protocol edges directly.
type rawConn struct {
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{nc: nc, br: bufio.NewReader(nc)}
}

func (c *rawConn) send(t *testing.T, op byte, payload []byte) Frame {
	t.Helper()
	if err := WriteFrame(c.nc, op, payload); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(c.br)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// statusOf decodes a reply's leading errno status.
func statusOf(payload []byte) int32 {
	r := NewWireReader(payload)
	return r.I32()
}

func helloPayload(tenant string) []byte {
	var w WireWriter
	w.String(tenant)
	return w.Payload()
}

func TestServerWireSession(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)

	f := c.send(t, OpHello, helloPayload("gold"))
	r := NewWireReader(f.Payload)
	if status := r.I32(); status != 0 {
		t.Fatalf("hello status %d", status)
	}
	if echoed := r.String(); echoed != "gold" {
		t.Fatalf("hello echoed %q", echoed)
	}

	// Open, write, read, fstat, close — all over raw frames.
	var w WireWriter
	w.String("/mnt/plfs/raw")
	w.U32(uint32(posix.O_CREAT | posix.O_RDWR))
	w.U32(0o644)
	f = c.send(t, OpOpen, w.Payload())
	r = NewWireReader(f.Payload)
	if status := r.I32(); status != 0 {
		t.Fatalf("open status %d", status)
	}
	fd := r.U32()

	w = WireWriter{}
	w.U32(fd)
	w.U64(0)
	w.buf = append(w.buf, []byte("raw-bytes")...)
	f = c.send(t, OpWrite, w.Payload())
	r = NewWireReader(f.Payload)
	if status := r.I32(); status != 0 {
		t.Fatalf("write status %d", status)
	}
	if n := r.U32(); n != 9 {
		t.Fatalf("wrote %d", n)
	}

	w = WireWriter{}
	w.U32(fd)
	w.U64(0)
	w.U32(9)
	f = c.send(t, OpRead, w.Payload())
	r = NewWireReader(f.Payload)
	if status := r.I32(); status != 0 {
		t.Fatalf("read status %d", status)
	}
	if got := string(r.Rest()); got != "raw-bytes" {
		t.Fatalf("read %q", got)
	}

	w = WireWriter{}
	w.U32(fd)
	f = c.send(t, OpFstat, w.Payload())
	r = NewWireReader(f.Payload)
	if status := r.I32(); status != 0 {
		t.Fatalf("fstat status %d", status)
	}
	if size := r.U64(); size != 9 {
		t.Fatalf("fstat size %d", size)
	}

	w = WireWriter{}
	w.U32(fd)
	f = c.send(t, OpSync, w.Payload())
	if status := statusOf(f.Payload); status != 0 {
		t.Fatalf("sync status %d", status)
	}
	w = WireWriter{}
	w.U32(fd)
	f = c.send(t, OpClose, w.Payload())
	if status := statusOf(f.Payload); status != 0 {
		t.Fatalf("close status %d", status)
	}

	// Stats and doctor ride the same stream.
	f = c.send(t, OpStats, nil)
	r = NewWireReader(f.Payload)
	if status := r.I32(); status != 0 {
		t.Fatalf("stats status %d", status)
	}
	if !strings.Contains(string(r.Rest()), "tenant:gold") {
		t.Fatal("stats missing tenant layer")
	}
	w = WireWriter{}
	w.String("/mnt/plfs/raw")
	w.U8(1) // fix — covers the repair branches on a healthy container
	f = c.send(t, OpDoctor, w.Payload())
	r = NewWireReader(f.Payload)
	if status := r.I32(); status != 0 {
		t.Fatalf("doctor status %d", status)
	}
	if !strings.Contains(string(r.Rest()), "openhosts records") {
		t.Fatal("doctor report missing")
	}
}

func TestServerProtocolEdges(t *testing.T) {
	_, addr := startServer(t)

	// First frame must be a Hello.
	c := dialRaw(t, addr)
	f := c.send(t, OpOpen, nil)
	if status := statusOf(f.Payload); status != int32(posix.EINVAL) {
		t.Fatalf("non-hello first frame: status %d", status)
	}

	// Undeclared tenant is refused with EPERM.
	c = dialRaw(t, addr)
	f = c.send(t, OpHello, helloPayload("nosuch"))
	if status := statusOf(f.Payload); status != int32(posix.EPERM) {
		t.Fatalf("unknown tenant: status %d", status)
	}

	// After a good hello: unknown op and malformed payloads answer
	// EINVAL without killing the stream.
	c = dialRaw(t, addr)
	c.send(t, OpHello, helloPayload("gold"))
	f = c.send(t, 0xee, nil)
	if status := statusOf(f.Payload); status != int32(posix.EINVAL) {
		t.Fatalf("unknown op: status %d", status)
	}
	f = c.send(t, OpOpen, []byte{0xff}) // truncated string
	if status := statusOf(f.Payload); status != int32(posix.EINVAL) {
		t.Fatalf("malformed open: status %d", status)
	}
	// Read request larger than a frame can carry.
	var w WireWriter
	w.U32(1)
	w.U64(0)
	w.U32(MaxFramePayload)
	f = c.send(t, OpRead, w.Payload())
	if status := statusOf(f.Payload); status != int32(posix.EINVAL) {
		t.Fatalf("oversize read: status %d", status)
	}
	// The stream is still alive.
	f = c.send(t, OpStats, nil)
	if status := statusOf(f.Payload); status != 0 {
		t.Fatalf("stream dead after EINVALs: status %d", status)
	}
}

// TestReplyCarriesOnlyWhatWasRead pins what reusing the reply scratch
// must never do: after a full 64 KiB read has filled it, a read that
// hits EOF after 10 bytes and a read that fails answer with exactly
// 4+10 and 4 bytes — none of the earlier reply rides along.
func TestReplyCarriesOnlyWhatWasRead(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	c.send(t, OpHello, helloPayload("gold"))

	var w WireWriter
	w.String("/mnt/plfs/tail")
	w.U32(uint32(posix.O_CREAT | posix.O_RDWR))
	w.U32(0o644)
	r := NewWireReader(c.send(t, OpOpen, w.Payload()).Payload)
	if status := r.I32(); status != 0 {
		t.Fatalf("open status %d", status)
	}
	fd := r.U32()

	const block = 64 << 10
	data := make([]byte, block+10)
	for i := range data {
		data[i] = byte(i*7 + 1) // never zero for long: a leak would show
	}
	w = WireWriter{}
	w.U32(fd)
	w.U64(0)
	w.Bytes(data)
	if status := statusOf(c.send(t, OpWrite, w.Payload()).Payload); status != 0 {
		t.Fatalf("write status %d", status)
	}

	read := func(fd uint32, off uint64) []byte {
		var w WireWriter
		w.U32(fd)
		w.U64(off)
		w.U32(block)
		return c.send(t, OpRead, w.Payload()).Payload
	}
	if full := read(fd, 0); len(full) != 4+block || statusOf(full) != 0 || !bytes.Equal(full[4:], data[:block]) {
		t.Fatalf("full read: %d bytes, status %d", len(full), statusOf(full))
	}
	if tail := read(fd, block); len(tail) != 4+10 || statusOf(tail) != 0 || !bytes.Equal(tail[4:], data[block:]) {
		t.Fatalf("read ending at EOF after 10 bytes: reply is %d bytes, status %d", len(tail), statusOf(tail))
	}
	if failed := read(fd+1000, 0); len(failed) != 4 || statusOf(failed) != int32(posix.EBADF) {
		t.Fatalf("read on a bad fd: reply is %d bytes, status %d", len(failed), statusOf(failed))
	}
}

// TestServerRefusesStringFillingItsPrefix: a path of 0xffff bytes on the
// wire is what a truncating client would have sent for any longer path,
// so every op that takes one answers EINVAL rather than act on it.
func TestServerRefusesStringFillingItsPrefix(t *testing.T) {
	g := newTestGateway(t, nil)
	srv := NewServer(g)
	sess, err := g.NewSession("gold")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.End()
	cut := append([]byte{0xff, 0xff}, bytes.Repeat([]byte("p"), 0xffff)...)
	cut = append(cut, make([]byte, 16)...) // room for any op's trailing fields
	for _, op := range []byte{OpOpen, OpStat, OpTrunc, OpUnlink, OpDoctor} {
		reply := srv.handleFrame(sess, Frame{Op: op, Payload: cut}, &frameBuf{})
		if len(reply) != 4 || statusOf(reply) != int32(posix.EINVAL) {
			t.Fatalf("op %d: %d-byte reply, status %d, want EINVAL", op, len(reply), statusOf(reply))
		}
	}
}

// TestHandleFrameDecodeErrors drives every op's malformed-payload
// branch directly.
func TestHandleFrameDecodeErrors(t *testing.T) {
	g := newTestGateway(t, nil)
	srv := NewServer(g)
	sess, err := g.NewSession("gold")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.End()
	for _, op := range []byte{OpOpen, OpRead, OpWrite, OpSync, OpClose, OpStat, OpFstat, OpTrunc, OpUnlink, OpDoctor} {
		reply := srv.handleFrame(sess, Frame{Op: op, Payload: []byte{0xff}}, &frameBuf{})
		if status := statusOf(reply); status != int32(posix.EINVAL) {
			t.Fatalf("op %d malformed payload: status %d", op, status)
		}
	}
}

func TestServerCloseTearsDownConns(t *testing.T) {
	srv, addr := startServer(t)
	c := dialRaw(t, addr)
	c.send(t, OpHello, helloPayload("gold"))
	if err := srv.Close(); err == nil {
		t.Log("listener already closed") // Close of a live listener returns nil error upstream
	}
	// The torn-down connection now fails.
	c.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	WriteFrame(c.nc, OpStats, nil)
	if _, err := ReadFrame(c.br); err == nil {
		t.Fatal("connection survived server Close")
	}
}

// TestQoSWallClockSleep covers the real-clock sleep path: an op-rate
// limited tenant pays its bucket debt in wall time.
func TestQoSWallClockSleep(t *testing.T) {
	q := newQoS([]TenantConfig{{Name: "slow", OpsPerSec: 200, Burst: 1}}, nil, 2, nil)
	tn := q.tenant("slow")
	start := time.Now()
	for i := 0; i < 3; i++ {
		leave := q.enter(tn, 0, 0)
		leave()
	}
	// Burst 1 at 200 ops/s: ops 2 and 3 owe ~5ms each.
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("no bucket delay applied: %v", elapsed)
	}
}
