// Package client is the Go client for a plfsd gateway: it speaks the
// length-prefixed frame protocol of internal/service over any
// net.Conn, presenting the same open/pread/pwrite/sync/close surface
// as a local file system so ldrun-style workloads and the ufs ADIO
// driver target a remote daemon unchanged (harness wires it up behind
// -remote). The client keeps no per-fd state: the session's shim owns
// each descriptor's file pointer. The wire's rules — the frame ceiling,
// what has no frame — are this package's to know; see Conn.FS.
package client

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"ldplfs/internal/posix"
	"ldplfs/internal/service"
)

// Conn is one authenticated client connection. Methods are safe for
// concurrent use; requests on one connection serialize (the protocol
// is one frame in flight), so parallelism across ranks comes from one
// Conn per rank — exactly one gateway session each.
//
// mu is held for a whole round trip, and that is what makes the
// connection's buffers safe to reuse: the request under construction
// (w) and the reply payload (fc's buffer) both live until the next
// frame only, so every method decodes or copies out what it returns
// before it lets go of mu. Pread and Pwrite keep nothing of the wire at
// all: the data frame is written from, and read into, the caller's
// slice.
type Conn struct {
	mu   sync.Mutex
	conn net.Conn
	fc   *service.FrameConn
	w    service.WireWriter // the request's fixed fields
	u32  [4]byte            // scratch a reply's status, then a write's count, is read into
}

// Dial connects to a gateway at addr and performs the Hello handshake
// for the named tenant.
func Dial(addr, tenant string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := New(nc, tenant)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// New performs the Hello handshake over an existing connection (tests
// use net.Pipe).
func New(nc net.Conn, tenant string) (*Conn, error) {
	c := &Conn{conn: nc, fc: service.NewFrameConn(nc)}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.request().String(tenant)
	r, err := c.control(service.OpHello)
	if err != nil {
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	if name := r.String(); name != tenant {
		return nil, fmt.Errorf("client: hello echoed tenant %q, want %q", name, tenant)
	}
	return c, nil
}

// Close shuts the connection down; the gateway releases the session's
// open fds.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// request empties the connection's field encoder for the next request.
// Caller holds c.mu, as for everything below that touches the wire.
func (c *Conn) request() *service.WireWriter {
	c.w.Reset()
	return &c.w
}

// roundTrip sends the request c.w holds, followed by data, and reads
// the reply as far as its status. It returns how many payload bytes
// follow the status, still on the wire for the caller to take. A field
// the encoder refused (a path too long for the wire) fails the call
// with EINVAL before anything is sent.
func (c *Conn) roundTrip(op byte, data []byte) (rest int, err error) {
	if err := c.w.Err(); err != nil {
		return 0, err
	}
	if err := c.fc.WriteFrame(op, c.w.Payload(), data); err != nil {
		return 0, err
	}
	rop, n, err := c.fc.ReadHeader()
	if err != nil {
		return 0, err
	}
	if rop != op {
		return 0, fmt.Errorf("client: response op %d to request %d", rop, op)
	}
	if err := c.fc.ReadInto(c.u32[:]); err != nil {
		return 0, err
	}
	if status := int32(binary.LittleEndian.Uint32(c.u32[:])); status != 0 {
		return 0, service.ErrnoErr(status)
	}
	return n - len(c.u32), nil
}

// control is roundTrip for the ops whose reply is fields or text: the
// returned reader is positioned after the status, over the connection's
// buffer — decode it before releasing c.mu.
func (c *Conn) control(op byte) (service.WireReader, error) {
	if _, err := c.roundTrip(op, nil); err != nil {
		return service.WireReader{}, err
	}
	payload, err := c.fc.ReadRest()
	if err != nil {
		return service.WireReader{}, err
	}
	return service.NewWireReader(payload), nil
}

// Open opens a path on the gateway (POSIX flags/mode).
func (c *Conn) Open(path string, flags int, mode uint32) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.request()
	w.String(path)
	w.U32(uint32(flags))
	w.U32(mode)
	r, err := c.control(service.OpOpen)
	if err != nil {
		return -1, err
	}
	return int(r.U32()), r.Err()
}

// maxIO is the most payload one data frame carries: the frame ceiling
// less room for the fixed fields (the gateway refuses larger reads).
const maxIO = service.MaxFramePayload - 64

// Pread reads up to len(p) bytes at off into p, one frame per maxIO
// bytes. A short frame is EOF and ends the read like a local pread. The
// reply's data is read off the connection straight into p; a reply that
// carries more than was asked for is a protocol error and fails the
// call — it is neither cut to fit nor let past the end of p.
func (c *Conn) Pread(fd int, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, posix.EINVAL
	}
	return c.readAt(fd, p, uint64(off))
}

// Pwrite writes p at off, one frame per maxIO bytes, each sent from p
// itself.
func (c *Conn) Pwrite(fd int, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, posix.EINVAL
	}
	return c.writeAt(fd, p, uint64(off))
}

// next is the offset of a transfer's frame after done bytes: the
// pointer stays the pointer, which the session has moved.
func next(off uint64, done int) uint64 {
	if off == service.AtCursor {
		return off
	}
	return off + uint64(done)
}

// readAt is Pread at a wire offset: a file offset or service.AtCursor.
func (c *Conn) readAt(fd int, p []byte, off uint64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for {
		chunk := p[total:min(len(p), total+maxIO)]
		w := c.request()
		w.U32(uint32(fd))
		w.U64(next(off, total))
		w.U32(uint32(len(chunk)))
		n, err := c.roundTrip(service.OpRead, nil)
		if err != nil {
			return total, err
		}
		if n > len(chunk) {
			return total, fmt.Errorf("client: read reply carries %d bytes, asked for %d", n, len(chunk))
		}
		if err := c.fc.ReadInto(chunk[:n]); err != nil {
			return total, err
		}
		total += n
		if n < len(chunk) || total == len(p) {
			return total, nil
		}
	}
}

// writeAt is Pwrite at a wire offset: a file offset or service.AtCursor.
func (c *Conn) writeAt(fd int, p []byte, off uint64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for {
		chunk := p[total:min(len(p), total+maxIO)]
		w := c.request()
		w.U32(uint32(fd))
		w.U64(next(off, total))
		if _, err := c.roundTrip(service.OpWrite, chunk); err != nil {
			return total, err
		}
		if err := c.fc.ReadInto(c.u32[:]); err != nil {
			return total, err
		}
		n := int(binary.LittleEndian.Uint32(c.u32[:]))
		total += n
		if n < len(chunk) || total == len(p) {
			return total, nil
		}
	}
}

// Lseek moves a remote fd's file pointer and returns its new offset.
func (c *Conn) Lseek(fd int, offset int64, whence int) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.request()
	w.U32(uint32(fd))
	w.U64(uint64(offset))
	w.U32(uint32(whence))
	r, err := c.control(service.OpSeek)
	if err != nil {
		return 0, err
	}
	pos := r.U64()
	return int64(pos), r.Err()
}

// Ftruncate sets the length of the file a remote fd is open on.
func (c *Conn) Ftruncate(fd int, size int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.request()
	w.U32(uint32(fd))
	w.U64(uint64(size))
	_, err := c.roundTrip(service.OpFtrunc, nil)
	return err
}

// Sync flushes the fd's droppings on the gateway.
func (c *Conn) Sync(fd int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.request().U32(uint32(fd))
	_, err := c.roundTrip(service.OpSync, nil)
	return err
}

// CloseFd closes a remote fd.
func (c *Conn) CloseFd(fd int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.request().U32(uint32(fd))
	_, err := c.roundTrip(service.OpClose, nil)
	return err
}

// Stat stats a remote path.
func (c *Conn) Stat(path string) (posix.Stat, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.request().String(path)
	return c.stat(service.OpStat)
}

// Fstat stats a remote fd.
func (c *Conn) Fstat(fd int) (posix.Stat, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.request().U32(uint32(fd))
	return c.stat(service.OpFstat)
}

// stat sends the stat request c.w holds and decodes the reply.
func (c *Conn) stat(op byte) (posix.Stat, error) {
	r, err := c.control(op)
	if err != nil {
		return posix.Stat{}, err
	}
	size := r.U64()
	mode := r.U32()
	if err := r.Err(); err != nil {
		return posix.Stat{}, err
	}
	return posix.Stat{Size: int64(size), Mode: mode}, nil
}

// Truncate truncates a remote path.
func (c *Conn) Truncate(path string, size int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.request()
	w.String(path)
	w.U64(uint64(size))
	_, err := c.roundTrip(service.OpTrunc, nil)
	return err
}

// Unlink removes a remote path.
func (c *Conn) Unlink(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.request().String(path)
	_, err := c.roundTrip(service.OpUnlink, nil)
	return err
}

// Stats fetches the gateway's telemetry-plane snapshot, rendered.
func (c *Conn) Stats() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.request()
	return c.text(service.OpStats)
}

// Doctor runs the container health report for a mount path on the
// gateway, optionally fixing what it finds.
func (c *Conn) Doctor(path string, fix bool) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.request()
	w.String(path)
	if fix {
		w.U8(1)
	} else {
		w.U8(0)
	}
	return c.text(service.OpDoctor)
}

// text sends the request c.w holds and returns the reply's text — a
// copy: the payload it is read from is the connection's.
func (c *Conn) text(op byte) (string, error) {
	r, err := c.control(op)
	if err != nil {
		return "", err
	}
	return string(r.Rest()), nil
}

// FS presents the connection as a posix.FS, so the bundled UNIX tools,
// the ufs ADIO driver (remote mode is mpiio.NewUFS(conn.FS())) and
// anything else written against posix.FS run against a remote gateway.
// Every descriptor call is one of the wire's frames: read and write are
// data frames at service.AtCursor, and the session's shim moves the
// file pointer, O_APPEND included, as it does for a local process. What
// has no frame is made up or refused:
//
//   - access is a stat (existence only, no permission check);
//   - mkdir, rmdir, readdir and rename: ENOSYS.
func (c *Conn) FS() posix.FS { return connFS{c} }

// connFS is the posix.FS view of a Conn: the typed methods whose
// signatures are the FS's own come through the embedding.
type connFS struct{ *Conn }

func (f connFS) Close(fd int) error                     { return f.CloseFd(fd) }
func (f connFS) Read(fd int, p []byte) (int, error)     { return f.readAt(fd, p, service.AtCursor) }
func (f connFS) Write(fd int, p []byte) (int, error)    { return f.writeAt(fd, p, service.AtCursor) }
func (f connFS) Fsync(fd int) error                     { return f.Sync(fd) }
func (connFS) Mkdir(string, uint32) error               { return posix.ENOSYS }
func (connFS) Rmdir(string) error                       { return posix.ENOSYS }
func (connFS) Readdir(string) ([]posix.DirEntry, error) { return nil, posix.ENOSYS }
func (connFS) Rename(string, string) error              { return posix.ENOSYS }

func (f connFS) Access(path string, _ int) error {
	_, err := f.Stat(path)
	return err
}
