// Package client is the Go client for a plfsd gateway: it speaks the
// length-prefixed frame protocol of internal/service over any
// net.Conn, presenting the same open/pread/pwrite/sync/close surface
// as a local dispatch so ldrun-style workloads and the ufs ADIO driver
// target a remote daemon unchanged (harness wires it up behind
// -remote). The wire's rules — the frame ceiling, what has no frame —
// are this package's to know; see Conn.Dispatch.
package client

import (
	"bufio"
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
type Conn struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
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
	c := &Conn{conn: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	var w service.WireWriter
	w.String(tenant)
	r, err := c.roundTrip(service.OpHello, w.Payload())
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

// roundTrip sends one request frame and decodes the response status.
// The returned reader is positioned after the status field.
func (c *Conn) roundTrip(op byte, payload []byte) (service.WireReader, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := service.WriteFrame(c.bw, op, payload); err != nil {
		return service.WireReader{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return service.WireReader{}, err
	}
	f, err := service.ReadFrame(c.br)
	if err != nil {
		return service.WireReader{}, err
	}
	if f.Op != op {
		return service.WireReader{}, fmt.Errorf("client: response op %d to request %d", f.Op, op)
	}
	r := service.NewWireReader(f.Payload)
	if status := r.I32(); status != 0 {
		return service.WireReader{}, service.ErrnoErr(status)
	}
	if err := r.Err(); err != nil {
		return service.WireReader{}, err
	}
	return r, nil
}

// Open opens a path on the gateway (POSIX flags/mode).
func (c *Conn) Open(path string, flags int, mode uint32) (int, error) {
	var w service.WireWriter
	w.String(path)
	w.U32(uint32(flags))
	w.U32(mode)
	r, err := c.roundTrip(service.OpOpen, w.Payload())
	if err != nil {
		return -1, err
	}
	return int(r.U32()), r.Err()
}

// maxIO is the most payload one data frame carries: the frame ceiling
// less room for the fixed fields (the gateway refuses larger reads).
const maxIO = service.MaxFramePayload - 64

// Pread reads up to len(p) bytes at off into p, one frame per maxIO
// bytes. A short frame is EOF and ends the read like a local pread.
func (c *Conn) Pread(fd int, p []byte, off int64) (int, error) {
	total := 0
	for {
		chunk := p[total:min(len(p), total+maxIO)]
		var w service.WireWriter
		w.U32(uint32(fd))
		w.U64(uint64(off + int64(total)))
		w.U32(uint32(len(chunk)))
		r, err := c.roundTrip(service.OpRead, w.Payload())
		if err != nil {
			return total, err
		}
		n := copy(chunk, r.Rest())
		total += n
		if n < len(chunk) || total == len(p) {
			return total, nil
		}
	}
}

// Pwrite writes p at off, one frame per maxIO bytes.
func (c *Conn) Pwrite(fd int, p []byte, off int64) (int, error) {
	total := 0
	for {
		chunk := p[total:min(len(p), total+maxIO)]
		var w service.WireWriter
		w.U32(uint32(fd))
		w.U64(uint64(off + int64(total)))
		w.Bytes(chunk)
		r, err := c.roundTrip(service.OpWrite, w.Payload())
		if err != nil {
			return total, err
		}
		n := int(r.U32())
		if err := r.Err(); err != nil {
			return total, err
		}
		total += n
		if n < len(chunk) || total == len(p) {
			return total, nil
		}
	}
}

// Sync flushes the fd's droppings on the gateway.
func (c *Conn) Sync(fd int) error {
	var w service.WireWriter
	w.U32(uint32(fd))
	_, err := c.roundTrip(service.OpSync, w.Payload())
	return err
}

// CloseFd closes a remote fd.
func (c *Conn) CloseFd(fd int) error {
	var w service.WireWriter
	w.U32(uint32(fd))
	_, err := c.roundTrip(service.OpClose, w.Payload())
	return err
}

// Stat stats a remote path.
func (c *Conn) Stat(path string) (posix.Stat, error) {
	var w service.WireWriter
	w.String(path)
	r, err := c.roundTrip(service.OpStat, w.Payload())
	if err != nil {
		return posix.Stat{}, err
	}
	return decodeStat(&r)
}

// Fstat stats a remote fd.
func (c *Conn) Fstat(fd int) (posix.Stat, error) {
	var w service.WireWriter
	w.U32(uint32(fd))
	r, err := c.roundTrip(service.OpFstat, w.Payload())
	if err != nil {
		return posix.Stat{}, err
	}
	return decodeStat(&r)
}

func decodeStat(r *service.WireReader) (posix.Stat, error) {
	size := r.U64()
	mode := r.U32()
	if err := r.Err(); err != nil {
		return posix.Stat{}, err
	}
	return posix.Stat{Size: int64(size), Mode: mode}, nil
}

// Truncate truncates a remote path.
func (c *Conn) Truncate(path string, size int64) error {
	var w service.WireWriter
	w.String(path)
	w.U64(uint64(size))
	_, err := c.roundTrip(service.OpTrunc, w.Payload())
	return err
}

// Unlink removes a remote path.
func (c *Conn) Unlink(path string) error {
	var w service.WireWriter
	w.String(path)
	_, err := c.roundTrip(service.OpUnlink, w.Payload())
	return err
}

// Stats fetches the gateway's telemetry-plane snapshot, rendered.
func (c *Conn) Stats() (string, error) {
	r, err := c.roundTrip(service.OpStats, nil)
	if err != nil {
		return "", err
	}
	return string(r.Rest()), nil
}

// Doctor runs the container health report for a mount path on the
// gateway, optionally fixing what it finds.
func (c *Conn) Doctor(path string, fix bool) (string, error) {
	var w service.WireWriter
	w.String(path)
	if fix {
		w.U8(1)
	} else {
		w.U8(0)
	}
	r, err := c.roundTrip(service.OpDoctor, w.Payload())
	if err != nil {
		return "", err
	}
	return string(r.Rest()), nil
}
