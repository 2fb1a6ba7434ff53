// Package service implements plfsd: a long-running gateway daemon that
// mounts PLFS containers and serves many concurrent clients over a
// length-prefixed wire protocol, with a software-defined per-tenant QoS
// stage enforced in the data path.
//
// The layering follows the PAIO stage design: a session is the LDPLFS
// shim (internal/core) interposed under one posix.Hook, its tenant's
// QoS stage, which enforces token-bucket rate limits and priority
// admission before any byte reaches the PLFS engines and records every
// op on the tenant's layer of the iostats plane ("tenant:<name>"). The
// internal/tune controller actuates background tenants' rates.
//
// One rule governs every buffer on the wire: a frame's payload belongs
// to its connection and is valid until that connection's next frame;
// nothing below the session may keep it. Both ends are one frame in
// flight (the server loop is serial, client.Conn holds its lock for a
// round trip), so each connection reads into one buffer of its own and
// the server renders every reply into one scratch — a data op crosses
// the package without a user-space copy or an allocation. Whatever must
// outlive the next frame is copied out by whoever wants it.
package service

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ldplfs/internal/posix"
)

// Wire ops. A request frame is `u32 payloadLen | u8 op | payload`; the
// response to op X is a frame with the same op whose payload starts
// with an i32 errno status (0 = OK) followed by op-specific fields.
const (
	OpHello  = byte(1)  // tenant string, pid u32 -> session
	OpOpen   = byte(2)  // path string, flags u32, mode u32 -> fd u32
	OpRead   = byte(3)  // fd u32, off u64, n u32 -> bytes
	OpWrite  = byte(4)  // fd u32, off u64, bytes -> n u32
	OpSync   = byte(5)  // fd u32
	OpClose  = byte(6)  // fd u32
	OpStat   = byte(7)  // path string -> size u64, mode u32
	OpFstat  = byte(8)  // fd u32 -> size u64, mode u32
	OpTrunc  = byte(9)  // path string, size u64
	OpUnlink = byte(10) // path string
	OpStats  = byte(11) // -> text (telemetry plane snapshot)
	OpDoctor = byte(12) // path string, fix u8 -> report text
	OpSeek   = byte(13) // fd u32, off u64, whence u32 -> pos u64
	OpFtrunc = byte(14) // fd u32, size u64
)

// AtCursor is the offset OpRead and OpWrite carry to mean "at the fd's
// file pointer": the session's shim moves it, as read(2) and write(2)
// do, O_APPEND included.
const AtCursor = ^uint64(0)

// MaxFramePayload bounds a frame's payload; larger requests must split.
// It caps both what the daemon will buffer per connection and what a
// hostile client can make it allocate.
const MaxFramePayload = 8 << 20

// frameHeaderSize is the fixed prefix: u32 payload length + u8 op.
const frameHeaderSize = 5

// Frame is one decoded protocol frame.
type Frame struct {
	Op      byte
	Payload []byte
}

var (
	errFrameShort  = errors.New("service: short frame")
	errFrameString = errors.New("service: string field fills its length prefix")
	errFrameSize   = fmt.Errorf("service: frame exceeds %d bytes", MaxFramePayload)
)

// ParseFrame decodes one frame from the front of buf, returning the
// frame and the bytes consumed. io.ErrUnexpectedEOF means buf holds a
// truncated frame (read more); other errors mean the stream is corrupt.
func ParseFrame(buf []byte) (Frame, int, error) {
	if len(buf) < frameHeaderSize {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > MaxFramePayload {
		return Frame{}, 0, errFrameSize
	}
	total := frameHeaderSize + int(n)
	if len(buf) < total {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	return Frame{Op: buf[4], Payload: buf[frameHeaderSize:total]}, total, nil
}

// AppendFrame appends the encoded frame to dst — the inverse of
// ParseFrame.
func AppendFrame(dst []byte, op byte, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	hdr[4] = op
	return append(append(dst, hdr[:]...), payload...)
}

// maxRetained is the most buffer a connection keeps between frames.
// The traffic is 64 KiB ops; a frame above this gets memory of its own
// that goes with it, so a client that once sent MaxFramePayload does not
// park 8 MiB on its idle connection for as long as it stays open.
const maxRetained = 1 << 20

// frameBuf is memory one connection reuses frame after frame. It is
// never shared between connections, so no tenant's bytes can surface in
// another's frame.
type frameBuf struct{ b []byte }

// sized returns n bytes for one frame, valid until the next call: the
// connection's own buffer, grown on demand, or for a frame above
// maxRetained a one-off. This is the only allocation on the frame path
// (the bufpool lint holds the functions around it to that).
func (f *frameBuf) sized(n int) []byte {
	if n <= cap(f.b) {
		return f.b[:n]
	}
	if n > maxRetained {
		return make([]byte, n)
	}
	f.b = make([]byte, n, min(max(n, 2*cap(f.b)), maxRetained))
	return f.b
}

// FrameConn is one end of a connection: frames are written to it as
// header, fixed fields and data with one flush and no concatenation,
// and read off it into a buffer the connection owns. It is one frame in
// flight, like both of its users, and not safe for concurrent use.
//
// The lifetime rule of the package lives here: a payload returned by
// ReadRest or ReadFrame is valid until the next read on this FrameConn.
type FrameConn struct {
	r    io.Reader
	bw   *bufio.Writer
	in   frameBuf
	left int // payload bytes of the current frame not yet taken
	// Header scratch lives here, not on the stack: a slice handed to an
	// io.Reader or io.Writer escapes, and would be an allocation a frame.
	rhdr, whdr [frameHeaderSize]byte
}

// NewFrameConn frames rw, buffering both directions.
func NewFrameConn(rw io.ReadWriter) *FrameConn {
	return &FrameConn{r: bufio.NewReader(rw), bw: bufio.NewWriter(rw)}
}

// ReadHeader starts the next frame and reports its op and payload
// length. Whatever the caller left unread of the previous payload is
// skipped first, so the stream stays framed whatever a caller took. A
// length over the ceiling is refused before any memory is sized by it.
func (c *FrameConn) ReadHeader() (op byte, n int, err error) {
	if c.left > 0 {
		if _, err := io.CopyN(io.Discard, c.r, int64(c.left)); err != nil {
			return 0, 0, err
		}
		c.left = 0
	}
	if _, err := io.ReadFull(c.r, c.rhdr[:]); err != nil {
		return 0, 0, err
	}
	size := binary.LittleEndian.Uint32(c.rhdr[:])
	if size > MaxFramePayload {
		return 0, 0, errFrameSize
	}
	c.left = int(size)
	return c.rhdr[4], c.left, nil
}

// ReadInto takes the next len(p) bytes of the current payload into p —
// memory of the caller's choosing, which is how a read reply lands in
// the application's buffer. Asking for more than the frame has left is
// errFrameShort and takes nothing.
func (c *FrameConn) ReadInto(p []byte) error {
	if len(p) > c.left {
		return errFrameShort
	}
	if _, err := io.ReadFull(c.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	c.left -= len(p)
	return nil
}

// ReadRest takes what is left of the current payload into the
// connection's buffer.
func (c *FrameConn) ReadRest() ([]byte, error) {
	p := c.in.sized(c.left)
	return p, c.ReadInto(p)
}

// ReadFrame reads one whole frame; its payload is the connection's
// buffer.
func (c *FrameConn) ReadFrame() (Frame, error) {
	op, _, err := c.ReadHeader()
	if err != nil {
		return Frame{}, err
	}
	payload, err := c.ReadRest()
	if err != nil {
		return Frame{}, err
	}
	return Frame{Op: op, Payload: payload}, nil
}

// WriteFrame sends one frame whose payload is fields followed by data,
// and flushes. Neither slice is copied into a frame first: small ones
// ride the write buffer, a large data goes to the connection as it is.
func (c *FrameConn) WriteFrame(op byte, fields, data []byte) error {
	n := len(fields) + len(data)
	if n > MaxFramePayload {
		return errFrameSize
	}
	binary.LittleEndian.PutUint32(c.whdr[:], uint32(n))
	c.whdr[4] = op
	c.bw.Write(c.whdr[:])
	c.bw.Write(fields)
	c.bw.Write(data)
	return c.bw.Flush() // a bufio.Writer's first error sticks: Flush reports it
}

// ReadFrame reads one frame from r into memory of its own — the one-shot
// form, for tools and tests that hold no FrameConn. It reads exactly the
// frame's bytes, so r need not be buffered.
func ReadFrame(r io.Reader) (Frame, error) {
	return (&FrameConn{r: r}).ReadFrame()
}

// WriteFrame writes one frame to w, one-shot like ReadFrame.
func WriteFrame(w io.Writer, op byte, payload []byte) error {
	return (&FrameConn{bw: bufio.NewWriter(w)}).WriteFrame(op, payload, nil)
}

// --- payload encoding -----------------------------------------------------
//
// Payload fields are little-endian fixed-width integers; strings are
// u16 length + bytes, at most maxString of them. Encoder and decoder
// are both sticky-error, so callers chain fields and check once.

// maxString is the longest string a field carries. The u16's last value
// is not a length: encoders used to cut a longer string to fit it
// silently, so a path of 0xffff bytes on the wire may be the front of
// some other path, and opening, truncating or unlinking it would hit the
// wrong file. The encoder refuses longer strings; the decoder refuses
// the full u16.
const maxString = 0xffff - 1

type WireWriter struct {
	buf []byte
	err error
}

// Payload returns the encoded bytes accumulated so far.
func (w *WireWriter) Payload() []byte { return w.buf }

// Err reports the sticky encode error: EINVAL once a string field was
// too long to carry. A payload with an error must not be sent.
func (w *WireWriter) Err() error { return w.err }

// Reset empties the writer for the next payload, keeping its memory.
func (w *WireWriter) Reset() { w.buf, w.err = w.buf[:0], nil }

func (w *WireWriter) U8(v byte)      { w.buf = append(w.buf, v) }
func (w *WireWriter) U32(v uint32)   { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *WireWriter) U64(v uint64)   { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *WireWriter) I32(v int32)    { w.U32(uint32(v)) }
func (w *WireWriter) Bytes(p []byte) { w.buf = append(w.buf, p...) }
func (w *WireWriter) String(s string) {
	if len(s) > maxString {
		w.err = posix.EINVAL
		return
	}
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(s)))
	w.buf = append(w.buf, s...)
}

type WireReader struct {
	buf []byte
	err error
}

// NewWireReader decodes the given payload.
func NewWireReader(payload []byte) WireReader { return WireReader{buf: payload} }

// Err reports the sticky decode error (nil = every read so far was in
// bounds).
func (r *WireReader) Err() error { return r.err }

func (r *WireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = errFrameShort
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *WireReader) U8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *WireReader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *WireReader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *WireReader) I32() int32 { return int32(r.U32()) }

func (r *WireReader) String() string {
	b := r.take(2)
	if b == nil {
		return ""
	}
	n := int(binary.LittleEndian.Uint16(b))
	if n > maxString {
		r.err = errFrameString
		return ""
	}
	return string(r.take(n))
}

// Rest returns whatever trails the fixed fields (bulk data).
func (r *WireReader) Rest() []byte {
	out := r.buf
	r.buf = nil
	return out
}

// ErrnoOf maps an error onto the wire's i32 status: posix errnos keep
// their value, nil is 0, anything else degrades to EIO.
func ErrnoOf(err error) int32 {
	if err == nil {
		return 0
	}
	var e posix.Errno
	if errors.As(err, &e) {
		return int32(e)
	}
	return int32(posix.EIO)
}

// ErrnoErr is the inverse: reconstruct a posix.Errno from the status.
func ErrnoErr(status int32) error {
	if status == 0 {
		return nil
	}
	return posix.Errno(status)
}
