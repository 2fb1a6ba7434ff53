// Package service implements plfsd: a long-running gateway daemon that
// mounts PLFS containers and serves many concurrent clients over a
// length-prefixed wire protocol, with a software-defined per-tenant QoS
// stage enforced in the data path.
//
// The layering follows the PAIO stage design: the gateway reuses the
// LDPLFS fd-table/dispatch machinery (internal/core) for its sessions,
// scopes per-tenant telemetry through the iostats plane (layer
// "tenant:<name>"), enforces token-bucket rate limits and priority
// admission before any byte reaches the PLFS engines, and actuates
// background tenants' rates with the internal/tune controller.
package service

import (
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
)

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
	errFrameShort = errors.New("service: short frame")
	errFrameSize  = fmt.Errorf("service: frame exceeds %d bytes", MaxFramePayload)
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

// ReadFrame reads one frame from r.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFramePayload {
		return Frame{}, errFrameSize
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return Frame{Op: hdr[4], Payload: payload}, nil
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, op byte, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return errFrameSize
	}
	_, err := w.Write(AppendFrame(nil, op, payload))
	return err
}

// --- payload encoding -----------------------------------------------------
//
// Payload fields are little-endian fixed-width integers; strings are
// u16 length + bytes. The decoder is sticky-error so handlers can chain
// reads and check once.

type WireWriter struct{ buf []byte }

// Payload returns the encoded bytes accumulated so far.
func (w *WireWriter) Payload() []byte { return w.buf }

func (w *WireWriter) U8(v byte)      { w.buf = append(w.buf, v) }
func (w *WireWriter) U32(v uint32)   { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *WireWriter) U64(v uint64)   { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *WireWriter) I32(v int32)    { w.U32(uint32(v)) }
func (w *WireWriter) Bytes(p []byte) { w.buf = append(w.buf, p...) }
func (w *WireWriter) String(s string) {
	if len(s) > 0xffff {
		s = s[:0xffff]
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
	return string(r.take(int(binary.LittleEndian.Uint16(b))))
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
