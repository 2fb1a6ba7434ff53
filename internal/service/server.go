package service

import (
	"encoding/binary"
	"net"
	"sync"

	"ldplfs/internal/posix"
)

// Server runs a Gateway over a net.Listener, one goroutine per
// connection. The per-connection loop is serial (one frame in flight
// per client), so cross-client concurrency — what the QoS stage
// arbitrates — equals connection count.
type Server struct {
	g *Gateway

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer wraps a gateway for network serving.
func NewServer(g *Gateway) *Server {
	return &Server{g: g, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections until the listener closes. It always
// returns a non-nil error; after Close it returns net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.track(conn, true)
		go func() {
			defer s.track(conn, false)
			defer conn.Close()
			s.handleConn(conn)
		}()
	}
}

func (s *Server) track(c net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		if s.closed {
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
}

// Close stops accepting and tears down live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.conns = map[net.Conn]struct{}{}
	s.mu.Unlock()
	if ln != nil {
		return ln.Close()
	}
	return nil
}

// handleConn speaks the frame protocol on one connection: a Hello
// first, then a request/response loop until EOF or a protocol error.
// The connection's two buffers live here: the one its FrameConn reads
// requests into and the scratch every reply is rendered in. Both follow
// the package's lifetime rule — a request is dead once its reply is
// rendered, a reply once it is flushed.
func (s *Server) handleConn(conn net.Conn) {
	fc := NewFrameConn(conn)
	var reply frameBuf

	// Hello: tenant string. Anything else (or an undeclared tenant) is
	// answered with the errno and the connection dropped.
	f, err := fc.ReadFrame()
	if err != nil {
		return
	}
	w := WireWriter{buf: reply.sized(replyFields)[:0]}
	if f.Op != OpHello {
		w.I32(int32(posix.EINVAL))
		fc.WriteFrame(f.Op, w.buf, nil)
		return
	}
	r := WireReader{buf: f.Payload}
	tenant := r.String()
	sess, err := s.g.NewSession(tenant)
	if err != nil {
		w.I32(int32(posix.EPERM))
		fc.WriteFrame(OpHello, w.buf, nil)
		return
	}
	defer sess.End()
	w.I32(0)
	w.String(tenant)
	if err := fc.WriteFrame(OpHello, w.buf, nil); err != nil {
		return
	}

	for {
		f, err := fc.ReadFrame()
		if err != nil {
			return // EOF or corrupt stream: session ends, fds released
		}
		if err := fc.WriteFrame(f.Op, s.handleFrame(sess, f, &reply), nil); err != nil {
			return
		}
	}
}

// replyFields is room for any reply's fixed fields, so that rendering
// them never allocates: only a read reply sizes the scratch past this
// (a text reply outgrows it into memory of its own).
const replyFields = 64

// handleFrame executes one request and renders the response payload in
// the connection's reply scratch (the result is valid until the next
// call with that scratch). A read lands its bytes there directly, behind
// the status, and the reply is cut to what the read returned: the
// scratch is reused, so whatever lies past that is an older reply's.
// Malformed payloads answer EINVAL rather than killing the connection:
// the framing layer is still intact, so the stream stays usable.
func (s *Server) handleFrame(sess *Session, f Frame, reply *frameBuf) []byte {
	r := WireReader{buf: f.Payload}
	w := WireWriter{buf: reply.sized(replyFields)[:0]}
	switch f.Op {
	case OpOpen:
		path := r.String()
		flags := r.U32()
		mode := r.U32()
		if bad(&r, &w) {
			return w.buf
		}
		fd, err := sess.Open(path, int(flags), mode)
		w.I32(ErrnoOf(err))
		if err == nil {
			w.U32(uint32(fd))
		}
	case OpRead:
		fd := r.U32()
		off := r.U64()
		n := r.U32()
		if bad(&r, &w) {
			return w.buf
		}
		if n > MaxFramePayload-64 {
			w.I32(int32(posix.EINVAL))
			return w.buf
		}
		buf := reply.sized(4 + int(n))
		got, err := sess.Pread(int(fd), buf[4:], int64(off))
		binary.LittleEndian.PutUint32(buf, uint32(ErrnoOf(err)))
		if err != nil {
			return buf[:4]
		}
		return buf[:4+got]
	case OpWrite:
		fd := r.U32()
		off := r.U64()
		data := r.Rest()
		if bad(&r, &w) {
			return w.buf
		}
		n, err := sess.Pwrite(int(fd), data, int64(off))
		w.I32(ErrnoOf(err))
		if err == nil {
			w.U32(uint32(n))
		}
	case OpSync:
		fd := r.U32()
		if bad(&r, &w) {
			return w.buf
		}
		w.I32(ErrnoOf(sess.Sync(int(fd))))
	case OpClose:
		fd := r.U32()
		if bad(&r, &w) {
			return w.buf
		}
		w.I32(ErrnoOf(sess.Close(int(fd))))
	case OpStat, OpFstat:
		var st posix.Stat
		var err error
		if f.Op == OpStat {
			path := r.String()
			if bad(&r, &w) {
				return w.buf
			}
			st, err = sess.Stat(path)
		} else {
			fd := r.U32()
			if bad(&r, &w) {
				return w.buf
			}
			st, err = sess.Fstat(int(fd))
		}
		w.I32(ErrnoOf(err))
		if err == nil {
			w.U64(uint64(st.Size))
			w.U32(st.Mode)
		}
	case OpTrunc:
		path := r.String()
		size := r.U64()
		if bad(&r, &w) {
			return w.buf
		}
		w.I32(ErrnoOf(sess.Truncate(path, int64(size))))
	case OpUnlink:
		path := r.String()
		if bad(&r, &w) {
			return w.buf
		}
		w.I32(ErrnoOf(sess.Unlink(path)))
	case OpStats:
		text := s.g.StatsText()
		w.I32(0)
		if len(text) > MaxFramePayload-64 {
			text = text[:MaxFramePayload-64]
		}
		w.Bytes([]byte(text))
	case OpDoctor:
		path := r.String()
		fix := r.U8()
		if bad(&r, &w) {
			return w.buf
		}
		report, err := sess.Doctor(path, fix != 0)
		w.I32(ErrnoOf(err))
		if err == nil {
			w.Bytes([]byte(report))
		}
	default:
		w.I32(int32(posix.EINVAL))
	}
	return w.buf
}

// bad answers EINVAL for a payload the reader failed to decode.
func bad(r *WireReader, w *WireWriter) bool {
	if r.err == nil {
		return false
	}
	w.I32(int32(posix.EINVAL))
	return true
}
