package service

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"ldplfs/internal/posix"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 1000)}
	for _, p := range payloads {
		buf := AppendFrame(nil, OpWrite, p)
		f, n, err := ParseFrame(buf)
		if err != nil {
			t.Fatalf("ParseFrame: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d", n, len(buf))
		}
		if f.Op != OpWrite || !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame mismatch: op %d payload %d bytes", f.Op, len(f.Payload))
		}
	}
}

func TestFrameStreamRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	if err := WriteFrame(&stream, OpOpen, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&stream, OpClose, nil); err != nil {
		t.Fatal(err)
	}
	f1, err := ReadFrame(&stream)
	if err != nil || f1.Op != OpOpen || string(f1.Payload) != "hello" {
		t.Fatalf("first frame: %+v, %v", f1, err)
	}
	f2, err := ReadFrame(&stream)
	if err != nil || f2.Op != OpClose || len(f2.Payload) != 0 {
		t.Fatalf("second frame: %+v, %v", f2, err)
	}
}

func TestParseFrameTruncated(t *testing.T) {
	full := AppendFrame(nil, OpRead, []byte("payload"))
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := ParseFrame(full[:cut]); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: err %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestParseFrameOversize(t *testing.T) {
	var hdr [frameHeaderSize]byte
	hdr[0] = 0xff
	hdr[1] = 0xff
	hdr[2] = 0xff
	hdr[3] = 0xff
	if _, _, err := ParseFrame(hdr[:]); err != errFrameSize {
		t.Fatalf("err %v, want errFrameSize", err)
	}
}

func TestPayloadCodecRoundTrip(t *testing.T) {
	var w WireWriter
	w.U8(7)
	w.U32(0xdeadbeef)
	w.U64(1 << 40)
	w.I32(int32(-posix.EIO))
	w.String("tenant-a")
	w.Bytes([]byte{1, 2, 3})

	r := NewWireReader(w.Payload())
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<40 {
		t.Fatalf("U64 = %d", v)
	}
	if v := r.I32(); v != int32(-posix.EIO) {
		t.Fatalf("I32 = %d", v)
	}
	if v := r.String(); v != "tenant-a" {
		t.Fatalf("String = %q", v)
	}
	if v := r.Rest(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("Rest = %v", v)
	}
	if r.Err() != nil {
		t.Fatalf("codec err: %v", r.Err())
	}
	// Reading past the end sets the sticky error and zero-values out.
	if v := r.U32(); v != 0 || r.Err() == nil {
		t.Fatal("overread not detected")
	}
}

func TestErrnoMapping(t *testing.T) {
	if ErrnoOf(nil) != 0 || ErrnoErr(0) != nil {
		t.Fatal("zero status must be nil error")
	}
	if ErrnoOf(posix.ENOENT) != int32(posix.ENOENT) {
		t.Fatal("posix errno must keep its value")
	}
	if ErrnoOf(io.ErrUnexpectedEOF) != int32(posix.EIO) {
		t.Fatal("foreign errors must degrade to EIO")
	}
	if ErrnoErr(int32(posix.EBADF)) != posix.EBADF {
		t.Fatal("status must reconstruct the errno")
	}
}

// TestStringFieldBound pins both ends of the fix for the silent
// truncation: the encoder refuses a string it cannot carry whole (it used
// to cut it to 0xffff bytes, so the peer acted on some other path), and
// the decoder refuses a string that fills the u16 — what such an encoder
// would have sent.
func TestStringFieldBound(t *testing.T) {
	var w WireWriter
	w.String(strings.Repeat("p", maxString))
	if w.Err() != nil {
		t.Fatalf("string of maxString bytes refused: %v", w.Err())
	}
	r := NewWireReader(w.Payload())
	if got := r.String(); len(got) != maxString || r.Err() != nil {
		t.Fatalf("decoded %d bytes, err %v", len(got), r.Err())
	}

	w.Reset()
	w.U32(7)
	w.String(strings.Repeat("p", maxString+1))
	w.U32(9)
	if w.Err() != posix.EINVAL {
		t.Fatalf("overlong string: err %v, want EINVAL", w.Err())
	}
	w.Reset()
	if w.Err() != nil || len(w.Payload()) != 0 {
		t.Fatal("Reset kept the error or the bytes")
	}

	// The full u16, as a truncating encoder wrote it.
	cut := append([]byte{0xff, 0xff}, bytes.Repeat([]byte("p"), 0xffff)...)
	r = NewWireReader(cut)
	if got := r.String(); got != "" || r.Err() == nil {
		t.Fatalf("string filling its prefix decoded to %d bytes, err %v", len(got), r.Err())
	}
}

// TestFrameBufRetention: a connection's buffer grows with its frames up
// to maxRetained and no further — a frame above that gets memory that
// goes with it — and a frame that fits is served from what is there.
func TestFrameBufRetention(t *testing.T) {
	var f frameBuf
	small := f.sized(64 << 10)
	small[0] = 0x5a
	if again := f.sized(1 << 10); &again[0] != &small[0] {
		t.Fatal("a frame that fits did not reuse the buffer")
	}
	big := f.sized(MaxFramePayload)
	if len(big) != MaxFramePayload {
		t.Fatalf("sized(%d) returned %d bytes", MaxFramePayload, len(big))
	}
	if cap(f.b) > maxRetained {
		t.Fatalf("connection retains %d bytes after a %d-byte frame, cap is %d", cap(f.b), MaxFramePayload, maxRetained)
	}
	if after := f.sized(64 << 10); &after[0] != &small[0] {
		t.Fatal("the connection's own buffer was dropped with the oversize frame")
	}
	if full := f.sized(maxRetained); cap(f.b) != maxRetained || len(full) != maxRetained {
		t.Fatalf("sized(maxRetained): len %d, retained %d", len(full), cap(f.b))
	}
}

// FuzzFrameParse drives ParseFrame with arbitrary bytes: it must never
// panic, never over-consume, and anything it accepts must re-encode to
// the same frame (parse/append are inverses on the accepted set). The
// streaming reader the connections use must agree with it on every
// input: the same frame, or both refuse — a truncated frame as an EOF,
// an oversize header before any memory is sized by it.
func FuzzFrameParse(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, OpHello, []byte("t")))
	f.Add(AppendFrame(nil, OpWrite, bytes.Repeat([]byte{0xaa}, 300)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{5, 0, 0, 0, 2, 1, 2, 3})
	f.Add([]byte{0x01, 0x00, 0x80, 0x00, 3, 9}) // one past the ceiling
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := ParseFrame(data)
		stream := &FrameConn{r: bytes.NewReader(data)}
		sfr, serr := stream.ReadFrame()
		switch err {
		case nil:
			if serr != nil || sfr.Op != fr.Op || !bytes.Equal(sfr.Payload, fr.Payload) {
				t.Fatalf("streaming reader disagrees on an accepted frame: %v", serr)
			}
		case errFrameSize:
			if serr != errFrameSize || cap(stream.in.b) != 0 {
				t.Fatalf("oversize header: streaming err %v, %d bytes sized", serr, cap(stream.in.b))
			}
		default:
			if serr != io.EOF && serr != io.ErrUnexpectedEOF {
				t.Fatalf("truncated frame: streaming err %v, ParseFrame %v", serr, err)
			}
		}
		if cap(stream.in.b) > maxRetained {
			t.Fatalf("streaming reader retains %d bytes", cap(stream.in.b))
		}
		if err != nil {
			return
		}
		if n < frameHeaderSize || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		if n != frameHeaderSize+len(fr.Payload) {
			t.Fatalf("consumed %d, payload %d", n, len(fr.Payload))
		}
		re := AppendFrame(nil, fr.Op, fr.Payload)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch")
		}
		// The decoded payload must also survive a stream round trip.
		fr2, err := ReadFrame(bytes.NewReader(data[:n]))
		if err != nil || fr2.Op != fr.Op || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("stream reparse: %v", err)
		}
	})
}
