package plfs

import (
	"bytes"
	"errors"
	"testing"

	"ldplfs/internal/posix"
)

// TestReadVMatchesScalarReads pins the vectored read against per-segment
// scalar reads over a strided multi-writer container: same bytes, same
// below-EOF count, zero-filled past-EOF tails.
func TestReadVMatchesScalarReads(t *testing.T) {
	mem := posix.NewMemFS()
	p := New(mem)
	f, err := p.Open("/v", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const block = 1 << 10
	const writers, blocks = 4, 8
	for w := uint32(0); w < writers; w++ {
		payload := bytes.Repeat([]byte{byte(w + 1)}, block)
		for b := 0; b < blocks; b++ {
			off := int64(b*writers+int(w)) * block
			if _, err := f.Write(payload, off, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	size := int64(writers * blocks * block)

	segs := []ReadSeg{
		{Off: 0, Buf: make([]byte, block/2)},
		{Off: block, Buf: make([]byte, 3*block)},        // spans writers
		{Off: size - block, Buf: make([]byte, 2*block)}, // crosses EOF
	}
	want := int64(block/2 + 3*block + block) // below-EOF bytes only
	n, err := f.ReadV(segs)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("ReadV = %d, want %d", n, want)
	}
	for _, s := range segs {
		scalar := make([]byte, len(s.Buf))
		sn, err := f.Read(scalar, s.Off)
		if err != nil {
			t.Fatal(err)
		}
		// Scalar reads leave bytes past EOF unspecified; ReadV zero-fills
		// them, so compare the below-EOF prefix byte-for-byte and demand
		// zeros beyond it.
		if !bytes.Equal(s.Buf[:sn], scalar[:sn]) {
			t.Fatalf("ReadV bytes at %d differ from scalar read", s.Off)
		}
		for i := sn; i < len(s.Buf); i++ {
			if s.Buf[i] != 0 {
				t.Fatalf("ReadV past-EOF byte %d at seg off %d = %d, want 0", i, s.Off, s.Buf[i])
			}
		}
	}
}

// TestReadVValidation rejects descending segment vectors.
func TestReadVValidation(t *testing.T) {
	mem := posix.NewMemFS()
	p := New(mem)
	f, err := p.Open("/vv", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4}, 0, 0); err != nil {
		t.Fatal(err)
	}
	segs := []ReadSeg{
		{Off: 100, Buf: make([]byte, 4)},
		{Off: 0, Buf: make([]byte, 4)},
	}
	if _, err := f.ReadV(segs); err == nil {
		t.Fatal("descending ReadV vector accepted")
	}
	if n, err := f.ReadV(nil); n != 0 || err != nil {
		t.Fatalf("empty ReadV = %d, %v", n, err)
	}
}

// TestReadIsOneSegmentReadV pins Read(buf, off) to the one-segment
// ReadV it is implemented as: same count, same bytes below it and the
// same error, across every shape of request — inside the data, across a
// hole, across EOF, wholly past EOF, and with the second of three
// droppings failing (the readable prefix stops at its first extent).
func TestReadIsOneSegmentReadV(t *testing.T) {
	p, ffs, _ := faultPLFS(t)
	f, err := p.Open("/backend/seg", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(0)
	const block = 1 << 10
	// pid 0 | pid 1 | hole | pid 2
	for pid, at := range []int64{0, block, 3 * block} {
		if _, err := f.Write(bytes.Repeat([]byte{byte(pid + 1)}, block), at, uint32(pid)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name     string
		off      int64
		length   int
		failPath string // data dropping to fail, "" for none
		wantN    int
		wantErr  bool
	}{
		{"inside", block / 4, block / 2, "", block / 2, false},
		{"spanning a hole", block + block/2, 2 * block, "", 2 * block, false},
		{"spanning EOF", 3*block + block/2, block, "", block / 2, false},
		{"past EOF", 8 * block, block / 2, "", 0, false},
		{"second of three droppings fails", 0, 4 * block, "dropping.data.1", block, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.failPath != "" {
				ffs.Inject(&posix.FaultRule{Op: posix.FaultRead, PathContains: tc.failPath, Err: posix.EIO})
				defer ffs.Clear()
			}
			scalar := bytes.Repeat([]byte{0xAA}, tc.length)
			vector := bytes.Repeat([]byte{0xAA}, tc.length)
			n, err := f.Read(scalar, tc.off)
			vn, verr := f.ReadV([]ReadSeg{{Off: tc.off, Buf: vector}})
			if n != tc.wantN || (err != nil) != tc.wantErr {
				t.Fatalf("Read = %d, %v; want %d, error %v", n, err, tc.wantN, tc.wantErr)
			}
			if int64(n) != vn {
				t.Fatalf("Read = %d bytes, ReadV = %d", n, vn)
			}
			if !bytes.Equal(scalar[:n], vector[:n]) {
				t.Fatal("Read and ReadV bytes differ below the count")
			}
			if (err == nil) != (verr == nil) || (err != nil && err.Error() != verr.Error()) {
				t.Fatalf("Read error %v, ReadV error %v", err, verr)
			}
			if tc.wantErr && !errors.Is(err, posix.EIO) {
				t.Fatalf("injected EIO lost: %v", err)
			}
		})
	}
}
