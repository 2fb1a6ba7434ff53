package index

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ldplfs/internal/posix"
)

func sampleFlattened() *Flattened {
	return &Flattened{
		Generation: 3,
		RawSig:     0xdeadbeef,
		Size:       5000,
		Extents: []Extent{
			{LogicalOffset: 0, Length: 1000, PhysicalOffset: 0, Pid: 1},
			{LogicalOffset: 1000, Length: 500, PhysicalOffset: 4096, Pid: 2, Dropping: 1},
			{LogicalOffset: 2000, Length: 2500, PhysicalOffset: 1000, Pid: 1},
		},
	}
}

func TestFlattenedRoundTrip(t *testing.T) {
	fs := posix.NewMemFS()
	want := sampleFlattened()
	if err := WriteFlattened(fs, "/flat", "/flat.tmp", want); err != nil {
		t.Fatal(err)
	}
	// The temp file must not survive a successful publish.
	if _, err := fs.Stat("/flat.tmp"); err == nil {
		t.Fatal("temp file left behind after publish")
	}
	got, err := ReadFlattened(fs, "/flat")
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != want.Generation || got.RawSig != want.RawSig || got.Size != want.Size {
		t.Fatalf("header round trip: %+v vs %+v", got, want)
	}
	if len(got.Extents) != len(want.Extents) {
		t.Fatalf("extents: %d vs %d", len(got.Extents), len(want.Extents))
	}
	for i := range want.Extents {
		if got.Extents[i] != want.Extents[i] {
			t.Fatalf("extent %d: %+v vs %+v", i, got.Extents[i], want.Extents[i])
		}
	}
	// The table loads straight into an index.
	idx, err := FromExtents(got.Extents, got.Size)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Size() != 5000 || idx.NumExtents() != 3 {
		t.Fatalf("loaded index: size %d extents %d", idx.Size(), idx.NumExtents())
	}
}

func TestFlattenedRejectsDamage(t *testing.T) {
	valid := MarshalFlattened(sampleFlattened())
	corrupt := func(mutate func([]byte) []byte) []byte {
		c := append([]byte(nil), valid...)
		return mutate(c)
	}
	cases := map[string][]byte{
		"torn tail":     valid[:len(valid)-5],
		"truncated mid": valid[:FlattenedHeaderSize+FlattenedExtentSize/2],
		"empty":         {},
		"short header":  valid[:FlattenedHeaderSize-1],
		"bad magic": corrupt(func(c []byte) []byte {
			c[0] ^= 0xff
			return c
		}),
		"bad version": corrupt(func(c []byte) []byte {
			binary.LittleEndian.PutUint64(c[8:], 99)
			return c
		}),
		"checksum flip": corrupt(func(c []byte) []byte {
			c[FlattenedHeaderSize+3] ^= 0x40
			return c
		}),
		"count too big": corrupt(func(c []byte) []byte {
			binary.LittleEndian.PutUint64(c[40:], 1<<60)
			return c
		}),
	}
	// Overlapping extents with a correct checksum (MarshalFlattened does
	// not validate): structure validation must reject what the checksum
	// cannot.
	overlap := sampleFlattened()
	overlap.Extents[1].LogicalOffset = 500 // overlaps extent 0's [0,1000)
	cases["overlapping extents"] = MarshalFlattened(overlap)
	small := sampleFlattened()
	small.Size = 100
	cases["size below data"] = MarshalFlattened(small)
	negLen := sampleFlattened()
	negLen.Extents[2].Length = -1
	cases["negative length"] = MarshalFlattened(negLen)

	for name, data := range cases {
		if _, err := UnmarshalFlattened(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRawSignatureProperties(t *testing.T) {
	a := RawSignature([]string{"hostdir.0/dropping.index.1"}, []int64{480})
	if b := RawSignature([]string{"hostdir.0/dropping.index.1"}, []int64{480}); b != a {
		t.Fatal("signature not deterministic")
	}
	if b := RawSignature([]string{"hostdir.0/dropping.index.1"}, []int64{528}); b == a {
		t.Fatal("signature misses a size change")
	}
	if b := RawSignature([]string{"hostdir.0/dropping.index.2"}, []int64{480}); b == a {
		t.Fatal("signature misses a renamed dropping")
	}
	if b := RawSignature([]string{"hostdir.0/dropping.index.1", "hostdir.1/dropping.index.2"}, []int64{480, 16}); b == a {
		t.Fatal("signature misses a new dropping")
	}
	if a == RawSignature(nil, nil) {
		t.Fatal("signature of nothing collides with signature of something")
	}
}

func TestWriteFlattenedFailureLeavesNoFinalFile(t *testing.T) {
	mem := posix.NewMemFS()
	ffs := posix.NewFaultFS(mem)
	ffs.Inject(&posix.FaultRule{Op: posix.FaultWrite, PathContains: ".tmp", Err: posix.ENOSPC})
	if err := WriteFlattened(ffs, "/flat", "/flat.tmp", sampleFlattened()); err == nil {
		t.Fatal("write succeeded on full device")
	}
	if _, err := mem.Stat("/flat"); err == nil {
		t.Fatal("final file exists after failed write")
	}
	if _, err := mem.Stat("/flat.tmp"); err == nil {
		t.Fatal("temp file left behind after failed write")
	}
	ffs.Clear()
	if err := WriteFlattened(ffs, "/flat", "/flat.tmp", sampleFlattened()); err != nil {
		t.Fatal(err)
	}
	if got := mem.OpenFDs(); got != 0 {
		t.Fatalf("%d fds leaked across flattened writes", got)
	}
}

// FuzzFlattenedParse throws arbitrary bytes at the flattened-record
// parser: it must never panic, and anything it accepts must satisfy the
// format's invariants — a sorted, non-overlapping extent table loading
// cleanly into an index, byte-exact round-trip through the marshaller,
// and rejection of every torn prefix (the record is atomic; there is no
// "partial parse").
func FuzzFlattenedParse(f *testing.F) {
	f.Add(MarshalFlattened(sampleFlattened()))
	f.Add(MarshalFlattened(&Flattened{Generation: 1}))
	valid := MarshalFlattened(sampleFlattened())
	torn := valid[:len(valid)-9]
	f.Add(torn)
	corrupt := append([]byte(nil), valid...)
	corrupt[50] ^= 0x10
	f.Add(corrupt)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := UnmarshalFlattened(data)
		if err != nil {
			return // rejected cleanly
		}
		// Accepted: the table must load into an index without error.
		idx, err := FromExtents(fl.Extents, fl.Size)
		if err != nil {
			t.Fatalf("accepted record fails FromExtents: %v", err)
		}
		if idx.Size() != fl.Size || idx.NumExtents() != len(fl.Extents) {
			t.Fatalf("loaded index disagrees with record: size %d/%d extents %d/%d",
				idx.Size(), fl.Size, idx.NumExtents(), len(fl.Extents))
		}
		// Round trip: re-marshalling reproduces the accepted bytes exactly.
		if again := MarshalFlattened(fl); !bytes.Equal(again, data) {
			t.Fatalf("round trip diverged:\n%x\n%x", again, data)
		}
		// Every torn prefix of an accepted record must be rejected.
		if len(data) > 0 {
			cut := len(data) - 1 - len(data)%7
			if cut > 0 {
				if _, err := UnmarshalFlattened(data[:cut]); err == nil {
					t.Fatalf("torn prefix of %d/%d bytes accepted", cut, len(data))
				}
			}
		}
	})
}
