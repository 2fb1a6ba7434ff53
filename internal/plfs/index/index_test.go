package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ldplfs/internal/posix"
)

func TestEntryRoundTrip(t *testing.T) {
	e := Entry{LogicalOffset: 1 << 40, Length: 12345, PhysicalOffset: 987, Timestamp: 42, Pid: 7, Dropping: 3}
	var buf [EntrySize]byte
	e.Marshal(buf[:])
	var got Entry
	if err := got.Unmarshal(buf[:]); err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip: got %+v want %+v", got, e)
	}
}

func TestEntryChecksumDetectsCorruption(t *testing.T) {
	e := Entry{LogicalOffset: 10, Length: 20, Timestamp: 1}
	var buf [EntrySize]byte
	e.Marshal(buf[:])
	buf[3] ^= 0xff
	var got Entry
	if err := got.Unmarshal(buf[:]); err == nil {
		t.Fatal("corrupted record unmarshalled without error")
	}
}

func TestEntryMarshalQuick(t *testing.T) {
	f := func(lo, ln, po int64, ts uint64, pid, drop uint32) bool {
		e := Entry{LogicalOffset: lo, Length: ln, PhysicalOffset: po, Timestamp: ts, Pid: pid, Dropping: drop}
		var buf [EntrySize]byte
		e.Marshal(buf[:])
		var got Entry
		return got.Unmarshal(buf[:]) == nil && got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuildSingleWriter(t *testing.T) {
	// Three sequential writes, log-structured: physical offsets are the
	// running total regardless of logical position.
	entries := []Entry{
		{LogicalOffset: 100, Length: 10, PhysicalOffset: 0, Timestamp: 1, Pid: 1},
		{LogicalOffset: 0, Length: 10, PhysicalOffset: 10, Timestamp: 2, Pid: 1},
		{LogicalOffset: 50, Length: 10, PhysicalOffset: 20, Timestamp: 3, Pid: 1},
	}
	idx := Build(entries)
	if idx.Size() != 110 {
		t.Fatalf("Size = %d, want 110", idx.Size())
	}
	if idx.NumExtents() != 3 {
		t.Fatalf("NumExtents = %d, want 3", idx.NumExtents())
	}
	// Query the middle write.
	ext := idx.Query(50, 10)
	if len(ext) != 1 || ext[0].PhysicalOffset != 20 || ext[0].Hole {
		t.Fatalf("Query(50,10) = %+v", ext)
	}
	// Query across a hole.
	ext = idx.Query(5, 50)
	want := []struct {
		hole bool
		len  int64
	}{{false, 5}, {true, 40}, {false, 5}}
	if len(ext) != len(want) {
		t.Fatalf("Query(5,50) = %+v", ext)
	}
	for i, w := range want {
		if ext[i].Hole != w.hole || ext[i].Length != w.len {
			t.Fatalf("Query(5,50)[%d] = %+v, want hole=%v len=%d", i, ext[i], w.hole, w.len)
		}
	}
}

func TestBuildOverwriteLastTimestampWins(t *testing.T) {
	entries := []Entry{
		{LogicalOffset: 0, Length: 100, PhysicalOffset: 0, Timestamp: 1, Pid: 1},
		{LogicalOffset: 25, Length: 50, PhysicalOffset: 0, Timestamp: 2, Pid: 2},
	}
	// Build must be order-independent.
	for _, order := range [][]Entry{entries, {entries[1], entries[0]}} {
		idx := Build(order)
		ext := idx.Query(0, 100)
		if len(ext) != 3 {
			t.Fatalf("extents = %+v", ext)
		}
		if ext[0].Pid != 1 || ext[0].Length != 25 {
			t.Fatalf("left piece = %+v", ext[0])
		}
		if ext[1].Pid != 2 || ext[1].Length != 50 {
			t.Fatalf("overwrite piece = %+v", ext[1])
		}
		if ext[2].Pid != 1 || ext[2].Length != 25 || ext[2].PhysicalOffset != 75 {
			t.Fatalf("right piece = %+v", ext[2])
		}
	}
}

func TestBuildInteriorOverwriteSplits(t *testing.T) {
	idx := Build([]Entry{
		{LogicalOffset: 0, Length: 30, PhysicalOffset: 0, Timestamp: 1, Pid: 1},
		{LogicalOffset: 10, Length: 10, PhysicalOffset: 100, Timestamp: 5, Pid: 9},
	})
	ext := idx.Query(0, 30)
	if len(ext) != 3 {
		t.Fatalf("want split into 3, got %+v", ext)
	}
	if ext[1].PhysicalOffset != 100 || ext[1].Pid != 9 {
		t.Fatalf("middle = %+v", ext[1])
	}
	if ext[2].PhysicalOffset != 20 {
		t.Fatalf("right physical offset = %d, want 20", ext[2].PhysicalOffset)
	}
}

func TestTruncate(t *testing.T) {
	idx := Build([]Entry{
		{LogicalOffset: 0, Length: 50, Timestamp: 1, Pid: 1},
		{LogicalOffset: 50, Length: 50, PhysicalOffset: 50, Timestamp: 2, Pid: 1},
	})
	idx.Truncate(75)
	if idx.Size() != 75 {
		t.Fatalf("Size = %d, want 75", idx.Size())
	}
	ext := idx.Query(0, 200)
	var total int64
	for _, x := range ext {
		total += x.Length
		if x.Hole {
			t.Fatalf("unexpected hole after truncate: %+v", ext)
		}
	}
	if total != 75 {
		t.Fatalf("total = %d, want 75", total)
	}
	idx.insert(Entry{LogicalOffset: 200, Timestamp: 3, Pid: 1})
	if idx.Size() != 200 {
		t.Fatalf("Size after a size record = %d", idx.Size())
	}
	ext = idx.Query(75, 125)
	if len(ext) != 1 || !ext[0].Hole {
		t.Fatalf("extended region = %+v, want one hole", ext)
	}
}

// TestSizeRecord pins the size record: Length zero at S raises the size
// to S and maps no bytes; one below the size changes nothing.
func TestSizeRecord(t *testing.T) {
	idx := Build([]Entry{
		{LogicalOffset: 0, Length: 100, Timestamp: 1, Pid: 1},
		{LogicalOffset: 300, Timestamp: 2, Pid: 1},
		{LogicalOffset: 50, Timestamp: 3, Pid: 2},
	})
	if idx.Size() != 300 || idx.NumExtents() != 1 {
		t.Fatalf("Size = %d, extents = %d; want 300, 1", idx.Size(), idx.NumExtents())
	}
	if ext := idx.Query(100, 500); len(ext) != 1 || !ext[0].Hole || ext[0].Length != 200 {
		t.Fatalf("trailing region = %+v, want one 200-byte hole", ext)
	}
}

func TestQueryEdgeCases(t *testing.T) {
	idx := Build([]Entry{{LogicalOffset: 0, Length: 10, Timestamp: 1}})
	if got := idx.Query(10, 5); got != nil {
		t.Fatalf("Query at EOF = %+v, want nil", got)
	}
	if got := idx.Query(-1, 5); got != nil {
		t.Fatalf("Query negative = %+v, want nil", got)
	}
	if got := idx.Query(0, 0); got != nil {
		t.Fatalf("Query zero length = %+v, want nil", got)
	}
	got := idx.Query(5, 100)
	if len(got) != 1 || got[0].Length != 5 {
		t.Fatalf("clipped query = %+v", got)
	}
	empty := Build(nil)
	if empty.Size() != 0 || empty.Query(0, 10) != nil {
		t.Fatal("empty index misbehaves")
	}
}

// TestIndexMatchesByteModel is the core property test: an arbitrary set of
// timestamped writes resolved through the index must reproduce exactly the
// bytes a flat file would hold.
func TestIndexMatchesByteModel(t *testing.T) {
	const fileSize = 1 << 12
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		model := make([]byte, fileSize) // model[i] = pid that last wrote byte i (0 = hole)
		var modelMax int64

		var entries []Entry
		var phys [16]int64 // per-pid physical cursor (log-structured)
		nWrites := 1 + rng.Intn(60)
		for w := 0; w < nWrites; w++ {
			pid := uint32(1 + rng.Intn(8))
			off := int64(rng.Intn(fileSize - 64))
			length := int64(1 + rng.Intn(64))
			entries = append(entries, Entry{
				LogicalOffset:  off,
				Length:         length,
				PhysicalOffset: phys[pid],
				Timestamp:      uint64(w + 1),
				Pid:            pid,
			})
			phys[pid] += length
			for i := off; i < off+length; i++ {
				model[i] = byte(pid)
			}
			if off+length > modelMax {
				modelMax = off + length
			}
		}

		// Shuffle to prove order independence.
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		idx := Build(entries)

		if idx.Size() != modelMax {
			t.Fatalf("seed %d: Size = %d, want %d", seed, idx.Size(), modelMax)
		}
		ext := idx.Query(0, modelMax)
		var cur int64
		for _, x := range ext {
			if x.LogicalOffset != cur {
				t.Fatalf("seed %d: extent gap at %d (extent %+v)", seed, cur, x)
			}
			for i := int64(0); i < x.Length; i++ {
				want := model[x.LogicalOffset+i]
				if x.Hole {
					if want != 0 {
						t.Fatalf("seed %d: hole at %d but model has pid %d", seed, x.LogicalOffset+i, want)
					}
				} else if byte(x.Pid) != want {
					t.Fatalf("seed %d: byte %d resolved to pid %d, model says %d",
						seed, x.LogicalOffset+i, x.Pid, want)
				}
			}
			cur += x.Length
		}
		if cur != modelMax {
			t.Fatalf("seed %d: coverage %d, want %d", seed, cur, modelMax)
		}
	}
}

func TestDroppingRoundTrip(t *testing.T) {
	fs := posix.NewMemFS()
	w, err := NewWriter(fs, "/idx")
	if err != nil {
		t.Fatal(err)
	}
	var want []Entry
	for i := 0; i < 100; i++ {
		e := Entry{LogicalOffset: int64(i * 10), Length: 10, PhysicalOffset: int64(i * 10), Timestamp: uint64(i), Pid: 4}
		w.Append(e)
		want = append(want, e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDropping(fs, "/idx")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestDroppingRejectsGarbage(t *testing.T) {
	fs := posix.NewMemFS()
	fd, _ := fs.Open("/bad", posix.O_CREAT|posix.O_WRONLY, 0o644)
	fs.Write(fd, []byte("this is not an index dropping, not even close"))
	fs.Close(fd)
	if _, err := ReadDropping(fs, "/bad"); err == nil {
		t.Fatal("garbage dropping accepted")
	}
	if _, err := ReadDropping(fs, "/missing"); err == nil {
		t.Fatal("missing dropping accepted")
	}
}

func TestDroppingSyncMidstream(t *testing.T) {
	fs := posix.NewMemFS()
	w, err := NewWriter(fs, "/idx")
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Entry{LogicalOffset: 0, Length: 5, Timestamp: 1})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Entries appended before Sync are visible to a concurrent reader.
	got, err := ReadDropping(fs, "/idx")
	if err != nil || len(got) != 1 {
		t.Fatalf("after sync: %d entries, %v", len(got), err)
	}
	w.Append(Entry{LogicalOffset: 5, Length: 5, PhysicalOffset: 5, Timestamp: 2})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = ReadDropping(fs, "/idx")
	if err != nil || len(got) != 2 {
		t.Fatalf("after close: %d entries, %v", len(got), err)
	}
}

// TestDroppingHeaderRule enumerates the header window for all three
// openers: every sub-header length reads as an empty dropping and
// resumes for append (the header is rewritten), while a full-length
// header with a bad magic or version stays fatal everywhere.
func TestDroppingHeaderRule(t *testing.T) {
	fs := posix.NewMemFS()
	if err := WriteDropping(fs, "/valid", nil); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, headerSize)
	fd, _ := fs.Open("/valid", posix.O_RDONLY, 0)
	if err := posix.ReadFull(fs, fd, hdr, 0); err != nil {
		t.Fatal(err)
	}
	fs.Close(fd)

	extra := Entry{LogicalOffset: 1, Length: 2, PhysicalOffset: 3, Timestamp: 4, Pid: 5}
	for n := 0; n < headerSize; n++ {
		writeFile(t, fs, "/sub", hdr[:n])
		if got, err := ReadDropping(fs, "/sub"); err != nil || len(got) != 0 {
			t.Fatalf("%d-byte dropping: ReadDropping = %v, %v", n, got, err)
		}
		s, err := OpenDroppingStream(fs, "/sub", listedSize(t, fs, "/sub"), 0)
		if err != nil {
			t.Fatalf("%d-byte dropping: OpenDroppingStream = %v", n, err)
		}
		if _, ok, err := s.Next(); ok || err != nil {
			t.Fatalf("%d-byte dropping: stream yielded a record (%v)", n, err)
		}
		s.Close()
		w, err := OpenWriter(fs, "/sub")
		if err != nil {
			t.Fatalf("%d-byte dropping: OpenWriter = %v", n, err)
		}
		w.Append(extra)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadDropping(fs, "/sub"); err != nil || len(got) != 1 || got[0] != extra {
			t.Fatalf("%d-byte dropping resumed to %v, %v", n, got, err)
		}
	}

	for name, at := range map[string]int{"magic": 0, "version": 8} {
		bad := append([]byte(nil), hdr...)
		bad[at] ^= 0xff
		writeFile(t, fs, "/bad", bad)
		if _, err := ReadDropping(fs, "/bad"); err == nil {
			t.Fatalf("bad %s: ReadDropping accepted", name)
		}
		if _, err := OpenDroppingStream(fs, "/bad", listedSize(t, fs, "/bad"), 0); err == nil {
			t.Fatalf("bad %s: OpenDroppingStream accepted", name)
		}
		if _, err := OpenWriter(fs, "/bad"); err == nil {
			t.Fatalf("bad %s: OpenWriter accepted", name)
		}
	}
}
