package index

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"ldplfs/internal/posix"
)

// foldProgram turns fuzz bytes into an appended record sequence: most
// bytes continue the current progression, others change its stride,
// length or stamp stride, send the clock back, leave a gap in the data
// dropping, or append a burst of records no run can take (enough of
// them to pass MaxFoldRuns).
func foldProgram(prog []byte) []Entry {
	var out []Entry
	e := Entry{LogicalOffset: 4096, Length: 64, PhysicalOffset: 0, Timestamp: 100, Pid: 3}
	stride, tsStride := int64(512), uint64(8)
	emit := func() {
		out = append(out, e)
		e.LogicalOffset += stride
		e.PhysicalOffset += e.Length
		e.Timestamp += tsStride
	}
	for _, b := range prog {
		arg := int64(b >> 3)
		switch b & 7 {
		case 3:
			stride = arg*7 - 50
		case 4:
			e.Length = arg % 5 // 0 is a size record
		case 5:
			tsStride = uint64(arg)
		case 6:
			e.Timestamp -= uint64(arg) + 1
		case 7:
			e.PhysicalOffset += arg + 1
		case 2:
			for i := int64(0); i < arg*40; i++ {
				e.Length = 1 + i%2
				emit()
			}
			continue
		}
		emit()
	}
	return out
}

// sameStream fails unless a stream over the fold yields what a stream
// over the dropping yields, records and end alike.
func sameStream(t *testing.T, fold *Fold, fs posix.FS, path string, size int64, chunk int) {
	t.Helper()
	disk, err := OpenDroppingStream(fs, path, size, chunk)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	want, wantErr := drain(disk)
	got, gotErr := drain(fold.Stream(chunk))
	if len(got) != len(want) {
		t.Fatalf("fold streams %d records, the dropping %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: fold %+v, dropping %+v", i, got[i], want[i])
		}
	}
	if errors.Is(gotErr, ErrUnsorted) != errors.Is(wantErr, ErrUnsorted) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("fold stream ends with %v, the dropping's with %v", gotErr, wantErr)
	}
}

// writeEntries writes entries as the dropping at path and returns its
// size.
func writeEntries(t *testing.T, fs posix.FS, path string, entries []Entry) int64 {
	t.Helper()
	if err := WriteDropping(fs, path, entries); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size
}

// FuzzFoldStream: whatever a writer appends, its fold's stream yields
// exactly what a stream over the dropping holding the same records
// yields — records, chunk by chunk, and ErrUnsorted at the same place
// — and the fold vouches for that dropping's size. A fold spills, and
// takes nothing more, exactly when a record would start run
// MaxFoldRuns + 1.
func FuzzFoldStream(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0}, uint8(3))
	f.Add([]byte{0, 3 | 9<<3, 0, 0, 4 | 2<<3, 0, 5 | 1<<3, 0}, uint8(2))
	f.Add([]byte{0, 0, 6 | 1<<3, 0, 7, 0, 4, 0, 0}, uint8(1))
	f.Add([]byte{2 | 13<<3, 0, 0}, uint8(0))  // 520 records, no run: spills
	f.Add([]byte{2 | 12<<3, 0, 0}, uint8(50)) // 480 records: stays
	f.Fuzz(func(t *testing.T, prog []byte, chunk uint8) {
		entries := foldProgram(prog)
		fold := &Fold{}
		spilled := -1
		for i, e := range entries {
			runs := len(fold.runs)
			if !fold.Append(e) {
				if runs != MaxFoldRuns {
					t.Fatalf("record %d spilled a fold of %d runs, below the cap", i, runs)
				}
				spilled = i
				break
			}
		}
		if len(fold.runs) > MaxFoldRuns {
			t.Fatalf("a fold holds %d runs, past the cap", len(fold.runs))
		}
		if spilled >= 0 {
			if fold.Append(entries[spilled]) || fold.Holds(DroppingHeaderSize) {
				t.Fatal("a spent fold took a record or vouches for a dropping")
			}
			// The records before the spill filled the cap exactly.
			entries = entries[:spilled]
			fold = &Fold{}
			for _, e := range entries {
				fold.Append(e)
			}
			if len(fold.runs) != MaxFoldRuns {
				t.Fatalf("the records before the spill fold into %d runs, want %d", len(fold.runs), MaxFoldRuns)
			}
		}
		mem := posix.NewMemFS()
		size := writeEntries(t, mem, "/d", entries)
		if !fold.Holds(size) || fold.Holds(size+1) || fold.Holds(size+EntrySize) {
			t.Fatalf("the fold of %d records does not vouch for exactly %d bytes", len(entries), size)
		}
		sameStream(t, fold, mem, "/d", size, int(chunk))
	})
}

// TestFoldEncodingRoundTrip: folds handed over as bytes stream what the
// originals stream, and only the folds of droppings listed at the size
// their records fill come back.
func TestFoldEncodingRoundTrip(t *testing.T) {
	mem := posix.NewMemFS()
	shapes := map[string][]Entry{
		"/dropping.index.0": foldProgram([]byte{0, 0, 0, 0, 0}),
		"/dropping.index.1": foldProgram([]byte{0, 3 | 4<<3, 0, 7, 0, 5 | 3<<3, 0, 4 | 3<<3, 0}),
		"/dropping.index.2": nil,
		"/dropping.index.3": foldProgram([]byte{0, 0}), // listed longer than its records
		"/dropping.index.4": foldProgram([]byte{0}),    // not listed
	}
	folds := make(map[string]*Fold)
	sizes := make(map[string]int64)
	for path, entries := range shapes {
		f := &Fold{}
		for _, e := range entries {
			f.Append(e)
		}
		folds[path] = f
		sizes[path] = writeEntries(t, mem, path, entries)
	}
	sizes["/dropping.index.3"] += EntrySize
	delete(sizes, "/dropping.index.4")

	got, err := DecodeFolds(EncodeFolds(folds), func(path string) (int64, bool) {
		size, ok := sizes[path]
		return size, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded folds of %d droppings, want the 3 listed at their records' size", len(got))
	}
	for _, path := range []string{"/dropping.index.0", "/dropping.index.1", "/dropping.index.2"} {
		f := got[path]
		if f == nil {
			t.Fatalf("%s did not come back", path)
		}
		sameStream(t, f, mem, path, sizes[path], 2)
	}

	enc := EncodeFolds(folds)
	enc[40] ^= 1
	if _, err := DecodeFolds(enc, func(string) (int64, bool) { return 0, false }); err == nil {
		t.Fatal("an encoding with a flipped byte decoded")
	}
}

// forgeFolds encodes one fold of path claiming records records in runs
// runs, with a valid checksum; the bytes hold one run of each count.
func forgeFolds(path string, records, runs uint64, counts ...uint64) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, foldMagic)
	buf = binary.LittleEndian.AppendUint64(buf, 1)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(path)))
	buf = append(buf, path...)
	buf = binary.LittleEndian.AppendUint64(buf, records)
	buf = binary.LittleEndian.AppendUint64(buf, runs)
	for _, n := range counts {
		r := make([]byte, foldRunSize)
		binary.LittleEndian.PutUint64(r[8:], EntrySize)
		binary.LittleEndian.PutUint64(r[48:], n)
		buf = append(buf, r...)
	}
	return binary.LittleEndian.AppendUint64(buf, fnvSum(buf))
}

// TestForgedFoldsRefused: an encoding whose checksum holds but whose
// claims do not is refused before its claims can drive an allocation —
// records beyond what the listed dropping holds are skipped unread; more
// runs than its bytes, or runs that add up to other than the records
// claimed, fail the encoding.
func TestForgedFoldsRefused(t *testing.T) {
	const path = "/dropping.index.0"
	listed := func(string) (int64, bool) { return DroppingHeaderSize + 3*EntrySize, true }
	cases := []struct {
		name    string
		enc     []byte
		wantErr bool
	}{
		{"2^40 records of a 3-record dropping", forgeFolds(path, 1<<40, 1, 1<<40), false},
		{"2^58 runs in 64 bytes", forgeFolds(path, 3, 1<<58, 3), true},
		{"runs short of the records", forgeFolds(path, 3, 1, 2), true},
		{"runs past the records", forgeFolds(path, 3, 2, 2, 2), true},
		{"a run of no records", forgeFolds(path, 3, 2, 0, 3), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got map[string]*Fold
			var err error
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			got, err = DecodeFolds(c.enc, listed)
			runtime.ReadMemStats(&m1)
			// The claims would cost terabytes; the decode's own maps,
			// strings and error text cost a few KiB, more under -race.
			if n := m1.TotalAlloc - m0.TotalAlloc; n > 64<<10 {
				t.Errorf("decoding allocated %d bytes", n)
			}
			if (err != nil) != c.wantErr {
				t.Fatalf("err = %v, want an error: %v", err, c.wantErr)
			}
			if len(got) != 0 {
				t.Fatalf("decoded %d folds from a forged encoding", len(got))
			}
		})
	}
}
