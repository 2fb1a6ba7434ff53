package index

import (
	"fmt"
	"slices"
	"testing"

	"ldplfs/internal/posix"
)

// listedEntries is n timestamp-sorted records of a writer.
func listedEntries(n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{LogicalOffset: int64(i) * 8, Length: 8, PhysicalOffset: int64(i) * 8, Timestamp: uint64(i + 1), Pid: 3}
	}
	return es
}

// drain reads a stream to its end.
func drain(s *DroppingStream) ([]Entry, error) {
	var out []Entry
	for {
		e, ok, err := s.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, e)
	}
}

// listedSize is the size a listing of path reports now.
func listedSize(t *testing.T, fs posix.FS, path string) int64 {
	t.Helper()
	st, err := fs.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size
}

// TestListedStreamShrank: a dropping that turns out shorter than its
// listing said — its torn tail trimmed by a resuming writer, or cut
// inside a record — yields the whole records that arrived and no
// error, whichever chunk the cut falls in.
func TestListedStreamShrank(t *testing.T) {
	const records = 10
	for _, chunk := range []int{1, 3, 0} {
		t.Run(fmt.Sprintf("chunk=%d/torn-tail-trimmed", chunk), func(t *testing.T) {
			fs := posix.NewMemFS()
			es := listedEntries(records)
			if err := WriteDropping(fs, "/d", es); err != nil {
				t.Fatal(err)
			}
			whole := listedSize(t, fs, "/d")
			if err := fs.Truncate("/d", whole+EntrySize/2); err != nil {
				t.Fatal(err)
			}
			size := listedSize(t, fs, "/d")
			w, err := OpenWriter(fs, "/d") // trims the torn tail
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
			if got := listedSize(t, fs, "/d"); got != whole {
				t.Fatalf("resume left %d bytes, want %d", got, whole)
			}
			s, err := OpenDroppingStream(fs, "/d", size, chunk)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got, err := drain(s); err != nil || !slices.Equal(got, es) {
				t.Fatalf("stream = %d records, %v; want the %d whole ones", len(got), err, records)
			}
		})
		for _, cut := range []int{0, 1, 4, records - 1} {
			t.Run(fmt.Sprintf("chunk=%d/cut-in-record-%d", chunk, cut), func(t *testing.T) {
				fs := posix.NewMemFS()
				es := listedEntries(records)
				if err := WriteDropping(fs, "/d", es); err != nil {
					t.Fatal(err)
				}
				size := listedSize(t, fs, "/d")
				if err := fs.Truncate("/d", headerSize+int64(cut)*EntrySize+EntrySize/2); err != nil {
					t.Fatal(err)
				}
				s, err := OpenDroppingStream(fs, "/d", size, chunk)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if got, err := drain(s); err != nil || !slices.Equal(got, es[:cut]) {
					t.Fatalf("stream = %d records, %v; want the %d that arrived whole", len(got), err, cut)
				}
			})
		}
	}
}

// TestListedStreamGrew: records appended after the listing are not
// read; a partial record within the listed size is not either.
func TestListedStreamGrew(t *testing.T) {
	for _, chunk := range []int{1, 4, 0} {
		fs := posix.NewMemFS()
		es := listedEntries(9)
		if err := WriteDropping(fs, "/d", es[:5]); err != nil {
			t.Fatal(err)
		}
		size := listedSize(t, fs, "/d")
		w, err := OpenWriter(fs, "/d")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range es[5:] {
			w.Append(e)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for _, listed := range []int64{size, size + EntrySize/2} {
			s, err := OpenDroppingStream(fs, "/d", listed, chunk)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := drain(s); err != nil || !slices.Equal(got, es[:5]) {
				t.Fatalf("chunk %d, listed %d: stream = %d records, %v; want the 5 listed", chunk, listed, len(got), err)
			}
			s.Close()
		}
	}
}

// TestListedStreamUnderHeader is the in-flight rule of wholeRecords for
// a listed stream: a listed size under a header's length is zero
// records, whatever the file holds by the time it is read, and so is a
// read that brings back less than a header.
func TestListedStreamUnderHeader(t *testing.T) {
	fs := posix.NewMemFS()
	if err := WriteDropping(fs, "/full", listedEntries(3)); err != nil {
		t.Fatal(err)
	}
	for listed := int64(0); listed < headerSize; listed++ {
		s, err := OpenDroppingStream(fs, "/full", listed, 0)
		if err != nil {
			t.Fatalf("listed %d: %v", listed, err)
		}
		if got, err := drain(s); err != nil || len(got) != 0 {
			t.Fatalf("listed %d: stream = %d records, %v; want none", listed, len(got), err)
		}
		s.Close()
	}
	full := listedSize(t, fs, "/full")
	for n := int64(0); n < headerSize; n++ {
		if err := WriteDropping(fs, "/cut", listedEntries(3)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Truncate("/cut", n); err != nil {
			t.Fatal(err)
		}
		s, err := OpenDroppingStream(fs, "/cut", full, 0)
		if err != nil {
			t.Fatalf("%d bytes read: %v", n, err)
		}
		if got, err := drain(s); err != nil || len(got) != 0 {
			t.Fatalf("%d bytes read: stream = %d records, %v; want none", n, len(got), err)
		}
		s.Close()
	}
}

// TestListedStreamBadHeader: a full-length header with a bad magic or
// version is fatal to a listed stream as to every other opener, with
// or without records behind it, and the stream's descriptor is closed.
func TestListedStreamBadHeader(t *testing.T) {
	for _, records := range []int{0, 3} {
		for name, at := range map[string]int{"magic": 0, "version": 8} {
			mem := posix.NewMemFS()
			if err := WriteDropping(mem, "/d", listedEntries(records)); err != nil {
				t.Fatal(err)
			}
			fd, err := mem.Open("/d", posix.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			b := make([]byte, 1)
			if err := posix.ReadFull(mem, fd, b, int64(at)); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0xff
			if _, err := posix.WriteFull(mem, fd, b, int64(at)); err != nil {
				t.Fatal(err)
			}
			mem.Close(fd)
			for _, listed := range []int64{headerSize, listedSize(t, mem, "/d")} {
				if _, err := OpenDroppingStream(mem, "/d", listed, 0); err == nil {
					t.Fatalf("bad %s, %d records, listed %d: accepted", name, records, listed)
				}
			}
			if n := mem.OpenFDs(); n != 0 {
				t.Fatalf("bad %s: %d descriptors left open", name, n)
			}
		}
	}
}

// TestListedStreamDifferential merges FuzzIndexMerge's seed histories
// through listed streams, at every chunk size from one record up, and
// checks the result against ReadDropping and Build over the same
// droppings.
func TestListedStreamDifferential(t *testing.T) {
	for i, data := range indexMergeSeeds() {
		mem := posix.NewMemFS()
		paths, _ := writeHistoryDroppings(t, mem, data, writeHistory(data))
		var all []Entry
		for _, p := range paths {
			es, err := ReadDropping(mem, p)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, es...)
		}
		want := Build(all)
		for _, chunk := range []int{1, 2, 5, 0} {
			streams := make([]*DroppingStream, len(paths))
			for j, p := range paths {
				s, err := OpenDroppingStream(mem, p, listedSize(t, mem, p), chunk)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				streams[j] = s
			}
			got, _, err := MergeStreams(streams...)
			if err != nil {
				t.Fatalf("seed %d, chunk %d: %v", i, chunk, err)
			}
			if got.Size() != want.Size() {
				t.Fatalf("seed %d, chunk %d: size %d, want %d", i, chunk, got.Size(), want.Size())
			}
			sameExtents(t, fmt.Sprintf("seed %d, chunk %d", i, chunk), got.Extents(), want.Extents())
		}
	}
}

// TestListedStreamAllocs: a stream read to its end allocates what
// opening and closing the dropping's descriptor allocates, plus the
// stream and its one chunk buffer, at the default chunk and at a chunk
// that takes several reads — the later reads reuse the buffer.
func TestListedStreamAllocs(t *testing.T) {
	mem := posix.NewMemFS()
	if err := WriteDropping(mem, "/d", listedEntries(64)); err != nil {
		t.Fatal(err)
	}
	size := listedSize(t, mem, "/d")
	fd := testing.AllocsPerRun(50, func() {
		fd, err := mem.Open("/d", posix.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		mem.Close(fd)
	})
	for _, chunk := range []int{0, 16} {
		allocs := testing.AllocsPerRun(50, func() {
			s, err := OpenDroppingStream(mem, "/d", size, chunk)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := drainCount(s); err != nil || got != 64 {
				t.Fatalf("%d records, %v", got, err)
			}
			s.Close()
		})
		if allocs > fd+2 {
			t.Fatalf("chunk %d: a stream makes %.0f allocations, want at most %.0f (its descriptor's %.0f, the stream, the buffer)",
				chunk, allocs, fd+2, fd)
		}
	}
}

// drainCount reads a stream to its end without keeping its records.
func drainCount(s *DroppingStream) (int, error) {
	n := 0
	for {
		_, ok, err := s.Next()
		if err != nil || !ok {
			return n, err
		}
		n++
	}
}
