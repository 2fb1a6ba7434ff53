package index

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ldplfs/internal/posix"
)

// newStreamFixtureFS returns an empty MemFS for stream tests.
func newStreamFixtureFS(t *testing.T) posix.FS {
	t.Helper()
	return posix.NewMemFS()
}

func pathFor(i int) string { return fmt.Sprintf("/d%d", i) }

// newStreamFixture writes n droppings of perDropping entries each, with
// globally interleaved timestamps (each dropping individually sorted, as
// real writers produce) and overlapping logical ranges.
func newStreamFixture(t *testing.T, n, perDropping int) posix.FS {
	t.Helper()
	fs := posix.NewMemFS()
	rng := rand.New(rand.NewSource(7))
	ts := uint64(0)
	perWriter := make([][]Entry, n)
	for rec := 0; rec < perDropping; rec++ {
		for w := 0; w < n; w++ {
			ts++
			perWriter[w] = append(perWriter[w], Entry{
				LogicalOffset:  int64(rng.Intn(1 << 16)),
				Length:         int64(1 + rng.Intn(200)),
				PhysicalOffset: int64(rec) * 256,
				Timestamp:      ts,
				Pid:            uint32(w),
			})
		}
	}
	for w := 0; w < n; w++ {
		if err := WriteDropping(fs, pathFor(w), perWriter[w]); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func errorsIs(err, target error) bool { return errors.Is(err, target) }

// refIndex is the pre-interval-map reference implementation: one flat
// sorted slice, spliced per insert. Kept here as the oracle the chunked
// map is differential-tested against at scales that force chunk splits,
// cross-chunk overlays and chunk-spanning writes — regimes the byte-replay
// fuzz target (capped at 64 entries) never reaches.
type refIndex struct {
	extents []Extent
	size    int64
}

func (idx *refIndex) insert(e Entry) {
	if e.Length <= 0 {
		return
	}
	if end := e.LogicalOffset + e.Length; end > idx.size {
		idx.size = end
	}
	newExt := Extent{
		LogicalOffset:  e.LogicalOffset,
		Length:         e.Length,
		PhysicalOffset: e.PhysicalOffset,
		Pid:            e.Pid,
		Dropping:       e.Dropping,
	}
	lo, hi := e.LogicalOffset, e.LogicalOffset+e.Length
	i := 0
	for i < len(idx.extents) && idx.extents[i].LogicalOffset+idx.extents[i].Length <= lo {
		i++
	}
	out := append([]Extent{}, idx.extents[:i]...)
	var right *Extent
	j := i
	for ; j < len(idx.extents); j++ {
		x := idx.extents[j]
		if x.LogicalOffset >= hi {
			break
		}
		if x.LogicalOffset < lo {
			left := x
			left.Length = lo - x.LogicalOffset
			out = append(out, left)
		}
		if xEnd := x.LogicalOffset + x.Length; xEnd > hi {
			r := x
			r.Length = xEnd - hi
			r.LogicalOffset = hi
			if !x.Hole {
				r.PhysicalOffset = x.PhysicalOffset + (hi - x.LogicalOffset)
			}
			right = &r
		}
	}
	out = append(out, newExt)
	if right != nil {
		out = append(out, *right)
	}
	out = append(out, idx.extents[j:]...)
	idx.extents = out
}

func (idx *refIndex) truncate(size int64) {
	if size < 0 {
		size = 0
	}
	var out []Extent
	for _, x := range idx.extents {
		switch {
		case x.LogicalOffset >= size:
		case x.LogicalOffset+x.Length > size:
			x.Length = size - x.LogicalOffset
			out = append(out, x)
		default:
			out = append(out, x)
		}
	}
	idx.extents = out
	idx.size = size
}

func sameExtents(t *testing.T, tag string, got, want []Extent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d extents, reference has %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: extent %d = %+v, reference %+v", tag, i, got[i], want[i])
		}
	}
}

// TestIntervalMapMatchesReferenceAtScale drives tens of thousands of
// overlays — short scattered writes, chunk-spanning rewrites, tail
// appends — through the chunked map and the flat-slice reference in
// lockstep, comparing full extent tables, sizes, counts and interleaved
// queries. The entry counts force many chunk splits and multi-chunk
// overlay splices.
func TestIntervalMapMatchesReferenceAtScale(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idx := &Index{}
		ref := &refIndex{}
		const space = 1 << 20
		for i := 0; i < 20000; i++ {
			var off, length int64
			switch rng.Intn(10) {
			case 0: // long write spanning many existing extents/chunks
				off = int64(rng.Intn(space / 2))
				length = int64(1 + rng.Intn(space/4))
			case 1, 2: // tail append
				off = idx.Size() + int64(rng.Intn(64))
				length = int64(1 + rng.Intn(128))
			default: // short scattered overlay
				off = int64(rng.Intn(space))
				length = int64(1 + rng.Intn(256))
			}
			e := Entry{
				LogicalOffset:  off,
				Length:         length,
				PhysicalOffset: int64(i) * 512,
				Timestamp:      uint64(i + 1),
				Pid:            uint32(rng.Intn(8)),
				Dropping:       uint32(rng.Intn(4)),
			}
			idx.insert(e)
			ref.insert(e)

			if i%2000 == 1999 {
				if idx.Size() != ref.size {
					t.Fatalf("seed %d step %d: Size %d, reference %d", seed, i, idx.Size(), ref.size)
				}
				if idx.NumExtents() != len(ref.extents) {
					t.Fatalf("seed %d step %d: NumExtents %d, reference %d", seed, i, idx.NumExtents(), len(ref.extents))
				}
				sameExtents(t, "mid-run", idx.Extents(), ref.extents)
			}
		}
		sameExtents(t, "final", idx.Extents(), ref.extents)

		// Interleaved queries must resolve identically to a scan of the
		// reference table.
		for q := 0; q < 200; q++ {
			off := int64(rng.Intn(space))
			length := int64(1 + rng.Intn(space/8))
			checkQueryAgainstReference(t, idx, ref, off, length)
		}

		// Truncate down through several chunk boundaries, re-checking.
		for _, frac := range []int64{3, 7, 50} {
			size := idx.Size() / frac
			idx.Truncate(size)
			ref.truncate(size)
			if idx.Size() != ref.size {
				t.Fatalf("seed %d: post-truncate Size %d, reference %d", seed, idx.Size(), ref.size)
			}
			sameExtents(t, "truncated", idx.Extents(), ref.extents)
		}
	}
}

// checkQueryAgainstReference verifies Query's hole-filling resolution
// against a linear scan of the reference extent table.
func checkQueryAgainstReference(t *testing.T, idx *Index, ref *refIndex, off, length int64) {
	t.Helper()
	got := idx.Query(off, length)
	if off >= ref.size {
		if got != nil {
			t.Fatalf("Query(%d,%d) past EOF returned %d extents", off, length, len(got))
		}
		return
	}
	if off+length > ref.size {
		length = ref.size - off
	}
	cur := off
	gi := 0
	for _, x := range ref.extents {
		xEnd := x.LogicalOffset + x.Length
		if xEnd <= cur {
			continue
		}
		if cur >= off+length {
			break
		}
		if x.LogicalOffset > cur {
			holeEnd := x.LogicalOffset
			if holeEnd > off+length {
				holeEnd = off + length
			}
			if gi >= len(got) || !got[gi].Hole || got[gi].LogicalOffset != cur || got[gi].Length != holeEnd-cur {
				t.Fatalf("Query(%d,%d)[%d]: want hole [%d,%d), got %+v", off, length, gi, cur, holeEnd, at(got, gi))
			}
			gi++
			cur = holeEnd
			if cur >= off+length {
				break
			}
		}
		skip := cur - x.LogicalOffset
		n := x.Length - skip
		if rem := off + length - cur; n > rem {
			n = rem
		}
		want := Extent{
			LogicalOffset:  cur,
			Length:         n,
			PhysicalOffset: x.PhysicalOffset + skip,
			Pid:            x.Pid,
			Dropping:       x.Dropping,
		}
		if gi >= len(got) || got[gi] != want {
			t.Fatalf("Query(%d,%d)[%d]: want %+v, got %+v", off, length, gi, want, at(got, gi))
		}
		gi++
		cur += n
	}
	if cur < off+length {
		if gi >= len(got) || !got[gi].Hole || got[gi].LogicalOffset != cur || got[gi].Length != off+length-cur {
			t.Fatalf("Query(%d,%d): want trailing hole at %d, got %+v", off, length, cur, at(got, gi))
		}
		gi++
	}
	if gi != len(got) {
		t.Fatalf("Query(%d,%d): %d extra extents: %+v", off, length, len(got)-gi, got[gi:])
	}
}

func at(xs []Extent, i int) any {
	if i < len(xs) {
		return xs[i]
	}
	return "missing"
}

// TestFromExtentsRoundTrip proves the O(extents) load path reproduces a
// built index exactly, and that malformed tables are rejected.
func TestFromExtentsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var entries []Entry
	for i := 0; i < 3000; i++ {
		entries = append(entries, Entry{
			LogicalOffset:  int64(rng.Intn(1 << 18)),
			Length:         int64(1 + rng.Intn(512)),
			PhysicalOffset: int64(i) * 512,
			Timestamp:      uint64(i + 1),
			Pid:            uint32(rng.Intn(4)),
		})
	}
	built := Build(entries)
	loaded, err := FromExtents(built.Extents(), built.Size())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != built.Size() || loaded.NumExtents() != built.NumExtents() {
		t.Fatalf("round trip: size %d/%d extents %d/%d",
			loaded.Size(), built.Size(), loaded.NumExtents(), built.NumExtents())
	}
	sameExtents(t, "from-extents", loaded.Extents(), built.Extents())
	for q := 0; q < 100; q++ {
		off := int64(rng.Intn(1 << 18))
		length := int64(1 + rng.Intn(1<<14))
		g1, g2 := built.Query(off, length), loaded.Query(off, length)
		if len(g1) != len(g2) {
			t.Fatalf("query diverged: %d vs %d extents", len(g1), len(g2))
		}
		for i := range g1 {
			if g1[i] != g2[i] {
				t.Fatalf("query extent %d: %+v vs %+v", i, g1[i], g2[i])
			}
		}
	}

	for _, bad := range []struct {
		name string
		ext  []Extent
		size int64
	}{
		{"overlap", []Extent{{LogicalOffset: 0, Length: 10}, {LogicalOffset: 5, Length: 10}}, 20},
		{"zero-length", []Extent{{LogicalOffset: 0, Length: 0}}, 10},
		{"negative-length", []Extent{{LogicalOffset: 0, Length: -4}}, 10},
		{"hole-marker", []Extent{{LogicalOffset: 0, Length: 4, Hole: true}}, 4},
		{"size-below-data", []Extent{{LogicalOffset: 0, Length: 10}}, 5},
		{"negative-size", nil, -1},
	} {
		if _, err := FromExtents(bad.ext, bad.size); err == nil {
			t.Errorf("FromExtents accepted %s table", bad.name)
		}
	}
}

// TestMergeStreamsMatchesBuild proves the memory-bounded k-way streaming
// merge resolves identically to the slurp-and-sort Build over real
// droppings, across chunk sizes that force many refills.
func TestMergeStreamsMatchesBuild(t *testing.T) {
	fs := newStreamFixture(t, 6, 500)
	var all []Entry
	var paths []string
	for i := 0; i < 6; i++ {
		path := pathFor(i)
		paths = append(paths, path)
		es, err := ReadDropping(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, es...)
	}
	want := Build(all)
	var wantNewest uint64
	for _, e := range all {
		wantNewest = max(wantNewest, e.Timestamp)
	}

	for _, chunk := range []int{1, 7, 100, 0} {
		streams := make([]*DroppingStream, len(paths))
		for i, p := range paths {
			s, err := OpenDroppingStream(fs, p, chunk)
			if err != nil {
				t.Fatal(err)
			}
			streams[i] = s
			defer s.Close()
		}
		got, newest, err := MergeStreams(streams...)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if newest != wantNewest {
			t.Fatalf("chunk %d: newest timestamp %d, want %d", chunk, newest, wantNewest)
		}
		if got.Size() != want.Size() || got.NumExtents() != want.NumExtents() {
			t.Fatalf("chunk %d: size %d/%d extents %d/%d",
				chunk, got.Size(), want.Size(), got.NumExtents(), want.NumExtents())
		}
		sameExtents(t, "streamed", got.Extents(), want.Extents())
	}
}

// TestMergeStreamsRejectsUnsorted: a dropping whose timestamps go
// backwards cannot stream; the caller must get ErrUnsorted to trigger
// the slurp fallback (never a silently wrong merge).
func TestMergeStreamsRejectsUnsorted(t *testing.T) {
	fs := newStreamFixtureFS(t)
	if err := WriteDropping(fs, "/unsorted", []Entry{
		{LogicalOffset: 0, Length: 10, Timestamp: 5},
		{LogicalOffset: 10, Length: 10, Timestamp: 3},
	}); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDroppingStream(fs, "/unsorted", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := MergeStreams(s); err == nil {
		t.Fatal("unsorted dropping streamed without error")
	} else if !errorsIs(err, ErrUnsorted) {
		t.Fatalf("err = %v, want ErrUnsorted", err)
	}
}

// TestDroppingStreamTornTail: a stream over a dropping with a partial
// trailing record yields exactly the whole records.
func TestDroppingStreamTornTail(t *testing.T) {
	fs := newStreamFixtureFS(t)
	entries := []Entry{
		{LogicalOffset: 0, Length: 10, Timestamp: 1},
		{LogicalOffset: 10, Length: 10, PhysicalOffset: 10, Timestamp: 2},
	}
	if err := WriteDropping(fs, "/torn", entries); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Stat("/torn")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate("/torn", st.Size-EntrySize/2); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDroppingStream(fs, "/torn", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 whole record", s.Len())
	}
	e, ok, err := s.Next()
	if err != nil || !ok || e != entries[0] {
		t.Fatalf("Next = %+v, %v, %v", e, ok, err)
	}
	if _, ok, err := s.Next(); ok || err != nil {
		t.Fatalf("stream did not end cleanly: ok=%v err=%v", ok, err)
	}
}
