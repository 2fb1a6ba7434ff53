package plfs

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	idx "ldplfs/internal/plfs/index"
	"ldplfs/internal/posix"
)

// writeDropping writes entries as the index dropping at path.
func writeDropping(t *testing.T, fs posix.FS, path string, entries []idx.Entry) {
	t.Helper()
	if err := idx.WriteDropping(fs, path, entries); err != nil {
		t.Fatal(err)
	}
}

// listedState is a walk's view of the droppings at paths, each with
// the size a Stat of it reports.
func listedState(t *testing.T, fs posix.FS, paths []string) indexState {
	t.Helper()
	st := indexState{droppings: paths, stats: make([]posix.Stat, len(paths))}
	for i, path := range paths {
		var err error
		if st.stats[i], err = fs.Stat(path); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// overlappingEntries is dropping d's records: their timestamps tie with
// every other dropping's record for record (pid breaks the tie), and
// their extents overlap each other's, so that merge order shows.
func overlappingEntries(d, records int) []idx.Entry {
	es := make([]idx.Entry, records)
	for j := range es {
		es[j] = idx.Entry{
			LogicalOffset:  int64((j*7+d*3)%50) * 10,
			Length:         25,
			PhysicalOffset: int64(j) * 25,
			Timestamp:      uint64(j + 1),
			Pid:            uint32(d),
		}
	}
	return es
}

// TestBadRecordPositions enumerates where a bad record can sit in a
// streamed dropping — the first record, mid-chunk, a chunk boundary, the
// last chunk — for a record out of timestamp order and, separately, a
// record failing its checksum; the bad dropping sits at each position k
// of the dropping list, and the streams decode 1, 7 or the default
// number of records per chunk. Through merge and newestInDropping
// alike, an unsorted dropping must resolve by the slurp fallback to
// exactly Build's index and newest timestamp, wherever the stream meets
// it (its first read or a later chunk); a corrupt one must fail with the
// slurp's error text, which names the dropping and the record.
func TestBadRecordPositions(t *testing.T) {
	const droppings = 3
	for _, chunk := range []int{1, 7, idx.DefaultStreamChunk} {
		records := 2*chunk + 3
		positions := slices.Compact([]int{0, chunk / 2, chunk, records - 1})
		for _, kind := range []string{"unsorted", "corrupt"} {
			for _, pos := range positions {
				for k := 0; k < droppings; k++ {
					name := fmt.Sprintf("chunk=%d %s record %d in dropping %d", chunk, kind, pos, k)
					mem := posix.NewMemFS()
					paths := make([]string, droppings)
					var all []idx.Entry
					newest := make([]uint64, droppings)
					for d := range paths {
						paths[d] = fmt.Sprintf("/dropping.index.%d", d)
						es := overlappingEntries(d, records)
						if d == k && kind == "unsorted" {
							if pos == 0 {
								es[0].Timestamp = math.MaxUint32 // newer than all that follow
							} else {
								es[pos].Timestamp = 0 // older than the record before
							}
						}
						writeDropping(t, mem, paths[d], es)
						all = append(all, es...)
						for _, e := range es {
							newest[d] = max(newest[d], e.Timestamp)
						}
					}
					if kind == "corrupt" {
						corruptRecord(t, mem, paths[k], pos)
					}
					p := New(mem)
					p.streamChunk = chunk
					st := listedState(t, mem, paths)
					got, gotNewest, err := p.merge(st)

					if kind == "corrupt" {
						_, want := idx.ReadDropping(mem, paths[k])
						if want == nil {
							t.Fatalf("%s: the slurp accepted the corrupt record", name)
						}
						if err == nil || err.Error() != want.Error() {
							t.Fatalf("%s: merge = %v, want %v", name, err, want)
						}
						if _, err := p.newestInDropping(st, k); err == nil || err.Error() != want.Error() {
							t.Fatalf("%s: newestInDropping = %v, want %v", name, err, want)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: merge: %v", name, err)
					}
					want := idx.Build(all)
					if got.Size() != want.Size() || !slices.Equal(got.Extents(), want.Extents()) {
						t.Fatalf("%s: merged index differs from Build's", name)
					}
					if wantNewest := slices.Max(newest); gotNewest != wantNewest {
						t.Fatalf("%s: newest %d, want %d", name, gotNewest, wantNewest)
					}
					for d := range paths {
						if n, err := p.newestInDropping(st, d); err != nil || n != newest[d] {
							t.Fatalf("%s: newestInDropping(%d) = %d, %v; want %d", name, d, n, err, newest[d])
						}
					}
				}
			}
		}
	}
}

// corruptRecord flips a bit of record rec's checksum in the dropping at
// path.
func corruptRecord(t *testing.T, mem *posix.MemFS, path string, rec int) {
	t.Helper()
	fd, err := mem.Open(path, posix.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close(fd)
	at := int64(idx.DroppingHeaderSize + rec*idx.EntrySize + idx.EntrySize - 1)
	b := make([]byte, 1)
	if err := posix.ReadFull(mem, fd, b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := mem.Pwrite(fd, b, at); err != nil {
		t.Fatal(err)
	}
}

// allocated returns the fewest heap bytes fn allocated over three runs.
func allocated(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestMergeMemoryBound checks the streaming merge's memory bound (README,
// "The flattened global index") on cold_open_wide's shape, 160 droppings
// of 512 strided records: merge allocates at most one raw chunk per
// stream (records are decoded where they were read), what building the
// index allocates on its own, and a small fixed cost per stream — so a
// decoded chunk kept per stream beside its raw one (20 KiB each here)
// does not fit.
func TestMergeMemoryBound(t *testing.T) {
	const droppings, records, perStream = 160, 512, 2 << 10
	mem := posix.NewMemFS()
	paths := make([]string, droppings)
	var all []idx.Entry
	for w := range paths {
		paths[w] = fmt.Sprintf("/dropping.index.%d", w)
		es := make([]idx.Entry, records)
		for j := range es {
			es[j] = idx.Entry{
				LogicalOffset:  int64(j*droppings+w) * 64,
				Length:         64,
				PhysicalOffset: int64(j) * 64,
				Timestamp:      uint64(j*droppings + w + 1),
				Pid:            uint32(w),
			}
		}
		writeDropping(t, mem, paths[w], es)
		all = append(all, es...)
	}
	p := New(mem)
	// Build allocates the index plus one sorted copy of its input.
	index := allocated(func() { idx.Build(all) }) - uint64(len(all))*uint64(unsafe.Sizeof(idx.Entry{}))
	chunks := uint64(droppings * min(records, p.streamChunk) * idx.EntrySize)
	bound := chunks + index + droppings*perStream

	st := listedState(t, mem, paths)
	var err error
	got := allocated(func() { _, _, err = p.merge(st) })
	if err != nil {
		t.Fatal(err)
	}
	if got > bound {
		t.Fatalf("merge allocated %d B, over the bound %d B (chunks %d + index %d + %d per stream)",
			got, bound, chunks, index, perStream)
	}
	t.Logf("merge allocated %d B of the %d B bound (chunks %d, index %d)", got, bound, chunks, index)
}
