package index

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ldplfs/internal/posix"
)

// droppingBytes materialises a valid on-disk dropping holding entries —
// the fuzz corpora are seeded from real droppings, not hand-rolled hex.
func droppingBytes(tb testing.TB, entries []Entry) []byte {
	tb.Helper()
	mem := posix.NewMemFS()
	if err := WriteDropping(mem, "/seed", entries); err != nil {
		tb.Fatal(err)
	}
	fd, err := mem.Open("/seed", posix.O_RDONLY, 0)
	if err != nil {
		tb.Fatal(err)
	}
	defer mem.Close(fd)
	st, err := mem.Fstat(fd)
	if err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, st.Size)
	if err := posix.ReadFull(mem, fd, buf, 0); err != nil {
		tb.Fatal(err)
	}
	return buf
}

func seedEntries() []Entry {
	return []Entry{
		{LogicalOffset: 0, Length: 4096, PhysicalOffset: 0, Timestamp: 1, Pid: 0},
		{LogicalOffset: 4096, Length: 512, PhysicalOffset: 4096, Timestamp: 2, Pid: 3, Dropping: 1},
		{LogicalOffset: 100, Length: 50, PhysicalOffset: 4608, Timestamp: 3, Pid: 3},
	}
}

// FuzzDroppingParse throws arbitrary bytes at the index-dropping parser
// and checks the format's invariants on everything it accepts:
//
//   - no panic, ever, on any input (torn tails, bad magic, short
//     headers, corrupt checksums must all fail or truncate cleanly);
//   - accepted droppings round-trip: re-writing the parsed entries and
//     re-parsing yields the same entries;
//   - a torn tail (any partial record appended) parses to exactly the
//     same whole records — the write engine's in-flight-flush guarantee;
//   - accepted droppings can be reopened for append (the crashed-writer
//     resume path) and the appended record is then visible.
func FuzzDroppingParse(f *testing.F) {
	f.Add(droppingBytes(f, nil))
	f.Add(droppingBytes(f, seedEntries()))
	// Torn tail: a valid dropping plus half a record.
	valid := droppingBytes(f, seedEntries())
	f.Add(valid[:len(valid)-EntrySize/2])
	// Corrupt checksum in the last record.
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)
	// Bad magic, short header, empty file.
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xff
	f.Add(bad)
	f.Add(valid[:headerSize-3])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		mem := posix.NewMemFS()
		writeFile(t, mem, "/d", data)
		entries, err := ReadDropping(mem, "/d")
		if err != nil {
			return // rejected cleanly — all we ask of arbitrary bytes
		}

		// Round-trip through the writer.
		if err := WriteDropping(mem, "/rt", entries); err != nil {
			t.Fatalf("rewriting accepted entries: %v", err)
		}
		again, err := ReadDropping(mem, "/rt")
		if err != nil {
			t.Fatalf("reparsing rewritten dropping: %v", err)
		}
		if !sameEntries(entries, again) {
			t.Fatalf("round-trip changed entries:\n%v\n%v", entries, again)
		}

		// Torn-tail tolerance: appending any partial record must not
		// change what parses.
		tear := len(data) % EntrySize
		if tear == 0 {
			tear = EntrySize / 2
		}
		torn := append(append([]byte(nil), data...), data[:min(tear, len(data))]...)
		writeFile(t, mem, "/torn", torn)
		if tornEntries, err := ReadDropping(mem, "/torn"); err == nil {
			if !sameEntries(entries, tornEntries[:min(len(entries), len(tornEntries))]) {
				t.Fatalf("torn tail changed the parsed prefix")
			}
		}

		// Reopen-for-append: the crashed-writer resume path.
		w, err := OpenWriter(mem, "/d")
		if err != nil {
			t.Fatalf("reopening accepted dropping: %v", err)
		}
		extra := Entry{LogicalOffset: 7, Length: 9, PhysicalOffset: 11, Timestamp: 13, Pid: 17}
		w.Append(extra)
		if err := w.Close(); err != nil {
			t.Fatalf("appending to accepted dropping: %v", err)
		}
		resumed, err := ReadDropping(mem, "/d")
		if err != nil {
			t.Fatalf("reparsing resumed dropping: %v", err)
		}
		if len(resumed) != len(entries)+1 || resumed[len(resumed)-1] != extra {
			t.Fatalf("resume lost records: had %d, now %v", len(entries), resumed)
		}
	})
}

// modelByte is the differential oracle's view of one logical byte: which
// writer produced it and where in that writer's dropping it lives.
type modelByte struct {
	pid      uint32
	dropping uint32
	phys     int64
}

// FuzzIndexMerge decodes arbitrary bytes into a write history and
// merges it — through Build, and through MergeStreams over the history
// split into per-pid, timestamp-sorted droppings streamed a fuzzed
// number of records at a time, opened with an Fstat and from their
// listed sizes — checking each result against a
// byte-granular replay oracle: every logical byte must resolve to
// exactly the write the last-writer-wins rule says, holes exactly where
// nothing wrote, size exactly the high-water mark — plus structural
// invariants (sorted, non-overlapping, gap-free coverage) and Truncate
// consistency. The resolved table also goes through the flattened record
// — marshal, parse, expand — and must come back as the oracle's.
func FuzzIndexMerge(f *testing.F) {
	for _, seed := range indexMergeSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		entries := writeHistory(data)

		// Oracle: replay byte-by-byte in Build's resolution order.
		model := map[int64]modelByte{}
		ordered := append([]Entry(nil), entries...)
		for i := 1; i < len(ordered); i++ {
			for j := i; j > 0; j-- {
				a, b := ordered[j-1], ordered[j]
				if b.Timestamp < a.Timestamp ||
					(b.Timestamp == a.Timestamp && b.Pid < a.Pid) ||
					(b.Timestamp == a.Timestamp && b.Pid == a.Pid && b.Dropping < a.Dropping) {
					ordered[j-1], ordered[j] = b, a
				} else {
					break
				}
			}
		}
		var wantSize int64
		var newest uint64
		for _, e := range ordered {
			for b := int64(0); b < e.Length; b++ {
				model[e.LogicalOffset+b] = modelByte{e.Pid, e.Dropping, e.PhysicalOffset + b}
			}
			if end := e.LogicalOffset + e.Length; end > wantSize {
				wantSize = end
			}
			newest = max(newest, e.Timestamp)
		}

		checkOracle(t, "Build", Build(entries), model, wantSize)

		// The streaming merge: each pid's writes split several ways into
		// droppings, each dropping sorted as a writer's clock sorts it
		// (Dropping breaks timestamp ties as Build does), opened from its
		// listed size and streamed chunk records at a time. Both split
		// and chunk come from the first byte.
		mem := posix.NewMemFS()
		paths, chunk := writeHistoryDroppings(t, mem, data, entries)
		var streams []*DroppingStream
		for _, path := range paths {
			s, err := OpenDroppingStream(mem, path, listedSize(t, mem, path), chunk)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			streams = append(streams, s)
		}
		merged, gotNewest, err := MergeStreams(streams...)
		if err != nil {
			t.Fatalf("MergeStreams over %d droppings, chunk %d: %v", len(streams), chunk, err)
		}
		if gotNewest != newest {
			t.Fatalf("MergeStreams newest timestamp %d, oracle %d", gotNewest, newest)
		}
		checkOracle(t, fmt.Sprintf("MergeStreams (%d droppings, chunk %d)", len(streams), chunk), merged, model, wantSize)

		// The flattened record: the resolved table marshalled, parsed and
		// expanded again must still be the oracle's.
		rec := MarshalFlattened(&Flattened{Generation: 1, Index: Build(entries)})
		fl, err := UnmarshalFlattened(rec, FlattenedBound(int64(len(entries))))
		if err != nil {
			t.Fatalf("flattened record of the resolved table rejected: %v", err)
		}
		checkOracle(t, "flattened record", fl.Index, model, wantSize)
	})
}

// indexMergeSeeds is FuzzIndexMerge's seed corpus.
func indexMergeSeeds() [][]byte {
	seed := make([]byte, 0, 64)
	for i := 0; i < 12; i++ {
		seed = append(seed, byte(i*37), byte(i*11), byte(i), byte(255-i), byte(i*3))
	}
	return [][]byte{
		{},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		// Overlap-heavy seed: same region rewritten with colliding timestamps.
		bytes.Repeat([]byte{0x40, 0x01, 0x20, 0x02, 0x00}, 12),
		seed,
	}
}

// writeHistory decodes fuzz bytes into a write history of at most 64
// records.
func writeHistory(data []byte) []Entry {
	const maxEntries = 64
	var entries []Entry
	for i := 0; i+5 <= len(data) && len(entries) < maxEntries; i += 5 {
		// 5 bytes per write: offset (12 bits), length (6 bits, 1-64),
		// timestamp (8 bits, collisions welcome), pid (2 bits).
		off := int64(binary.LittleEndian.Uint16(data[i:])) & 0xfff
		length := int64(data[i+2]&0x3f) + 1
		ts := uint64(data[i+3])
		pid := uint32(data[i+4] & 0x3)
		entries = append(entries, Entry{
			LogicalOffset:  off,
			Length:         length,
			PhysicalOffset: int64(i) * 100,
			Timestamp:      ts,
			// Unique Dropping id per entry keeps the resolution order
			// fully deterministic while still exercising the
			// timestamp and pid tiebreaks.
			Dropping: uint32(len(entries)),
			Pid:      pid,
		})
	}
	return entries
}

// writeHistoryDroppings writes entries as droppings on fs: each pid's
// writes split several ways, each dropping sorted as a writer's clock
// sorts it (Dropping breaks timestamp ties as Build does). Both the
// split and the records per stream chunk come from data's first byte.
// It returns the non-empty droppings' paths and the chunk.
func writeHistoryDroppings(tb testing.TB, fs posix.FS, data []byte, entries []Entry) ([]string, int) {
	tb.Helper()
	split, chunk := 1, 1
	if len(data) > 0 {
		split, chunk = 1+int(data[0]>>5), 1+int(data[0]&0x1f)
	}
	byDropping := make([][]Entry, 4*split)
	for i, e := range entries {
		d := int(e.Pid)*split + i%split
		byDropping[d] = append(byDropping[d], e)
	}
	var paths []string
	for d, es := range byDropping {
		if len(es) == 0 {
			continue
		}
		slices.SortFunc(es, func(a, b Entry) int {
			return cmp.Or(cmp.Compare(a.Timestamp, b.Timestamp), cmp.Compare(a.Dropping, b.Dropping))
		})
		path := fmt.Sprintf("/d%d", d)
		if err := WriteDropping(fs, path, es); err != nil {
			tb.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths, chunk
}

// checkOracle checks idx, built by the named merge, against the
// byte-replay oracle model and its size, then truncates idx to half and
// checks that too.
func checkOracle(t *testing.T, name string, idx *Index, model map[int64]modelByte, wantSize int64) {
	t.Helper()
	if idx.Size() != wantSize {
		t.Fatalf("%s: Size = %d, oracle %d", name, idx.Size(), wantSize)
	}
	if wantSize == 0 {
		return
	}
	extents := idx.Query(0, wantSize)
	var cur int64
	for _, x := range extents {
		if x.LogicalOffset != cur {
			t.Fatalf("%s: coverage gap: extent at %d, expected %d", name, x.LogicalOffset, cur)
		}
		if x.Length <= 0 {
			t.Fatalf("%s: non-positive extent length: %+v", name, x)
		}
		for b := int64(0); b < x.Length; b++ {
			m, written := model[x.LogicalOffset+b]
			if x.Hole {
				if written {
					t.Fatalf("%s: byte %d resolved as hole but oracle has %+v", name, x.LogicalOffset+b, m)
				}
				continue
			}
			if !written {
				t.Fatalf("%s: byte %d resolved to pid %d but oracle has a hole", name, x.LogicalOffset+b, x.Pid)
			}
			if m.pid != x.Pid || m.dropping != x.Dropping || m.phys != x.PhysicalOffset+b {
				t.Fatalf("%s: byte %d resolved to (pid %d, dropping %d, phys %d), oracle (pid %d, dropping %d, phys %d)",
					name, x.LogicalOffset+b, x.Pid, x.Dropping, x.PhysicalOffset+b, m.pid, m.dropping, m.phys)
			}
		}
		cur += x.Length
	}
	if cur != wantSize {
		t.Fatalf("%s: extents cover %d bytes, want %d", name, cur, wantSize)
	}

	// Truncate agrees with a truncated oracle.
	tsize := wantSize / 2
	idx.Truncate(tsize)
	if idx.Size() != tsize {
		t.Fatalf("%s: post-truncate Size = %d, want %d", name, idx.Size(), tsize)
	}
	for _, x := range idx.Extents() {
		if x.LogicalOffset+x.Length > tsize {
			t.Fatalf("%s: extent %+v beyond truncation %d", name, x, tsize)
		}
	}
}

func writeFile(tb testing.TB, fs posix.FS, path string, data []byte) {
	tb.Helper()
	fd, err := fs.Open(path, posix.O_CREAT|posix.O_WRONLY|posix.O_TRUNC, 0o644)
	if err != nil {
		tb.Fatal(err)
	}
	defer fs.Close(fd)
	if len(data) > 0 {
		if _, err := posix.WriteFull(fs, fd, data, 0); err != nil {
			tb.Fatal(err)
		}
	}
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || reflect.DeepEqual(a, b)
}
