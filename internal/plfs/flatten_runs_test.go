package plfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	idx "ldplfs/internal/plfs/index"
	"ldplfs/internal/posix"
)

// shapeWrite is one write of a run-shape history.
type shapeWrite struct {
	pid uint32
	off int64
	n   int
}

// writeShape applies writes in order to a fresh container (each pid's
// last close flattens) and returns the bytes a reader must see.
func writeShape(t *testing.T, p *FS, path string, writes []shapeWrite) []byte {
	t.Helper()
	f, err := p.Open(path, posix.O_CREAT|posix.O_WRONLY, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	pids := map[uint32]bool{}
	for i, w := range writes {
		buf := bytes.Repeat([]byte{byte(i*7 + 1)}, w.n)
		if end := w.off + int64(w.n); end > int64(len(want)) {
			want = append(want, make([]byte, end-int64(len(want)))...)
		}
		copy(want[w.off:], buf)
		if _, err := f.Write(buf, w.off, w.pid); err != nil {
			t.Fatal(err)
		}
		pids[w.pid] = true
	}
	for pid := range pids {
		if err := f.Close(pid); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestFlattenedRunShapes is the two-read-path differential over the
// shapes the workloads write: each container is read cold through its
// flattened record (which must be trusted) and, the record dropped,
// through the streaming merge, and both must give the written bytes. The
// record's spelling — runs and singles — is pinned per shape; random
// overwrites fold into no run, and then the record is the version 1
// record of the same table plus the one extra count word.
func TestFlattenedRunShapes(t *testing.T) {
	var n1, evenOdd, stripes, appends, overlaid, random []shapeWrite
	for j := 0; j < 64; j++ { // N-1 strided: 8 writers, 4 KiB blocks
		for w := 0; w < 8; w++ {
			n1 = append(n1, shapeWrite{uint32(w), int64(j*8+w) * 4096, 4096})
		}
	}
	for pass := 0; pass < 2; pass++ { // one writer: even blocks, then odd
		for j := pass; j < 128; j += 2 {
			evenOdd = append(evenOdd, shapeWrite{3, int64(j) * 1024, 1024})
		}
	}
	for call := 0; call < 2; call++ { // 4 ranks, stripes each followed by a hole
		for k := 0; k < 16; k++ {
			for r := 0; r < 4; r++ {
				stripes = append(stripes, shapeWrite{uint32(r), int64(call*64+k*4+r) * 2 * 4096, 4096})
			}
		}
	}
	for j := 0; j < 8; j++ { // 1 MiB sequential appends
		appends = append(appends, shapeWrite{1, int64(j) << 20, 1 << 20})
	}
	for j := 0; j < 16; j++ { // appends, then block 8 rewritten by another writer
		overlaid = append(overlaid, shapeWrite{0, int64(j) * 4096, 4096})
	}
	overlaid = append(overlaid, shapeWrite{5, 8 * 4096, 4096})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ { // random overwrites of random lengths
		random = append(random, shapeWrite{uint32(rng.Intn(4)), int64(rng.Intn(1 << 18)), 1 + rng.Intn(4096)})
	}

	for _, c := range []struct {
		name          string
		writes        []shapeWrite
		runs, singles int
	}{
		{"n-1 strided", n1, 8, 0},
		{"even then odd", evenOdd, 2, 0},
		{"stripes with holes", stripes, 4, 0},
		{"sequential appends", appends, 1, 0},
		{"run overlaid mid-way", overlaid, 2, 1},
		{"random overwrites", random, 0, -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, mem := newTestFS(t)
			const path = "/backend/shape"
			want := writeShape(t, p, path, c.writes)

			trusted := New(mem)
			if got := readAllBytes(t, trusted, path); !bytes.Equal(got, want) {
				t.Fatal("read through the flattened record diverged")
			}
			if s := cacheStats(trusted); s.FlattenedBuilds != 1 {
				t.Fatalf("flattened record not trusted: %+v", s)
			}
			h, err := trusted.IndexHealth(path)
			if err != nil || h.Flattened == nil || !h.Flattened.Fresh {
				t.Fatalf("health = %+v, %v", h, err)
			}
			fl := h.Flattened
			singles := c.singles
			if singles < 0 {
				singles = fl.Extents
			}
			if fl.Version != idx.FlattenedVersion || fl.Runs != c.runs || fl.Singles != singles {
				t.Fatalf("record v%d spells %d extents as %d runs and %d singles, want v%d, %d and %d",
					fl.Version, fl.Extents, fl.Runs, fl.Singles, idx.FlattenedVersion, c.runs, singles)
			}
			if c.runs == 0 {
				checkV1Bytes(t, trusted, mem, path)
			}

			if n, err := p.DropFlattenedIndex(path); err != nil || n != 1 {
				t.Fatalf("drop = %d, %v", n, err)
			}
			merged := New(mem)
			if got := readAllBytes(t, merged, path); !bytes.Equal(got, want) {
				t.Fatal("read through the streaming merge diverged")
			}
			if s := cacheStats(merged); s.FlattenedBuilds != 0 {
				t.Fatalf("dropped record still served: %+v", s)
			}
		})
	}
}

// checkV1Bytes fails unless the container's record, a table of singles
// only, is the version 1 record of that table plus one count word: the
// same header fields, and singles byte-identical to v1's extents.
func checkV1Bytes(t *testing.T, p *FS, mem posix.FS, path string) {
	t.Helper()
	got := readFile(t, mem, flattenedPath(path, 1))
	index, err := p.MergedIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	ext := index.Extents()
	v1 := make([]byte, 48, 48+32*len(ext)+8)
	copy(v1, got[:40])
	binary.LittleEndian.PutUint64(v1[8:], 1)
	binary.LittleEndian.PutUint64(v1[40:], uint64(len(ext)))
	for _, x := range ext {
		v1 = binary.LittleEndian.AppendUint64(v1, uint64(x.LogicalOffset))
		v1 = binary.LittleEndian.AppendUint64(v1, uint64(x.Length))
		v1 = binary.LittleEndian.AppendUint64(v1, uint64(x.PhysicalOffset))
		v1 = binary.LittleEndian.AppendUint32(v1, x.Pid)
		v1 = binary.LittleEndian.AppendUint32(v1, x.Dropping)
	}
	h := fnv.New64a()
	h.Write(v1)
	v1 = binary.LittleEndian.AppendUint64(v1, h.Sum64())
	if len(got) != len(v1)+8 || !bytes.Equal(got[16:40], v1[16:40]) || !bytes.Equal(got[56:len(got)-8], v1[48:len(v1)-8]) {
		t.Fatalf("all-singles record (%d bytes) is not v1's (%d bytes) plus one count word", len(got), len(v1))
	}
	if fl, err := idx.UnmarshalFlattened(v1, int64(len(ext))); err != nil || fl.Version != 1 {
		t.Fatalf("the v1 twin does not parse: %v", err)
	}
}

func readFile(t *testing.T, fs posix.FS, path string) []byte {
	t.Helper()
	st, err := fs.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := fs.Open(path, posix.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close(fd)
	buf := make([]byte, st.Size)
	if err := posix.ReadFull(fs, fd, buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// A cold read's own allocations vary from run to run by about 150 KB
// (the read path's pooled buffers), so a read beside a forged record is
// held to those of a read with no record plus forgedSlack: far below
// what a record the bound did not stop would cost.
const forgedSlack = 1 << 20

// forgedReadAllocs reads container path cold with whatever record sits
// in its root and returns the bytes allocated; the read must give want
// through the streaming merge (the record untrusted).
func forgedReadAllocs(t *testing.T, mem posix.FS, path string, want []byte) uint64 {
	t.Helper()
	return allocated(func() {
		cold := New(mem)
		if got := readAllBytes(t, cold, path); !bytes.Equal(got, want) {
			t.Fatal("read beside a forged record diverged")
		}
		if s := cacheStats(cold); s.FlattenedBuilds != 0 {
			t.Fatalf("forged record trusted: %+v", s)
		}
	})
}

// TestForgedRecordClaimsHugeTable: a record with the right generation,
// raw signature and checksum — one a reader would otherwise trust — that
// claims 2^40 extents in one run is refused by the bound its droppings
// allow before anything is allocated for the table: the read goes
// through the merge and allocates no more than with no record at all.
func TestForgedRecordClaimsHugeTable(t *testing.T) {
	p, mem := newTestFS(t)
	const path = "/backend/forged"
	want := writeN1(t, p, path, 8, 64, 512)
	if _, err := p.DropFlattenedIndex(path); err != nil {
		t.Fatal(err)
	}
	base := forgedReadAllocs(t, mem, path, want)

	st, err := p.listIndexState(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, idx.FlattenedHeaderSize+idx.FlattenedRunSize+8)
	binary.LittleEndian.PutUint64(rec[0:], idx.FlattenedMagic)
	binary.LittleEndian.PutUint64(rec[8:], idx.FlattenedVersion)
	binary.LittleEndian.PutUint64(rec[16:], 1)
	binary.LittleEndian.PutUint64(rec[24:], st.rawSignature(path))
	binary.LittleEndian.PutUint64(rec[32:], 1<<40)
	binary.LittleEndian.PutUint64(rec[40:], 1)   // runs
	r := rec[idx.FlattenedHeaderSize:]           // logical 0, physical 0
	binary.LittleEndian.PutUint64(r[8:], 1)      // length
	binary.LittleEndian.PutUint64(r[24:], 1)     // stride
	binary.LittleEndian.PutUint64(r[32:], 1<<40) // count
	h := fnv.New64a()
	h.Write(rec[:len(rec)-8])
	binary.LittleEndian.PutUint64(rec[len(rec)-8:], h.Sum64())
	writeFileBytes(t, mem, flattenedPath(path, 1), rec)

	got := forgedReadAllocs(t, mem, path, want)
	if got > base+forgedSlack {
		t.Fatalf("read beside a record claiming 2^40 extents allocated %d B, %d B with no record", got, base)
	}
	hh, err := p.IndexHealth(path)
	if err != nil || hh.Flattened == nil || hh.Flattened.Err == nil {
		t.Fatalf("health = %+v, %v: the forged record should read as damaged", hh.Flattened, err)
	}
}

// TestJunkRecordNotRead: a 64 MiB file named as the newest flattened
// record is refused by its length alone — larger than any record the
// droppings beside it can need — so neither a read nor the health check
// reads it into memory.
func TestJunkRecordNotRead(t *testing.T) {
	p, mem := newTestFS(t)
	const path = "/backend/junk"
	want := writeN1(t, p, path, 4, 32, 512)
	if _, err := p.DropFlattenedIndex(path); err != nil {
		t.Fatal(err)
	}
	base := forgedReadAllocs(t, mem, path, want)

	writeFileBytes(t, mem, flattenedPath(path, 9), bytes.Repeat([]byte{0xa5}, 64<<20))
	got := forgedReadAllocs(t, mem, path, want)
	if got > base+forgedSlack {
		t.Fatalf("read beside a 64 MiB junk record allocated %d B, %d B with no record", got, base)
	}
	var hh IndexHealth
	var err error
	if health := allocated(func() { hh, err = p.IndexHealth(path) }); health > 1<<20 {
		t.Fatalf("health check beside a 64 MiB junk record allocated %d B", health)
	}
	if err != nil || hh.Flattened == nil || hh.Flattened.Generation != 9 || hh.Flattened.Err == nil {
		t.Fatalf("health = %+v, %v: the junk record should read as damaged", hh.Flattened, err)
	}
}

func writeFileBytes(t *testing.T, fs posix.FS, path string, data []byte) {
	t.Helper()
	fd, err := fs.Open(path, posix.O_CREAT|posix.O_WRONLY|posix.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close(fd)
	if _, err := posix.WriteFull(fs, fd, data, 0); err != nil {
		t.Fatal(fmt.Errorf("write %s: %w", path, err))
	}
}
