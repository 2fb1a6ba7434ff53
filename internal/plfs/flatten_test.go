package plfs

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"ldplfs/internal/iostats"
	idx "ldplfs/internal/plfs/index"
	"ldplfs/internal/posix"
)

// readAllBytes reads the container's full logical contents through a
// fresh pid.
func readAllBytes(t *testing.T, p *FS, path string) []byte {
	t.Helper()
	f, err := p.Open(path, posix.O_RDONLY, 7777, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(7777)
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if n, err := f.Read(buf, 0); err != nil || int64(n) != size {
		t.Fatalf("read %s = %d, %v (size %d)", path, n, err, size)
	}
	return buf
}

// copyTree duplicates a subtree between posix stores.
func copyTree(t *testing.T, from, to posix.FS, path string) {
	t.Helper()
	if err := to.Mkdir(path, 0o755); err != nil && err != posix.EEXIST {
		t.Fatal(err)
	}
	entries, err := from.Readdir(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		child := path + "/" + e.Name
		if e.IsDir {
			copyTree(t, from, to, child)
			continue
		}
		st, err := from.Stat(child)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, st.Size)
		fd, err := from.Open(child, posix.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size > 0 {
			if err := posix.ReadFull(from, fd, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		from.Close(fd)
		wfd, err := to.Open(child, posix.O_CREAT|posix.O_WRONLY|posix.O_TRUNC, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) > 0 {
			if _, err := posix.WriteFull(to, wfd, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		to.Close(wfd)
	}
}

// flattenedNames lists the flattened record files in the container root.
func flattenedNames(t *testing.T, p *FS, path string) []string {
	t.Helper()
	entries, err := p.backend.Readdir(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir && strings.HasPrefix(e.Name, flattenedPrefix) {
			out = append(out, e.Name)
		}
	}
	return out
}

// stageStale writes data at off as pid through q and leaves container
// path's one flattened record behind that write, stale: it saves the
// record, writes and closes (the close publishes the next generation),
// drops what the close published and writes the saved bytes back under
// their old name.
func stageStale(t *testing.T, q *FS, path string, pid uint32, data []byte, off int64) {
	t.Helper()
	names := flattenedNames(t, q, path)
	if len(names) != 1 {
		t.Fatalf("stale staging: records = %v, want one", names)
	}
	rec := path + "/" + names[0]
	saved := readFile(t, q.backend, rec)
	f, err := q.Open(path, posix.O_WRONLY, pid, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data, off, pid); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(pid); err != nil {
		t.Fatal(err)
	}
	if _, err := q.DropFlattenedIndex(path); err != nil {
		t.Fatal(err)
	}
	writeFileBytes(t, q.backend, rec, saved)
}

func TestAutoFlattenOnLastWriterClose(t *testing.T) {
	p, _ := newTestFS(t)
	want := writeN1(t, p, "/backend/af", 6, 8, 128)

	// The clean close of the last writer persisted a generation-1 record.
	names := flattenedNames(t, p, "/backend/af")
	if len(names) != 1 || names[0] != "index.flattened.1" {
		t.Fatalf("flattened records after close = %v, want [index.flattened.1]", names)
	}
	h, err := p.IndexHealth("/backend/af")
	if err != nil {
		t.Fatal(err)
	}
	if h.Flattened == nil || !h.Flattened.Fresh || h.Flattened.Generation != 1 {
		t.Fatalf("health = %+v, want fresh gen-1 flattened", h)
	}
	if h.IndexDroppings != 6 || h.RawEntries != 48 {
		t.Fatalf("health raw side = %+v, want 6 droppings / 48 entries", h)
	}

	// A cold instance over the same backend serves the first build from
	// the flattened record — and reads the same bytes.
	cold := New(p.backend)
	if got := readAllBytes(t, cold, "/backend/af"); !bytes.Equal(got, want) {
		t.Fatal("flattened-backed read diverged")
	}
	if s := cacheStats(cold); s.Builds != 1 || s.FlattenedBuilds != 1 {
		t.Fatalf("cold stats = %+v, want the one build to load the flattened record", s)
	}
}

func TestFlattenedStaleAfterNewWrites(t *testing.T) {
	p, _ := newTestFS(t)
	writeN1(t, p, "/backend/stale", 4, 4, 64)

	// A later writer appends more data, and the gen-1 record stays
	// behind it, now stale.
	later := New(p.backend)
	tail := []byte("fresh bytes the flattened record knows nothing about")
	stageStale(t, later, "/backend/stale", 9, tail, 4*4*64)
	if names := flattenedNames(t, p, "/backend/stale"); len(names) != 1 {
		t.Fatalf("stale staging: records = %v, want the old gen-1 only", names)
	}

	// A cold reader must detect the mismatch, ignore the record, and see
	// the new bytes via the streaming merge.
	cold := New(p.backend)
	got := readAllBytes(t, cold, "/backend/stale")
	if int64(len(got)) != 4*4*64+int64(len(tail)) {
		t.Fatalf("size over stale record = %d", len(got))
	}
	if !bytes.Equal(got[4*4*64:], tail) {
		t.Fatal("stale flattened record served old bytes")
	}
	if s := cacheStats(cold); s.FlattenedBuilds != 0 {
		t.Fatalf("stats = %+v: stale record was trusted", s)
	}
	if h, err := cold.IndexHealth("/backend/stale"); err != nil || h.Flattened == nil || h.Flattened.Fresh {
		t.Fatalf("health = %+v, %v: stale record reported fresh", h, err)
	}
}

func TestCorruptFlattenedFallsBackSilently(t *testing.T) {
	p, mem := newTestFS(t)
	want := writeN1(t, p, "/backend/corrupt", 4, 4, 64)

	// Flip a byte inside the extent table.
	fd, err := mem.Open("/backend/corrupt/index.flattened.1", posix.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Pwrite(fd, []byte{0xff}, idx.FlattenedHeaderSize+9); err != nil {
		t.Fatal(err)
	}
	mem.Close(fd)

	cold := New(mem)
	if got := readAllBytes(t, cold, "/backend/corrupt"); !bytes.Equal(got, want) {
		t.Fatal("corrupt flattened record corrupted reads")
	}
	if s := cacheStats(cold); s.FlattenedBuilds != 0 {
		t.Fatal("corrupt record was trusted")
	}
	// Truncate the record to a torn tail: same story.
	st, _ := mem.Stat("/backend/corrupt/index.flattened.1")
	if err := mem.Truncate("/backend/corrupt/index.flattened.1", st.Size-11); err != nil {
		t.Fatal(err)
	}
	cold2 := New(mem)
	if got := readAllBytes(t, cold2, "/backend/corrupt"); !bytes.Equal(got, want) {
		t.Fatal("torn flattened record corrupted reads")
	}
}

func TestFlattenedDistrustedWhileWriterLive(t *testing.T) {
	p, _ := newTestFS(t)
	writeN1(t, p, "/backend/live-w", 2, 2, 64)

	// Reopen a writer but do not write: dropping sizes are unchanged, so
	// only the openhosts check can (and must) demote the record.
	g, err := p.Open("/backend/live-w", posix.O_WRONLY, 3, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("x"), 0, 3); err != nil { // materialise the writer
		t.Fatal(err)
	}
	if err := g.Sync(3); err != nil {
		t.Fatal(err)
	}

	cold := New(p.backend)
	readAllBytes(t, cold, "/backend/live-w")
	if s := cacheStats(cold); s.FlattenedBuilds != 0 {
		t.Fatal("flattened record trusted while a writer is live")
	}
	g.Close(3)
}

// TestFlattenedReadMatchesMerge is the two-read-path differential: the
// same container read cold through its flattened record and, once the
// record is dropped, through the streaming merge over raw droppings.
func TestFlattenedReadMatchesMerge(t *testing.T) {
	p, _ := newTestFS(t)
	const path = "/backend/two-paths"
	want := writeN1(t, p, path, 4, 4, 64)

	withRecord := New(p.backend)
	if got := readAllBytes(t, withRecord, path); !bytes.Equal(got, want) {
		t.Fatal("flattened-path read diverged")
	}
	if s := cacheStats(withRecord); s.Builds != 1 || s.FlattenedBuilds != 1 {
		t.Fatalf("stats with the record = %+v", s)
	}

	if n, err := p.DropFlattenedIndex(path); err != nil || n != 1 {
		t.Fatalf("drop = %d, %v; want 1", n, err)
	}
	dropped := New(p.backend)
	if got := readAllBytes(t, dropped, path); !bytes.Equal(got, want) {
		t.Fatal("merge-path read diverged")
	}
	if s := cacheStats(dropped); s.Builds != 1 || s.FlattenedBuilds != 0 {
		t.Fatalf("stats with the record dropped = %+v", s)
	}
}

func TestWriteFlattenedIndexRefusesActiveWriters(t *testing.T) {
	p, _ := newTestFS(t)
	f, err := p.Open("/backend/busy-flat", posix.O_CREAT|posix.O_WRONLY, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x"), 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.WriteFlattenedIndex("/backend/busy-flat"); err == nil {
		t.Fatal("flatten allowed with active writer")
	}
	f.Close(1)
	info, err := p.WriteFlattenedIndex("/backend/busy-flat")
	if err != nil {
		t.Fatal(err)
	}
	// Auto-flatten at close wrote gen 1; the explicit flatten supersedes
	// it and retires the old generation.
	if info.Generation != 2 || !info.Fresh {
		t.Fatalf("explicit flatten info = %+v", info)
	}
	if names := flattenedNames(t, p, "/backend/busy-flat"); len(names) != 1 || names[0] != "index.flattened.2" {
		t.Fatalf("records = %v, want only gen 2", names)
	}
	if _, err := p.WriteFlattenedIndex("/backend/missing"); err == nil {
		t.Fatal("flatten of missing container succeeded")
	}
}

func TestDropFlattenedIndex(t *testing.T) {
	p, _ := newTestFS(t)
	want := writeN1(t, p, "/backend/dropf", 4, 2, 64)
	if n, err := p.DropFlattenedIndex("/backend/dropf"); err != nil || n != 1 {
		t.Fatalf("drop = %d, %v; want 1", n, err)
	}
	if names := flattenedNames(t, p, "/backend/dropf"); len(names) != 0 {
		t.Fatalf("records after drop = %v", names)
	}
	cold := New(p.backend)
	if got := readAllBytes(t, cold, "/backend/dropf"); !bytes.Equal(got, want) {
		t.Fatal("read after drop diverged")
	}
	if s := cacheStats(cold); s.FlattenedBuilds != 0 {
		t.Fatal("dropped record still served a build")
	}
	if n, err := p.DropFlattenedIndex("/backend/dropf"); err != nil || n != 0 {
		t.Fatalf("second drop = %d, %v", n, err)
	}
}

func TestTruncateRetiresFlattenedRecords(t *testing.T) {
	p, _ := newTestFS(t)
	writeN1(t, p, "/backend/trf", 4, 4, 64)
	if err := p.Truncate("/backend/trf", 300); err != nil {
		t.Fatal(err)
	}
	if names := flattenedNames(t, p, "/backend/trf"); len(names) != 0 {
		t.Fatalf("partial truncate left flattened records: %v", names)
	}
	got := readAllBytes(t, p, "/backend/trf")
	if len(got) != 300 {
		t.Fatalf("size after truncate = %d", len(got))
	}
	if err := p.Truncate("/backend/trf", 0); err != nil {
		t.Fatal(err)
	}
	if names := flattenedNames(t, p, "/backend/trf"); len(names) != 0 {
		t.Fatalf("trunc-0 left flattened records: %v", names)
	}
}

func TestCompactIndexRefreshesFlattened(t *testing.T) {
	p, _ := newTestFS(t)
	want := writeN1(t, p, "/backend/cflat", 6, 4, 64)
	if err := p.CompactIndex("/backend/cflat"); err != nil {
		t.Fatal(err)
	}
	h, err := p.IndexHealth("/backend/cflat")
	if err != nil {
		t.Fatal(err)
	}
	if h.IndexDroppings != 1 {
		t.Fatalf("droppings after compact = %d", h.IndexDroppings)
	}
	if h.Flattened == nil || !h.Flattened.Fresh || h.Flattened.Generation < 2 {
		t.Fatalf("flattened after compact = %+v, want a fresh refreshed record", h.Flattened)
	}
	cold := New(p.backend)
	if got := readAllBytes(t, cold, "/backend/cflat"); !bytes.Equal(got, want) {
		t.Fatal("read after compact+flatten diverged")
	}
	if s := cacheStats(cold); s.FlattenedBuilds != 1 {
		t.Fatalf("cold stats after compact = %+v", s)
	}
}

func TestFlattenedSurvivesRename(t *testing.T) {
	// The raw signature is container-relative: renaming a container must
	// not demote its flattened record.
	p, _ := newTestFS(t)
	want := writeN1(t, p, "/backend/mv-a", 4, 4, 64)
	if err := p.Rename("/backend/mv-a", "/backend/mv-b"); err != nil {
		t.Fatal(err)
	}
	cold := New(p.backend)
	if got := readAllBytes(t, cold, "/backend/mv-b"); !bytes.Equal(got, want) {
		t.Fatal("read after rename diverged")
	}
	if s := cacheStats(cold); s.FlattenedBuilds != 1 {
		t.Fatalf("flattened record not trusted after rename: %+v", s)
	}
}

func TestStripedFlattenedPlacement(t *testing.T) {
	// The flattened record is canonical metadata: it must live on backend
	// 0 only, while the droppings it summarises spread across all three.
	p, mems := newStripedFS(t, 3, false)
	f, err := p.Open("/backend/fplace", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 6*128)
	for pid := uint32(0); pid < 6; pid++ {
		payload := bytes.Repeat([]byte{byte(pid + 1)}, 128)
		copy(want[int(pid)*128:], payload)
		if _, err := f.Write(payload, int64(pid)*128, pid); err != nil {
			t.Fatal(err)
		}
	}
	for pid := uint32(0); pid < 6; pid++ {
		if err := f.Close(pid); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mems[0].Stat("/backend/fplace/index.flattened.1"); err != nil {
		t.Fatalf("flattened record missing on canonical backend: %v", err)
	}
	for bi := 1; bi < 3; bi++ {
		if _, err := mems[bi].Stat("/backend/fplace/index.flattened.1"); err == nil {
			t.Fatalf("flattened record leaked onto shadow backend %d", bi)
		}
	}
	cold := New(posix.NewStripedFS(mems[0], mems[1], mems[2]))
	if got := readAllBytes(t, cold, "/backend/fplace"); !bytes.Equal(got, want) {
		t.Fatal("striped flattened read diverged")
	}
	if s := cacheStats(cold); s.FlattenedBuilds != 1 {
		t.Fatalf("striped cold open did not use the flattened record: %+v", s)
	}
}

func TestFlattenedStaleGenerationNameMismatch(t *testing.T) {
	// A record whose file name claims a newer generation than its header
	// (a forged or misplaced copy) must be rejected by the gen check.
	p, mem := newTestFS(t)
	want := writeN1(t, p, "/backend/genm", 2, 2, 64)
	// Copy gen 1's bytes to a higher-generation name.
	src := "/backend/genm/index.flattened.1"
	st, err := mem.Stat(src)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, st.Size)
	fd, _ := mem.Open(src, posix.O_RDONLY, 0)
	if err := posix.ReadFull(mem, fd, buf, 0); err != nil {
		t.Fatal(err)
	}
	mem.Close(fd)
	dst := "/backend/genm/index.flattened.9"
	wfd, _ := mem.Open(dst, posix.O_CREAT|posix.O_WRONLY, 0o644)
	if _, err := posix.WriteFull(mem, wfd, buf, 0); err != nil {
		t.Fatal(err)
	}
	mem.Close(wfd)

	cold := New(mem)
	if got := readAllBytes(t, cold, "/backend/genm"); !bytes.Equal(got, want) {
		t.Fatal("gen-mismatched record corrupted reads")
	}
	if s := cacheStats(cold); s.FlattenedBuilds != 0 {
		t.Fatal("gen-mismatched record was trusted")
	}
	if h, err := cold.IndexHealth("/backend/genm"); err != nil || h.Flattened == nil || h.Flattened.Fresh || h.StaleRecords != 2 {
		t.Fatalf("health = %+v, %v; want 2 stale records", h, err)
	}
}

func TestStreamingMergeMatchesSlurpUnderDisorder(t *testing.T) {
	// Forge a container whose dropping has out-of-order timestamps (no
	// real writer produces one): the read path must fall back to
	// slurp-and-sort and still resolve last-writer-wins correctly.
	p, mem := newTestFS(t)
	if err := p.CreateContainer("/backend/disorder", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mem.Mkdir("/backend/disorder/hostdir.1", 0o755); err != nil {
		t.Fatal(err)
	}
	// pid 1, timestamps 5 then 3: entry with ts 5 wins the overlap even
	// though it appears first in the dropping.
	if err := idx.WriteDropping(mem, "/backend/disorder/hostdir.1/dropping.index.1", []idx.Entry{
		{LogicalOffset: 0, Length: 4, PhysicalOffset: 0, Timestamp: 5, Pid: 1},
		{LogicalOffset: 0, Length: 4, PhysicalOffset: 4, Timestamp: 3, Pid: 1},
	}); err != nil {
		t.Fatal(err)
	}
	// Data dropping: "WIN!" then "lose".
	fd, err := mem.Open("/backend/disorder/hostdir.1/dropping.data.1", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := posix.WriteFull(mem, fd, []byte("WIN!lose"), 0); err != nil {
		t.Fatal(err)
	}
	mem.Close(fd)

	got := readAllBytes(t, p, "/backend/disorder")
	if string(got) != "WIN!" {
		t.Fatalf("disorder fallback read = %q, want WIN!", got)
	}
}

func TestIndexHealthMissingContainer(t *testing.T) {
	p, _ := newTestFS(t)
	if _, err := p.IndexHealth("/backend/nope"); err == nil {
		t.Fatal("health of missing container succeeded")
	}
	if _, err := p.DropFlattenedIndex("/backend/nope"); err == nil {
		t.Fatal("drop on missing container succeeded")
	}
}

func TestAutoFlattenSkipsWhileOtherWritersLive(t *testing.T) {
	// Two handles, two pids: the first close must not flatten (the other
	// writer is live); the second must.
	p, _ := newTestFS(t)
	f1, err := p.Open("/backend/two", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := p.Open("/backend/two", posix.O_RDWR, 2, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Write([]byte("one"), 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Write([]byte("two"), 3, 2); err != nil {
		t.Fatal(err)
	}
	if err := f1.Close(1); err != nil {
		t.Fatal(err)
	}
	if names := flattenedNames(t, p, "/backend/two"); len(names) != 0 {
		t.Fatalf("flattened while pid 2 still open: %v", names)
	}
	if err := f2.Close(2); err != nil {
		t.Fatal(err)
	}
	if names := flattenedNames(t, p, "/backend/two"); len(names) != 1 {
		t.Fatalf("last close did not flatten: %v", names)
	}
	if got := readAllBytes(t, p, "/backend/two"); string(got) != "onetwo" {
		t.Fatalf("content = %q", got)
	}
}

func TestColdOpenDroppingReadCost(t *testing.T) {
	// The point of the flattened record in backend-operation terms: a
	// cold Size() over N droppings must read the one flattened file, not
	// all N droppings; with the record dropped it must read all N.
	p, _ := newTestFS(t)
	const writers = 12
	writeN1(t, p, "/backend/cost", writers, 4, 64)

	countReads := func(dropRecord bool) int {
		mem2 := posix.NewMemFS()
		copyTree(t, p.backend, mem2, "/backend")
		if dropRecord {
			if n, err := New(mem2).DropFlattenedIndex("/backend/cost"); err != nil || n != 1 {
				t.Fatalf("drop = %d, %v; want 1", n, err)
			}
		}
		plane := iostats.NewPlane()
		ins := posix.NewInstrumentFS(mem2, plane, posix.WithLayerName("backend"))
		cold := New(ins)
		before := plane.Layer("backend").OpCount(iostats.Open)
		f, err := cold.Open("/backend/cost", posix.O_RDONLY, 50, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close(50)
		if _, err := f.Size(); err != nil {
			t.Fatal(err)
		}
		return int(plane.Layer("backend").OpCount(iostats.Open) - before)
	}
	flat := countReads(false)
	merge := countReads(true)
	if flat >= merge {
		t.Fatalf("flattened cold open opened %d files, merge path %d — no metadata saving", flat, merge)
	}
}

// dropOpens counts opens of index droppings: each merge opens every
// dropping of the container once.
type dropOpens struct {
	posix.FS
	n atomic.Int64
}

func (d *dropOpens) Open(path string, flags int, mode uint32) (int, error) {
	if strings.Contains(path, "/dropping.index.") {
		d.n.Add(1)
	}
	return d.FS.Open(path, flags, mode)
}

// gatedCloser is one instance's close, run on its own goroutine over a
// FaultFS whose gates hold it at chosen backend ops.
type gatedCloser struct {
	ffs        *posix.FaultFS
	look, held chan struct{} // gates: before hasOpenWriters, inside the flatten
	done       chan error
}

// park waits until c's fired-th gate holds it (or, for a gate its close
// never reaches, until the close returns).
func (c *gatedCloser) park(t *testing.T, fired int) {
	t.Helper()
	for c.ffs.Fired() < fired {
		select {
		case err := <-c.done:
			c.done <- err
			return
		default:
			runtime.Gosched()
		}
	}
}

// checkPublished fails unless the container's gen-1 record is whole, or
// (unless want) absent.
func checkPublished(t *testing.T, fs posix.FS, path string, want bool, when string) {
	t.Helper()
	_, err := readRecord(fs, flattenedPath(path, 1))
	if err != nil && (want || !errors.Is(err, posix.ENOENT)) {
		t.Fatalf("%s: the published record is not whole: %v", when, err)
	}
}

// readRecord reads the flattened record at rec at the size a Stat of it
// reports, as a walk would list it.
func readRecord(fs posix.FS, rec string) (*idx.Flattened, error) {
	st, err := fs.Stat(rec)
	if err != nil {
		return nil, err
	}
	return idx.ReadFlattened(fs, rec, st.Size, math.MaxInt64)
}

// checkOneFreshRecord fails unless the container's root holds exactly one
// flattened record and no temp file, a cold reader trusts it, and the
// bytes read back are want.
func checkOneFreshRecord(t *testing.T, fs posix.FS, path, want string) {
	t.Helper()
	checkPublished(t, fs, path, true, "all closed")
	cold := New(fs)
	if names := flattenedNames(t, cold, path); len(names) != 1 {
		t.Fatalf("container root holds %v, want the one record and no temp file", names)
	}
	if got := readAllBytes(t, cold, path); string(got) != want {
		t.Fatalf("content = %q, want %q", got, want)
	}
	if s := cacheStats(cold); s.FlattenedBuilds != 1 {
		t.Fatalf("cold open did not trust the record: %+v", s)
	}
}

// TestConcurrentLastClosers: ranks that close at once each clear their
// openhosts record before either looks, so both find no writer left and
// both set out to flatten the same droppings to the same generation.
// Gates hold each closer at its look; then A runs to just before its
// rename, and B's whole close runs while A is held. Exactly one of them
// may merge, and what it publishes is whole and trusted.
func TestConcurrentLastClosers(t *testing.T) {
	const path = "/backend/race"
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	opens := &dropOpens{FS: mem}
	var a, b gatedCloser
	for i, c := range []*gatedCloser{&a, &b} {
		pid := uint32(i + 1)
		c.ffs = posix.NewFaultFS(opens)
		c.look, c.held, c.done = make(chan struct{}), make(chan struct{}), make(chan error, 1)
		f, err := New(c.ffs).Open(path, posix.O_CREAT|posix.O_RDWR, pid, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(bytes.Repeat([]byte{'a' + byte(i)}, 4), int64(4*i), pid); err != nil {
			t.Fatal(err)
		}
		// A close touches openhosts twice: it unlinks its own record,
		// then lists the directory to see who is left.
		c.ffs.Inject(&posix.FaultRule{Op: posix.FaultMeta, PathContains: "/" + openhostsDir, After: 1, Times: 1, Gate: c.look})
		go func() { c.done <- f.Close(pid) }()
	}
	a.park(t, 1)
	b.park(t, 1) // both records are gone; neither closer has looked
	opens.n.Store(0)

	a.ffs.Inject(&posix.FaultRule{Op: posix.FaultMeta, PathContains: flattenedPrefix, Times: 1, Gate: a.held})
	close(a.look)
	a.park(t, 2) // A's record is written and synced; its rename waits
	close(b.look)
	if err := <-b.done; err != nil {
		t.Fatalf("B's close: %v", err)
	}
	checkPublished(t, mem, path, false, "B closed, A held before its rename")
	close(a.held)
	if err := <-a.done; err != nil {
		t.Fatalf("A's close: %v", err)
	}
	if n := opens.n.Load(); n != 2 {
		t.Fatalf("the two closers opened index droppings %d times: %d merges of the 2 droppings, want 1", n, n/2)
	}
	checkOneFreshRecord(t, mem, path, "aaaabbbb")
}

// TestCompactRacesLastCloser enumerates the publish window a command's
// flatten (plfsctl compact, under a temp name of its own) opens against
// a last closer's flatten of the same droppings to the same generation.
// The closer A is held between writing its record and renaming it, and
// the compact B before its k-th backend op on the record's files, for
// every k; A's rename then lands at each point of B's flatten in turn.
// At every step the published name either does not exist or holds a
// whole record.
func TestCompactRacesLastCloser(t *testing.T) {
	const path = "/backend/race"
	// B's ops on the record's files: open, write, fsync and rename of its
	// temp (close is never gated). One step more lets B run to the end
	// while A is still held.
	const steps = 4
	for k := 0; k <= steps; k++ {
		mem := posix.NewMemFS()
		if err := mem.Mkdir("/backend", 0o755); err != nil {
			t.Fatal(err)
		}
		a := gatedCloser{ffs: posix.NewFaultFS(mem), held: make(chan struct{}), done: make(chan error, 1)}
		f, err := New(a.ffs).Open(path, posix.O_CREAT|posix.O_RDWR, 1, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("aaaabbbb"), 0, 1); err != nil {
			t.Fatal(err)
		}
		a.ffs.Inject(&posix.FaultRule{Op: posix.FaultMeta, PathContains: flattenedPrefix, Times: 1, Gate: a.held})
		go func() { a.done <- f.Close(1) }()
		a.park(t, 1) // A's record is written and synced; its rename waits
		checkPublished(t, mem, path, false, "A held before its rename")

		b := gatedCloser{ffs: posix.NewFaultFS(mem), held: make(chan struct{}), done: make(chan error, 1)}
		b.ffs.Inject(&posix.FaultRule{Op: posix.FaultAny, PathContains: flattenedPrefix, After: k, Times: 1, Gate: b.held})
		go func() {
			_, err := New(b.ffs).WriteFlattenedIndex(path)
			b.done <- err
		}()
		b.park(t, 1)
		if held := b.ffs.Fired() == 1; held != (k < steps) {
			t.Fatalf("k=%d: B held inside its flatten = %v: the flatten no longer makes the %d ops enumerated here", k, held, steps)
		}
		checkPublished(t, mem, path, false, "B held at its step")

		close(a.held)
		if err := <-a.done; err != nil {
			t.Fatalf("k=%d: A's close: %v", k, err)
		}
		checkPublished(t, mem, path, true, "A renamed")

		close(b.held)
		if err := <-b.done; err != nil {
			t.Fatalf("k=%d: B's compact: %v", k, err)
		}
		checkOneFreshRecord(t, mem, path, "aaaabbbb")
	}
}

// TestDeadFlattenClaim: a claim a crashed closer left behind blocks a
// later closer's flatten of the identical dropping set — nothing else —
// and goes with the container.
func TestDeadFlattenClaim(t *testing.T) {
	const path = "/backend/dead"
	p, mem := newTestFS(t)
	f, err := p.Open(path, posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("one"), 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(1); err != nil {
		t.Fatal(err)
	}
	if n, err := p.DropFlattenedIndex(path); err != nil || n != 1 {
		t.Fatalf("drop = %d, %v; want the close's one record", n, err)
	}
	st, err := p.listIndexState(path)
	if err != nil {
		t.Fatal(err)
	}
	dead := flattenClaim(path, 1, st.rawSignature(path))
	fd, err := mem.Open(dead, posix.O_CREAT|posix.O_EXCL|posix.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Write(fd, []byte("half a record")); err != nil {
		t.Fatal(err)
	}
	mem.Close(fd)

	p.flattenAtClose(path, foldSources{})
	if names := flattenedNames(t, p, path); len(names) != 1 || path+"/"+names[0] != dead {
		t.Fatalf("a close over the dead claim's droppings flattened: root holds %v", names)
	}

	f, err = p.Open(path, posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("two"), 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(1); err != nil {
		t.Fatal(err)
	}
	if _, err := readRecord(mem, flattenedPath(path, 1)); err != nil {
		t.Fatalf("a close over new droppings did not flatten past the dead claim: %v", err)
	}
	if got := readAllBytes(t, New(mem), path); string(got) != "onetwo" {
		t.Fatalf("content = %q", got)
	}

	if err := p.Unlink(path); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Stat(dead); !errors.Is(err, posix.ENOENT) {
		t.Fatalf("dead claim outlived its container: %v", err)
	}
}

// skewedListing lists every flattened record skew bytes off its size on
// disk, as a listing taken while the record was being replaced would.
type skewedListing struct {
	posix.FS
	skew int64
}

func (s skewedListing) ReaddirStat(path string) ([]posix.DirEntryStat, error) {
	ents, err := posix.ReaddirStat(s.FS, path)
	for i := range ents {
		if _, ok := parseFlattenedGen(ents[i].Name); ok {
			ents[i].Size += s.skew
		}
	}
	return ents, err
}

// TestFlattenedListedSizeDisagrees: a flattened record read at a listed
// size its file disagrees with — the file longer than listed or shorter
// — fails its parse, and the open falls back to the merge: the right
// bytes, no error, no build served by the record.
func TestFlattenedListedSizeDisagrees(t *testing.T) {
	const path = "/backend/c"
	for _, skew := range []int64{-1, -idx.FlattenedRunSize, 1, idx.FlattenedRunSize} {
		mem := posix.NewMemFS()
		if err := mem.Mkdir("/backend", 0o755); err != nil {
			t.Fatal(err)
		}
		want := writeN1(t, New(mem), path, 4, 8, 64)
		if n := len(flattenedNames(t, New(mem), path)); n != 1 {
			t.Fatalf("the close left %d flattened records, want 1", n)
		}
		p := New(skewedListing{mem, skew})
		if got := readAllBytes(t, p, path); !bytes.Equal(got, want) {
			t.Fatalf("listed %+d bytes off: content differs", skew)
		}
		if s := cacheStats(p); s.FlattenedBuilds != 0 || s.LoadErrors != 0 || s.Builds != 1 {
			t.Fatalf("listed %+d bytes off: %+v, want one build by the merge", skew, s)
		}
	}
}

// TestCloseAsksInstanceFirst: a close that leaves another of the
// instance's writers open does not flatten, even when that writer's
// openhosts record never landed (markOpen is best effort) and a listing
// of openhosts would find no writer left. The instance's last writer
// flattens, and a cold reader trusts what it wrote.
func TestCloseAsksInstanceFirst(t *testing.T) {
	const path = "/backend/c"
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	ffs := posix.NewFaultFS(mem)
	p := New(ffs)
	var handles [2]*File
	for i := range handles {
		pid := uint32(i + 1)
		if i == 1 {
			ffs.Inject(&posix.FaultRule{Op: posix.FaultOpen, PathContains: "/openhosts/host.2", Times: 1, Err: posix.EIO})
		}
		f, err := p.Open(path, posix.O_CREAT|posix.O_RDWR, pid, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{'a' + byte(i), 'a' + byte(i)}, int64(2*i), pid); err != nil {
			t.Fatal(err)
		}
		handles[i] = f
	}
	if h, err := p.IndexHealth(path); err != nil || h.OpenWriters != 1 {
		t.Fatalf("openhosts holds %d records, %v; want pid 1's alone", h.OpenWriters, err)
	}
	if err := handles[0].Close(1); err != nil {
		t.Fatal(err)
	}
	if names := flattenedNames(t, p, path); len(names) != 0 {
		t.Fatalf("a close under the instance's open writer flattened: root holds %v", names)
	}
	if _, err := handles[1].Write([]byte("cc"), 4, 2); err != nil {
		t.Fatal(err)
	}
	if err := handles[1].Close(2); err != nil {
		t.Fatal(err)
	}
	checkOneFreshRecord(t, mem, path, "aabbcc")
}
