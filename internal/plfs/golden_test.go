package plfs

import (
	"bufio"
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	idx "ldplfs/internal/plfs/index"
	"ldplfs/internal/posix"
)

// The golden container fixture: a checked-in container tree (exact bytes
// and layout, generated once by -update-golden) that every future
// version of this package must read identically. The container format is
// load-bearing across releases — droppings written by an old build must
// resolve to the same logical bytes forever — so the fixture freezes
// size, content hash, the resolved extent table and the physical layout,
// and the test fails loudly on any deviation. Regenerating the fixture
// is a reviewed, deliberate act of changing the on-disk format.
var updateGolden = flag.Bool("update-golden", false, "regenerate the golden container fixture")

const (
	goldenDir         = "testdata/golden"
	goldenContainer   = "container.v1"
	goldenContainerV2 = "container.v2"
	goldenExpectV2    = "expect.v2.txt"
	goldenContainerV3 = "container.v3"
	goldenExpectV3    = "expect.v3.txt"
	goldenContainerV4 = "container.v4"
	goldenExpectV4    = "expect.v4.txt"

	// goldenHostdirs is the geometry the fixtures were written at (pid
	// 5 in hostdir.1); every instance that writes or appends to one
	// stages it.
	goldenHostdirs = 4
)

// goldenV3Rig builds the v3 fixture's store: a replica-2 layout over
// three backends. The fixture freezes the replicated on-disk shape —
// per-backend trees b0/b1/b2, each dropping present on exactly its two
// owners, plus the checksummed layout.desc record.
func goldenV3Rig(tb testing.TB, backends ...posix.FS) *FS {
	tb.Helper()
	layout, err := posix.LayoutFor("replica-2", len(backends))
	if err != nil {
		tb.Fatal(err)
	}
	striped := posix.NewLayoutFS(layout, nil, backends...)
	return newHostdirs(striped, goldenHostdirs)
}

// goldenWriteScript produces the fixture container: multiple writers on
// colliding hostdirs, overlapping rewrites (last-writer-wins), a
// vectored strided write, a hole, and clean closes.
// It must stay byte-deterministic — single goroutine, fixed pids.
func goldenWriteScript(tb testing.TB, p *FS, container string) {
	tb.Helper()
	f, err := p.Open("/"+container, posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		tb.Fatal(err)
	}
	write := func(pid uint32, off int64, pattern byte, n int) {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = pattern + byte(i%7)
		}
		if got, err := f.Write(buf, off, pid); err != nil || got != n {
			tb.Fatalf("golden write pid %d off %d: n=%d err=%v", pid, off, got, err)
		}
	}
	write(1, 0, 'a', 1000)  // pid 1 -> hostdir.1
	write(2, 800, 'B', 500) // pid 2 -> hostdir.2, overlaps pid 1's tail
	write(5, 0, 'z', 64)    // pid 5 -> hostdir.1 (collision), rewrites head
	segs := []WriteSeg{     // strided vectored write, pid 2
		{Off: 2000, Data: []byte(strings.Repeat("st", 100))},
		{Off: 2500, Data: []byte(strings.Repeat("ride", 50))},
	}
	if _, err := f.WriteV(segs, 2); err != nil {
		tb.Fatal(err)
	}
	write(1, 850, 'Q', 100) // second overlap: pid 1 wins back a window
	for _, pid := range []uint32{1, 2, 5} {
		if err := f.Sync(pid); err != nil {
			tb.Fatal(err)
		}
	}
	for _, pid := range []uint32{1, 2, 5} {
		if err := f.Close(pid); err != nil {
			tb.Fatal(err)
		}
	}
}

// describeContainer renders the observable format contract of the
// container as text: logical size, content hash, resolved extents and
// the physical dropping layout.
func describeContainer(tb testing.TB, p *FS, path string) string {
	tb.Helper()
	var sb strings.Builder
	st, err := p.Stat(path)
	if err != nil {
		tb.Fatal(err)
	}
	fmt.Fprintf(&sb, "size %d\n", st.Size)

	f, err := p.Open(path, posix.O_RDONLY, 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close(0)
	content := make([]byte, st.Size)
	if n, err := f.Read(content, 0); err != nil || int64(n) != st.Size {
		tb.Fatalf("golden read = %d, %v (want %d)", n, err, st.Size)
	}
	fmt.Fprintf(&sb, "md5 %x\n", md5.Sum(content))

	walk, err := p.listIndexState(path)
	if err != nil {
		tb.Fatal(err)
	}
	entries, err := p.loadDroppings(walk.droppings, walk.stats)
	if err != nil {
		tb.Fatal(err)
	}
	global := idx.Build(entries)
	for _, x := range global.Extents() {
		fmt.Fprintf(&sb, "extent %d %d %d %d\n", x.LogicalOffset, x.Length, x.PhysicalOffset, x.Pid)
	}

	for _, d := range walk.droppings {
		dst, err := p.backend.Stat(d)
		if err != nil {
			tb.Fatal(err)
		}
		fmt.Fprintf(&sb, "dropping %s %d\n", strings.TrimPrefix(d, path+"/"), dst.Size)
	}
	// v2 containers carry a flattened global index; freeze its observable
	// contract too (a v1 container emits no line here). A record of
	// format version 2 adds how it spells the table.
	h, err := p.IndexHealth(path)
	if err != nil {
		tb.Fatalf("IndexHealth(%s): %v", path, err)
	}
	if fl := h.Flattened; fl != nil {
		fmt.Fprintf(&sb, "flattened gen %d extents %d size %d fresh %v", fl.Generation, fl.Extents, fl.Size, fl.Fresh)
		if fl.Version >= 2 {
			fmt.Fprintf(&sb, " runs %d singles %d", fl.Runs, fl.Singles)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// dumpTree copies a MemFS subtree onto the host file system.
func dumpTree(tb testing.TB, fs posix.FS, from, to string) {
	tb.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		tb.Fatal(err)
	}
	entries, err := fs.Readdir(from)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		src, dst := from+"/"+e.Name, filepath.Join(to, e.Name)
		if e.IsDir {
			dumpTree(tb, fs, src, dst)
			continue
		}
		st, err := fs.Stat(src)
		if err != nil {
			tb.Fatal(err)
		}
		buf := make([]byte, st.Size)
		fd, err := fs.Open(src, posix.O_RDONLY, 0)
		if err != nil {
			tb.Fatal(err)
		}
		if st.Size > 0 {
			if err := posix.ReadFull(fs, fd, buf, 0); err != nil {
				tb.Fatal(err)
			}
		}
		fs.Close(fd)
		if err := os.WriteFile(dst, buf, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// regenerateGolden rewrites the fixture of the current format,
// container.v4. The older fixtures are frozen history: container.v1
// (droppings only) is what the replay in TestGoldenContainerFormat still
// reproduces, and container.v2 and .v3 carry version 1 flattened records,
// which no current code writes.
func regenerateGolden(t *testing.T) {
	if err := os.RemoveAll(filepath.Join(goldenDir, goldenContainerV4)); err != nil {
		t.Fatal(err)
	}
	mem := posix.NewMemFS()
	p := newHostdirs(mem, goldenHostdirs)
	goldenWriteScript(t, p, goldenContainerV4)
	dumpTree(t, mem, "/"+goldenContainerV4, filepath.Join(goldenDir, goldenContainerV4))
	expect := describeContainer(t, p, "/"+goldenContainerV4)
	if err := os.WriteFile(filepath.Join(goldenDir, goldenExpectV4), []byte(expect), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %s:\n%s", filepath.Join(goldenDir, goldenContainerV4), expect)
}

// TestGoldenContainerFormat reads the checked-in fixture through the
// current code and demands the exact recorded interpretation. It also
// pins the raw format constants, so an accidental change to the record
// encoding fails here even before the fixture diverges.
func TestGoldenContainerFormat(t *testing.T) {
	if *updateGolden {
		regenerateGolden(t)
	}

	// Pin the physical format constants the fixture bytes embody.
	if idx.EntrySize != 48 {
		t.Fatalf("EntrySize changed to %d: the on-disk format is frozen at 48-byte records", idx.EntrySize)
	}
	if idx.Magic != 0x504c465349445831 {
		t.Fatalf("index magic changed to %#x", idx.Magic)
	}
	// And those of the flattened record the write path produces now
	// (container.v4): version 2, with 48-byte runs beside 32-byte singles.
	if idx.FlattenedVersion != 2 || idx.FlattenedHeaderSize != 56 || idx.FlattenedRunSize != 48 || idx.FlattenedExtentSize != 32 {
		t.Fatalf("flattened format changed (version %d, header %d, run %d, single %d): the on-disk format is frozen",
			idx.FlattenedVersion, idx.FlattenedHeaderSize, idx.FlattenedRunSize, idx.FlattenedExtentSize)
	}
	if idx.FlattenedMagic != 0x504c4653464c5431 {
		t.Fatalf("flattened magic changed to %#x", idx.FlattenedMagic)
	}

	// Work on a copy so the checked-in bytes cannot be mutated.
	work := t.TempDir()
	if err := os.CopyFS(work, os.DirFS(goldenDir)); err != nil {
		t.Fatal(err)
	}
	osfs, err := posix.NewOSFS(work)
	if err != nil {
		t.Fatal(err)
	}
	p := newHostdirs(osfs, goldenHostdirs)
	if !p.IsContainer("/" + goldenContainer) {
		t.Fatalf("fixture is not recognised as a container")
	}

	wantBytes, err := os.ReadFile(filepath.Join(goldenDir, "expect.txt"))
	if err != nil {
		t.Fatalf("missing expectations (run: go test ./internal/plfs -run Golden -update-golden): %v", err)
	}
	got := describeContainer(t, p, "/"+goldenContainer)
	if got != string(wantBytes) {
		t.Fatalf("golden container no longer reads identically.\n-- want --\n%s\n-- got --\n%s", wantBytes, got)
	}

	// The version file and index headers are frozen bytes too.
	ver, err := os.ReadFile(filepath.Join(work, goldenContainer, "version"))
	if err != nil || string(ver) != versionText {
		t.Fatalf("container version file = %q, %v (want %q)", ver, err, versionText)
	}
	sawIndex := false
	sc := bufio.NewScanner(strings.NewReader(got))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 || fields[0] != "dropping" || !strings.Contains(fields[1], "dropping.index.") {
			continue
		}
		sawIndex = true
		raw, err := os.ReadFile(filepath.Join(work, goldenContainer, fields[1]))
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) < 16 {
			t.Fatalf("index dropping %s shorter than its header", fields[1])
		}
		if magic := binary.LittleEndian.Uint64(raw[0:]); magic != idx.Magic {
			t.Fatalf("index dropping %s magic = %#x", fields[1], magic)
		}
		if v := binary.LittleEndian.Uint64(raw[8:]); v != 1 {
			t.Fatalf("index dropping %s version = %d", fields[1], v)
		}
		if (len(raw)-16)%idx.EntrySize != 0 {
			t.Fatalf("index dropping %s not record-aligned: %d bytes", fields[1], len(raw))
		}
	}
	if !sawIndex {
		t.Fatal("fixture describes no index droppings")
	}

	// Regeneration determinism: replaying the write script today must
	// still produce byte-identical droppings (physical layout included),
	// not merely the same logical file. v1 containers are what the
	// pre-flatten code wrote, so the replay drops the record its last
	// close published.
	mem := posix.NewMemFS()
	fresh := newHostdirs(mem, goldenHostdirs)
	goldenWriteScript(t, fresh, goldenContainer)
	if _, err := fresh.DropFlattenedIndex("/" + goldenContainer); err != nil {
		t.Fatal(err)
	}
	if regen := describeContainer(t, fresh, "/"+goldenContainer); regen != string(wantBytes) {
		t.Fatalf("write path no longer reproduces the golden container.\n-- want --\n%s\n-- got --\n%s", wantBytes, regen)
	}
}

// TestGoldenContainerV2 freezes the first flattened format: the same
// write history as v1 plus the version 1 flattened record the last close
// persisted then — one 32-byte record per extent. A reader of today must
// still trust and load it, and read the same bytes with it dropped.
func TestGoldenContainerV2(t *testing.T) {
	if *updateGolden {
		t.Skip("fixtures regenerated by TestGoldenContainerFormat")
	}
	raw := checkFlattenedFixture(t, goldenContainerV2, goldenExpectV2, 1)
	// Version 1 geometry: a 48-byte header with one count, then 32-byte
	// extents and the checksum.
	const v1Header = 48
	if (len(raw)-v1Header-8)%idx.FlattenedExtentSize != 0 {
		t.Fatalf("v1 flattened record not extent-aligned: %d bytes", len(raw))
	}
	if n := binary.LittleEndian.Uint64(raw[40:]); uint64(len(raw)) != v1Header+n*idx.FlattenedExtentSize+8 {
		t.Fatalf("v1 flattened record of %d bytes claims %d extents", len(raw), n)
	}
}

// TestGoldenContainerV4 freezes the current container format: the v1
// write history plus the version 2 flattened record — its vectored pair
// of equal writes folded into one run, the rest singles. It must read
// through the record and with the record dropped, and the write path
// must reproduce it today byte for byte, record included.
func TestGoldenContainerV4(t *testing.T) {
	if *updateGolden {
		t.Skip("fixtures regenerated by TestGoldenContainerFormat")
	}
	raw := checkFlattenedFixture(t, goldenContainerV4, goldenExpectV4, idx.FlattenedVersion)
	fl, err := idx.UnmarshalFlattened(raw, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Runs == 0 || fl.Singles == 0 {
		t.Fatalf("v4 record has %d runs and %d singles; the fixture should show both", fl.Runs, fl.Singles)
	}
	if want := idx.FlattenedHeaderSize + fl.Runs*idx.FlattenedRunSize + fl.Singles*idx.FlattenedExtentSize + 8; len(raw) != want {
		t.Fatalf("v4 flattened record is %d bytes, want %d", len(raw), want)
	}

	wantBytes, err := os.ReadFile(filepath.Join(goldenDir, goldenExpectV4))
	if err != nil {
		t.Fatal(err)
	}
	mem := posix.NewMemFS()
	fresh := newHostdirs(mem, goldenHostdirs)
	goldenWriteScript(t, fresh, goldenContainerV4)
	if regen := describeContainer(t, fresh, "/"+goldenContainerV4); regen != string(wantBytes) {
		t.Fatalf("write path no longer reproduces the v4 container.\n-- want --\n%s\n-- got --\n%s", wantBytes, regen)
	}
	fd, err := mem.Open("/"+goldenContainerV4+"/index.flattened.1", posix.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	regen := make([]byte, len(raw)+1)
	n, _ := mem.Pread(fd, regen, 0)
	mem.Close(fd)
	if !bytes.Equal(regen[:n], raw) {
		t.Fatalf("write path no longer reproduces the v4 flattened record:\n%x\n%x", regen[:n], raw)
	}
}

// checkFlattenedFixture reads a checked-in container with a flattened
// record of the given format version: the description must match, the
// record must be trusted and serve the build, and with the record
// dropped the streaming merge must read the same bytes. It returns the
// record's bytes.
func checkFlattenedFixture(t *testing.T, container, expect string, version uint64) []byte {
	t.Helper()
	work := t.TempDir()
	if err := os.CopyFS(work, os.DirFS(goldenDir)); err != nil {
		t.Fatal(err)
	}
	osfs, err := posix.NewOSFS(work)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(filepath.Join(goldenDir, expect))
	if err != nil {
		t.Fatalf("missing %s expectations (run: go test ./internal/plfs -run Golden -update-golden): %v", container, err)
	}

	// Default read path: the fixture's flattened record must be fresh
	// after a checkout (its raw signature is path- and mtime-invariant)
	// and actually serve the build.
	p := newHostdirs(osfs, goldenHostdirs)
	got := describeContainer(t, p, "/"+container)
	if got != string(wantBytes) {
		t.Fatalf("%s no longer reads identically.\n-- want --\n%s\n-- got --\n%s", container, wantBytes, got)
	}
	if s := cacheStats(p); s.FlattenedBuilds == 0 {
		t.Fatalf("%s read did not load its flattened record: %+v", container, s)
	}

	// Raw flattened file checks: name, magic, version, generation.
	raw, err := os.ReadFile(filepath.Join(work, container, "index.flattened.1"))
	if err != nil {
		t.Fatalf("fixture lacks its flattened record: %v", err)
	}
	fl, err := idx.UnmarshalFlattened(raw, math.MaxInt64)
	if err != nil {
		t.Fatalf("fixture flattened record does not parse: %v", err)
	}
	if fl.Generation != 1 || fl.Version != version {
		t.Fatalf("fixture flattened record: generation %d version %d, want 1 and %d", fl.Generation, fl.Version, version)
	}

	// The raw read regime (no record: dropped from the work-tree copy,
	// read by a fresh instance) must resolve the same bytes — the record
	// is an accelerator, never a semantic fork. The description then
	// lacks exactly the record's own line.
	if n, err := p.DropFlattenedIndex("/" + container); err != nil || n != 1 {
		t.Fatalf("drop the fixture's record = %d, %v; want 1", n, err)
	}
	wantOff, _, _ := strings.Cut(string(wantBytes), "flattened gen ")
	pOff := newHostdirs(osfs, goldenHostdirs)
	if gotOff := describeContainer(t, pOff, "/"+container); gotOff != wantOff {
		t.Fatalf("%s reads differently with its flattened record dropped.\n-- want --\n%s\n-- got --\n%s", container, wantOff, gotOff)
	}
	return raw
}

// TestGoldenContainerV3 freezes the replicated container format: the
// v1/v2 write history under a replica-2 layout over three backends,
// checked in as per-backend physical trees. The fixture must read
// byte-identically to the v2 logical interpretation (replication never
// changes what the application sees), keep reading identically with a
// backend dark, and carry a parseable, canonical layout descriptor.
func TestGoldenContainerV3(t *testing.T) {
	if *updateGolden {
		t.Skip("fixtures regenerated by TestGoldenContainerFormat")
	}

	// Pin the descriptor record constants the fixture bytes embody.
	if posix.LayoutMagic != 0x504c46534c595431 {
		t.Fatalf("layout descriptor magic changed to %#x: the record format is frozen", uint64(posix.LayoutMagic))
	}
	if posix.LayoutVersion != 1 {
		t.Fatalf("layout descriptor version changed to %d", posix.LayoutVersion)
	}

	work := t.TempDir()
	if err := os.CopyFS(work, os.DirFS(filepath.Join(goldenDir, goldenContainerV3))); err != nil {
		t.Fatal(err)
	}
	openRig := func() (*FS, []*posix.FaultFS) {
		var faults []*posix.FaultFS
		backends := make([]posix.FS, 3)
		for i := range backends {
			root := filepath.Join(work, fmt.Sprintf("b%d", i))
			if err := os.MkdirAll(root, 0o755); err != nil {
				t.Fatal(err)
			}
			osfs, err := posix.NewOSFS(root)
			if err != nil {
				t.Fatal(err)
			}
			ff := posix.NewFaultFS(osfs)
			faults = append(faults, ff)
			backends[i] = ff
		}
		return goldenV3Rig(t, backends...), faults
	}

	wantBytes, err := os.ReadFile(filepath.Join(goldenDir, goldenExpectV3))
	if err != nil {
		t.Fatalf("missing v3 expectations (run: go test ./internal/plfs -run Golden -update-golden): %v", err)
	}

	p, _ := openRig()
	if !p.IsContainer("/" + goldenContainerV3) {
		t.Fatal("v3 fixture is not recognised as a container")
	}
	if got := describeContainer(t, p, "/"+goldenContainerV3); got != string(wantBytes) {
		t.Fatalf("v3 container no longer reads identically.\n-- want --\n%s\n-- got --\n%s", wantBytes, got)
	}
	if s := cacheStats(p); s.FlattenedBuilds == 0 {
		t.Fatalf("v3 fixture read did not load its version 1 flattened record: %+v", s)
	}
	if desc, err := p.ContainerLayout("/" + goldenContainerV3); err != nil || desc != "replica-2" {
		t.Fatalf("v3 ContainerLayout = %q, %v", desc, err)
	}
	h, err := p.replicationHealth("/" + goldenContainerV3)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Clean() || h.Files == 0 {
		t.Fatalf("checked-in v3 fixture is not fully replicated: %+v", h)
	}

	// The raw descriptor record on disk is the canonical marshalling.
	raw, err := os.ReadFile(filepath.Join(work, "b0", goldenContainerV3, "layout.desc"))
	if err != nil {
		t.Fatalf("fixture lacks its layout descriptor: %v", err)
	}
	if desc, err := posix.UnmarshalLayoutDescriptor(raw); err != nil || desc != "replica-2" {
		t.Fatalf("fixture descriptor = %q, %v", desc, err)
	}
	if want := posix.MarshalLayoutDescriptor("replica-2"); string(raw) != string(want) {
		t.Fatalf("fixture descriptor is not canonical: %x != %x", raw, want)
	}

	// The v3 interpretation is the v2 interpretation: replication must
	// not perturb size, hash, extents, dropping names or the flattened
	// record — only the physical copy count.
	wantV2, err := os.ReadFile(filepath.Join(goldenDir, goldenExpectV2))
	if err != nil {
		t.Fatal(err)
	}
	norm := strings.ReplaceAll(string(wantBytes), goldenContainerV3, goldenContainerV2)
	if norm != string(wantV2) {
		t.Fatalf("v3 logical contract diverged from v2.\n-- v2 --\n%s\n-- v3 --\n%s", wantV2, norm)
	}

	// Degraded read: with one backend dark the fixture must still read
	// byte-for-byte (each dropping has a surviving owner).
	for kill := 0; kill < 3; kill++ {
		pk, faults := openRig()
		faults[kill].Kill()
		if got := describeContainer(t, pk, "/"+goldenContainerV3); got != string(wantBytes) {
			t.Fatalf("v3 container reads differently with backend %d dark.\n-- want --\n%s\n-- got --\n%s",
				kill, wantBytes, got)
		}
	}

	// Replay determinism: the write script on a fresh replica-2 rig must
	// reproduce the description of the current format today — v4's, as
	// replication changes nothing logical and the record written now is
	// version 2.
	wantV4, err := os.ReadFile(filepath.Join(goldenDir, goldenExpectV4))
	if err != nil {
		t.Fatal(err)
	}
	wantNow := strings.ReplaceAll(string(wantV4), goldenContainerV4, goldenContainerV3)
	mems := make([]posix.FS, 3)
	for i := range mems {
		mems[i] = posix.NewMemFS()
	}
	fresh := goldenV3Rig(t, mems...)
	goldenWriteScript(t, fresh, goldenContainerV3)
	if regen := describeContainer(t, fresh, "/"+goldenContainerV3); regen != wantNow {
		t.Fatalf("write path no longer reproduces the v3 container.\n-- want --\n%s\n-- got --\n%s", wantNow, regen)
	}
}
