package plfs

import (
	"bufio"
	"crypto/md5"
	"encoding/binary"
	"flag"
	"fmt"
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
	striped := posix.NewLayoutFS(layout, posix.ReplicaOptions{}, backends...)
	return New(striped, EngineOptions{NumHostdirs: 4})
}

// goldenWriteScript produces the fixture container: multiple writers on
// colliding hostdirs, overlapping rewrites (last-writer-wins), a
// vectored strided write, a hole, and clean closes (meta size hints).
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

	droppings, err := p.listIndexDroppings(path)
	if err != nil {
		tb.Fatal(err)
	}
	entries, err := p.loadDroppings(droppings)
	if err != nil {
		tb.Fatal(err)
	}
	global := idx.Build(entries)
	for _, x := range global.Extents() {
		fmt.Fprintf(&sb, "extent %d %d %d %d\n", x.LogicalOffset, x.Length, x.PhysicalOffset, x.Pid)
	}

	for _, d := range droppings {
		dst, err := p.backend.Stat(d)
		if err != nil {
			tb.Fatal(err)
		}
		fmt.Fprintf(&sb, "dropping %s %d\n", strings.TrimPrefix(d, path+"/"), dst.Size)
	}
	// v2 containers carry a flattened global index; freeze its observable
	// contract too (a v1 container emits no line here).
	h, err := p.IndexHealth(path)
	if err != nil {
		tb.Fatalf("IndexHealth(%s): %v", path, err)
	}
	if h.Flattened != nil {
		fmt.Fprintf(&sb, "flattened gen %d extents %d size %d fresh %v\n",
			h.Flattened.Generation, h.Flattened.Extents, h.Flattened.Size, h.Flattened.Fresh)
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

func regenerateGolden(t *testing.T) {
	if err := os.RemoveAll(goldenDir); err != nil {
		t.Fatal(err)
	}
	// container.v1 predates the flattened global index: regenerate it
	// with auto-flatten off, exactly the bytes the v1 code produced.
	mem := posix.NewMemFS()
	p := New(mem, EngineOptions{NumHostdirs: 4}, IndexOptions{DisableAutoFlatten: true})
	goldenWriteScript(t, p, goldenContainer)
	dumpTree(t, mem, "/"+goldenContainer, filepath.Join(goldenDir, goldenContainer))
	expect := describeContainer(t, p, "/"+goldenContainer)
	if err := os.WriteFile(filepath.Join(goldenDir, "expect.txt"), []byte(expect), 0o644); err != nil {
		t.Fatal(err)
	}
	// container.v2 is the same write history under the current format:
	// identical droppings plus the flattened record the last close
	// persists.
	mem2 := posix.NewMemFS()
	p2 := New(mem2, EngineOptions{NumHostdirs: 4})
	goldenWriteScript(t, p2, goldenContainerV2)
	dumpTree(t, mem2, "/"+goldenContainerV2, filepath.Join(goldenDir, goldenContainerV2))
	expect2 := describeContainer(t, p2, "/"+goldenContainerV2)
	if err := os.WriteFile(filepath.Join(goldenDir, goldenExpectV2), []byte(expect2), 0o644); err != nil {
		t.Fatal(err)
	}
	// container.v3 is the same write history under a replica-2 layout
	// over three backends: the fixture checks in each backend's physical
	// tree (b0/b1/b2) so the replicated placement itself is frozen.
	mems3 := make([]posix.FS, 3)
	for i := range mems3 {
		mems3[i] = posix.NewMemFS()
	}
	p3 := goldenV3Rig(t, mems3...)
	goldenWriteScript(t, p3, goldenContainerV3)
	for i, m := range mems3 {
		if _, err := m.Stat("/" + goldenContainerV3); err != nil {
			continue // a backend owning nothing has no tree to dump
		}
		// Each b<i> directory is that backend's root: the container dir
		// sits inside it, exactly as OSFS will serve it back.
		dumpTree(t, m, "/"+goldenContainerV3,
			filepath.Join(goldenDir, goldenContainerV3, fmt.Sprintf("b%d", i), goldenContainerV3))
	}
	expect3 := describeContainer(t, p3, "/"+goldenContainerV3)
	if err := os.WriteFile(filepath.Join(goldenDir, goldenExpectV3), []byte(expect3), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %s:\nv1:\n%s\nv2:\n%s\nv3:\n%s", goldenDir, expect, expect2, expect3)
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

	// Work on a copy so the checked-in bytes cannot be mutated.
	work := t.TempDir()
	if err := os.CopyFS(work, os.DirFS(goldenDir)); err != nil {
		t.Fatal(err)
	}
	osfs, err := posix.NewOSFS(work)
	if err != nil {
		t.Fatal(err)
	}
	p := New(osfs, EngineOptions{NumHostdirs: 4})
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
	// pre-flatten code wrote, so the replay disables auto-flatten.
	mem := posix.NewMemFS()
	fresh := New(mem, EngineOptions{NumHostdirs: 4}, IndexOptions{DisableAutoFlatten: true})
	goldenWriteScript(t, fresh, goldenContainer)
	if regen := describeContainer(t, fresh, "/"+goldenContainer); regen != string(wantBytes) {
		t.Fatalf("write path no longer reproduces the golden container.\n-- want --\n%s\n-- got --\n%s", wantBytes, regen)
	}
}

// TestGoldenContainerV2 freezes the current container format: the same
// write history as v1 plus the flattened global index record the last
// close persists. It proves cross-version compatibility in both
// directions — the v2 fixture must read via its flattened record AND
// byte-identically with flattened reads disabled (the v1 read path),
// while TestGoldenContainerFormat above proves v1 containers (no record)
// still read unchanged.
func TestGoldenContainerV2(t *testing.T) {
	if *updateGolden {
		t.Skip("fixtures regenerated by TestGoldenContainerFormat")
	}

	// Pin the flattened on-disk format constants the fixture embodies.
	if idx.FlattenedHeaderSize != 48 || idx.FlattenedExtentSize != 32 {
		t.Fatalf("flattened format geometry changed (%d/%d): the on-disk format is frozen",
			idx.FlattenedHeaderSize, idx.FlattenedExtentSize)
	}
	if idx.FlattenedMagic != 0x504c4653464c5431 {
		t.Fatalf("flattened magic changed to %#x", idx.FlattenedMagic)
	}

	work := t.TempDir()
	if err := os.CopyFS(work, os.DirFS(goldenDir)); err != nil {
		t.Fatal(err)
	}
	osfs, err := posix.NewOSFS(work)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(filepath.Join(goldenDir, goldenExpectV2))
	if err != nil {
		t.Fatalf("missing v2 expectations (run: go test ./internal/plfs -run Golden -update-golden): %v", err)
	}

	// Default read path: the fixture's flattened record must be fresh
	// after a checkout (its raw signature is path- and mtime-invariant)
	// and actually serve the build.
	p := New(osfs, EngineOptions{NumHostdirs: 4})
	got := describeContainer(t, p, "/"+goldenContainerV2)
	if got != string(wantBytes) {
		t.Fatalf("v2 container no longer reads identically.\n-- want --\n%s\n-- got --\n%s", wantBytes, got)
	}
	if s := cacheStats(p); s.FlattenedBuilds == 0 {
		t.Fatalf("v2 fixture read did not load its flattened record: %+v", s)
	}

	// Raw flattened file checks: name, geometry, magic, generation.
	raw, err := os.ReadFile(filepath.Join(work, goldenContainerV2, "index.flattened.1"))
	if err != nil {
		t.Fatalf("fixture lacks its flattened record: %v", err)
	}
	if (len(raw)-idx.FlattenedHeaderSize-8)%idx.FlattenedExtentSize != 0 {
		t.Fatalf("flattened record not extent-aligned: %d bytes", len(raw))
	}
	fl, err := idx.UnmarshalFlattened(raw)
	if err != nil {
		t.Fatalf("fixture flattened record does not parse: %v", err)
	}
	if fl.Generation != 1 {
		t.Fatalf("fixture flattened generation = %d", fl.Generation)
	}

	// The v1 read regime (no record: dropped from the work-tree copy,
	// read by a fresh instance) must resolve the same bytes — the record
	// is an accelerator, never a semantic fork. The description then
	// lacks exactly the record's own line.
	if n, err := p.DropFlattenedIndex("/" + goldenContainerV2); err != nil || n != 1 {
		t.Fatalf("drop the fixture's record = %d, %v; want 1", n, err)
	}
	wantOff, _, _ := strings.Cut(string(wantBytes), "flattened gen ")
	pOff := New(osfs, EngineOptions{NumHostdirs: 4})
	if gotOff := describeContainer(t, pOff, "/"+goldenContainerV2); gotOff != wantOff {
		t.Fatalf("v2 container reads differently with its flattened record dropped.\n-- want --\n%s\n-- got --\n%s", wantOff, gotOff)
	}

	// Replay determinism for the current format: the write script must
	// reproduce the v2 description (flattened line included) today.
	mem := posix.NewMemFS()
	fresh := New(mem, EngineOptions{NumHostdirs: 4})
	goldenWriteScript(t, fresh, goldenContainerV2)
	if regen := describeContainer(t, fresh, "/"+goldenContainerV2); regen != string(wantBytes) {
		t.Fatalf("write path no longer reproduces the v2 container.\n-- want --\n%s\n-- got --\n%s", wantBytes, regen)
	}
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
	if desc, err := p.ContainerLayout("/" + goldenContainerV3); err != nil || desc != "replica-2" {
		t.Fatalf("v3 ContainerLayout = %q, %v", desc, err)
	}
	h, err := p.ReplicationHealth("/" + goldenContainerV3)
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
	// reproduce the recorded description today.
	mems := make([]posix.FS, 3)
	for i := range mems {
		mems[i] = posix.NewMemFS()
	}
	fresh := goldenV3Rig(t, mems...)
	goldenWriteScript(t, fresh, goldenContainerV3)
	if regen := describeContainer(t, fresh, "/"+goldenContainerV3); regen != string(wantBytes) {
		t.Fatalf("write path no longer reproduces the v3 container.\n-- want --\n%s\n-- got --\n%s", wantBytes, regen)
	}
}
