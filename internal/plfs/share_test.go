package plfs

import (
	"bytes"
	"sync/atomic"
	"testing"

	"ldplfs/internal/iostats"
	"ldplfs/internal/posix"
)

// metaCount counts the metadata ops (stat, listing, ...) through it.
type metaCount struct{ n atomic.Int64 }

func (m *metaCount) Before(op posix.Op) (posix.Op, error) { return op, nil }

func (m *metaCount) After(op posix.Op, _ int64, _ error) {
	if op.Class == iostats.Meta {
		m.n.Add(1)
	}
}

// writeAt writes data at off through a fresh handle of pid and closes it.
func writeAt(t *testing.T, p *FS, path string, pid uint32, off int64, data []byte) {
	t.Helper()
	f, err := p.Open(path, posix.O_CREAT|posix.O_WRONLY, pid, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data, off, pid); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(pid); err != nil {
		t.Fatal(err)
	}
}

// share opens path read-only on p and returns its shared index.
func share(t *testing.T, p *FS, path string) SharedIndex {
	t.Helper()
	f, err := p.Open(path, posix.O_RDONLY, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(0)
	s, err := f.ShareIndex()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSharedIndexConsistency pins close-to-open consistency across an
// installed index. The handle OpenShared returns reads the sharer's
// index with no backend op. A later Open in the same instance
// revalidates against the sharer's signature: with the droppings
// unchanged it is a cache hit (a lost signature would rebuild), and
// after another instance appended it rebuilds and reads the new bytes.
func TestSharedIndexConsistency(t *testing.T) {
	mem := posix.NewMemFS()
	const path = "/c"
	writer := New(mem)
	writeAt(t, writer, path, 1, 0, bytes.Repeat([]byte{'a'}, 4096))
	writeAt(t, writer, path, 2, 8192, bytes.Repeat([]byte{'b'}, 4096))
	want := readAllBytes(t, writer, path)
	shared := share(t, New(mem), path)

	var meta metaCount
	p := New(posix.Interpose(mem, &meta))
	f, err := p.OpenShared(path, 3, shared)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := f.Read(got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("shared read = %d, %v", n, err)
	}
	if size, err := f.Size(); err != nil || size != int64(len(want)) {
		t.Fatalf("Size = %d, %v", size, err)
	}
	if n := meta.n.Load(); n != 0 {
		t.Fatalf("the shared open made %d metadata ops", n)
	}
	if c := cacheStats(p); c.Builds != 1 || c.Revalidations != 0 || c.FlattenedBuilds != 0 ||
		p.cacheLayer.Counter("shared_builds").Load() != 1 {
		t.Fatalf("after OpenShared: %+v", c)
	}

	// A second open in the instance, droppings unchanged: a hit.
	c0 := cacheStats(p)
	if !bytes.Equal(readAllBytes(t, p, path), want) {
		t.Fatal("second open read different bytes")
	}
	if c := cacheStats(p); c.Builds != c0.Builds || c.Hits != c0.Hits+2 || c.Revalidations != c0.Revalidations+1 {
		// Size and Read: two lookups, the first revalidating.
		t.Fatalf("second open: %+v, was %+v", c, c0)
	}

	// Another instance appends: a fresh open rebuilds and sees it.
	writeAt(t, writer, path, 2, 16384, []byte("tail"))
	c0 = cacheStats(p)
	got = readAllBytes(t, p, path)
	if want := append(append(want, make([]byte, 16384-len(want))...), "tail"...); !bytes.Equal(got, want) {
		t.Fatalf("after the append: %d bytes, want %d", len(got), len(want))
	}
	if c := cacheStats(p); c.Builds != c0.Builds+1 {
		t.Fatalf("after the append: %+v, was %+v", c, c0)
	}
	if err := f.Close(3); err != nil {
		t.Fatal(err)
	}

	// The same index installed again at the same state is a hit.
	c0 = cacheStats(p)
	g, err := p.OpenShared(path, 3, share(t, writer, path))
	if err != nil {
		t.Fatal(err)
	}
	g.Close(3)
	if c := cacheStats(p); c.Builds != c0.Builds || c.Hits != c0.Hits+1 {
		t.Fatalf("reinstall: %+v, was %+v", c, c0)
	}
}

// TestSharedIndexUnderLocalWriter: an instance writing to the container
// may hold records the sharer never saw, so its shared handle
// revalidates on first read like any fresh handle.
func TestSharedIndexUnderLocalWriter(t *testing.T) {
	mem := posix.NewMemFS()
	const path = "/c"
	writeAt(t, New(mem), path, 1, 0, []byte("shared"))
	shared := share(t, New(mem), path)

	p := New(mem)
	w, err := p.Open(path, posix.O_WRONLY, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close(2)
	if _, err := w.Write([]byte("local"), 6, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(2); err != nil {
		t.Fatal(err)
	}
	f, err := p.OpenShared(path, 3, shared)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(3)
	got := make([]byte, 11)
	if n, err := f.Read(got, 0); err != nil || string(got[:n]) != "sharedlocal" {
		t.Fatalf("Read = %q, %v", got[:n], err)
	}
}

// TestSharedIndexChecked: the record is parsed with every check, and
// bounded by the extents the sharer reported.
func TestSharedIndexChecked(t *testing.T) {
	mem := posix.NewMemFS()
	const path = "/c"
	writeAt(t, New(mem), path, 1, 0, []byte("one"))
	writeAt(t, New(mem), path, 2, 100, []byte("two"))
	shared := share(t, New(mem), path)
	if shared.Extents != 2 {
		t.Fatalf("Extents = %d, want 2", shared.Extents)
	}
	torn := shared
	torn.Record = shared.Record[:len(shared.Record)-1]
	flipped := shared
	flipped.Record = bytes.Clone(shared.Record)
	flipped.Record[len(flipped.Record)/2] ^= 1
	short := shared
	short.Extents--
	for name, s := range map[string]SharedIndex{"torn": torn, "flipped": flipped, "over the bound": short} {
		p := New(mem)
		if f, err := p.OpenShared(path, 3, s); err == nil {
			f.Close(3)
			t.Errorf("%s: OpenShared succeeded", name)
		}
		if n := p.OpenContainers(); n != 0 {
			t.Errorf("%s: %d containers left open", name, n)
		}
	}
}
