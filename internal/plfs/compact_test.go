package plfs

import (
	"bytes"
	"fmt"
	"testing"

	"ldplfs/internal/posix"
)

func TestOpenhostsTracksActiveWriters(t *testing.T) {
	p, mem := newTestFS(t)
	f, err := p.Open("/backend/oh", posix.O_CREAT|posix.O_RDWR, 5, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// No writer until the first write.
	if p.hasOpenWriters("/backend/oh") {
		t.Fatal("openhosts populated before first write")
	}
	f.Write([]byte("x"), 0, 5)
	if !p.hasOpenWriters("/backend/oh") {
		t.Fatal("openhosts empty with an active writer")
	}
	if _, err := mem.Stat("/backend/oh/openhosts/host.5"); err != nil {
		t.Fatalf("openhosts record missing: %v", err)
	}
	f.Close(5)
	if p.hasOpenWriters("/backend/oh") {
		t.Fatal("openhosts record survives close")
	}
}

func TestStatSeesLiveWritesViaOpenhosts(t *testing.T) {
	p, _ := newTestFS(t)
	f, _ := p.Open("/backend/live", posix.O_CREAT|posix.O_WRONLY, 1, 0o644)
	f.Write(make([]byte, 100), 0, 1)
	f.Close(1)
	// Stat after the close: 100, also in the flattened record it wrote.
	if st, _ := p.Stat("/backend/live"); st.Size != 100 {
		t.Fatalf("closed size = %d", st.Size)
	}
	// A new writer extends the file but has not closed: the record still
	// says 100, but the writer's openhosts record (and its droppings)
	// distrust it, so the index merge sees 500.
	g, _ := p.Open("/backend/live", posix.O_WRONLY, 2, 0o644)
	g.Write(make([]byte, 400), 100, 2)
	g.Sync(2)
	st, err := p.Stat("/backend/live")
	if err != nil || st.Size != 500 {
		t.Fatalf("live stat = %d, %v; want 500 (index merge)", st.Size, err)
	}
	g.Close(2)
	// After close, the refreshed record also says 500.
	st, _ = p.Stat("/backend/live")
	if st.Size != 500 {
		t.Fatalf("post-close stat = %d", st.Size)
	}
}

func TestCompactIndexPreservesContent(t *testing.T) {
	p, _ := newTestFS(t)
	f, _ := p.Open("/backend/c", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	// Many writers, overlapping writes, so the merge is nontrivial.
	want := make([]byte, 8192)
	for i := 0; i < 16; i++ {
		pid := uint32(i % 5)
		buf := bytes.Repeat([]byte{byte(i + 1)}, 1024)
		off := int64(i%8) * 1024
		f.Write(buf, off, pid)
		copy(want[off:], buf)
	}
	for pid := uint32(0); pid < 5; pid++ {
		f.Close(pid)
	}

	before, err := indexDroppings(p, "/backend/c")
	if err != nil {
		t.Fatal(err)
	}
	if before < 2 {
		t.Fatalf("want multiple index droppings before compaction, got %d", before)
	}
	if err := p.CompactIndex("/backend/c"); err != nil {
		t.Fatal(err)
	}
	after, _ := indexDroppings(p, "/backend/c")
	if after != 1 {
		t.Fatalf("index droppings after compaction = %d, want 1", after)
	}

	g, err := p.Open("/backend/c", posix.O_RDONLY, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := g.Read(got, 0); err != nil || n != len(want) {
		t.Fatalf("read after compaction = %d, %v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("compaction changed logical content")
	}
	g.Close(9)

	st, err := p.Stat("/backend/c")
	if err != nil || st.Size != int64(len(want)) {
		t.Fatalf("stat after compaction = %+v, %v", st, err)
	}
}

func TestCompactIndexRefusesActiveWriters(t *testing.T) {
	p, _ := newTestFS(t)
	f, _ := p.Open("/backend/busy", posix.O_CREAT|posix.O_WRONLY, 1, 0o644)
	f.Write([]byte("x"), 0, 1)
	if err := p.CompactIndex("/backend/busy"); err == nil {
		t.Fatal("compaction allowed with active writer")
	}
	f.Close(1)
	if err := p.CompactIndex("/backend/busy"); err != nil {
		t.Fatalf("compaction after close: %v", err)
	}
}

func TestCompactIndexMissingContainer(t *testing.T) {
	p, _ := newTestFS(t)
	if err := p.CompactIndex("/backend/absent"); err == nil {
		t.Fatal("compaction of missing container succeeded")
	}
}

func TestWriteAfterCompaction(t *testing.T) {
	// New writers append fresh droppings after a compaction; reads merge
	// the flattened index with the new records.
	p, _ := newTestFS(t)
	f, _ := p.Open("/backend/wac", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	f.Write([]byte("old"), 0, 1)
	f.Close(1)
	if err := p.CompactIndex("/backend/wac"); err != nil {
		t.Fatal(err)
	}
	g, _ := p.Open("/backend/wac", posix.O_WRONLY, 2, 0o644)
	g.Write([]byte("new"), 3, 2)
	g.Close(2)
	h, _ := p.Open("/backend/wac", posix.O_RDONLY, 3, 0)
	got := make([]byte, 6)
	if n, err := h.Read(got, 0); err != nil || n != 6 || string(got) != "oldnew" {
		t.Fatalf("read = %q (%d), %v", got[:n], n, err)
	}
	h.Close(3)
}

func BenchmarkReadOpenAfterCompaction(b *testing.B) {
	// The motivation for flatten_index: first-read cost scales with the
	// number of index droppings.
	build := func(compact bool) *FS {
		mem := posix.NewMemFS()
		mem.Mkdir("/backend", 0o755)
		p := New(mem)
		f, _ := p.Open("/backend/f", posix.O_CREAT|posix.O_WRONLY, 0, 0o644)
		for w := 0; w < 64; w++ {
			f.Write(make([]byte, 4096), int64(w)*4096, uint32(w))
		}
		for w := 0; w < 64; w++ {
			f.Close(uint32(w))
		}
		if compact {
			if err := p.CompactIndex("/backend/f"); err != nil {
				b.Fatal(err)
			}
		}
		return p
	}
	for _, mode := range []struct {
		name    string
		compact bool
	}{{"sharded", false}, {"compacted", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p := build(mode.compact)
			buf := make([]byte, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := p.Open("/backend/f", posix.O_RDONLY, 99, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.Read(buf, 0); err != nil {
					b.Fatal(err)
				}
				f.Close(99)
			}
		})
	}
}

// indexDroppings counts the container's index dropping files, as
// IndexHealth reports them.
func indexDroppings(p *FS, path string) (int, error) {
	h, err := p.IndexHealth(path)
	return h.IndexDroppings, err
}

func TestIndexDroppingsCount(t *testing.T) {
	p, _ := newTestFS(t)
	f, _ := p.Open("/backend/n", posix.O_CREAT|posix.O_WRONLY, 0, 0o644)
	for pid := uint32(0); pid < 6; pid++ {
		f.Write([]byte(fmt.Sprintf("w%d", pid)), int64(pid)*2, pid)
	}
	for pid := uint32(0); pid < 6; pid++ {
		f.Close(pid)
	}
	n, err := indexDroppings(p, "/backend/n")
	if err != nil || n != 6 {
		t.Fatalf("IndexDroppings = %d, %v; want 6", n, err)
	}
}
