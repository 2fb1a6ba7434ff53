package plfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ldplfs/internal/posix"
)

func newTestFS(t *testing.T) (*FS, *posix.MemFS) {
	t.Helper()
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	return New(mem, EngineOptions{NumHostdirs: 4}), mem
}

func TestWriteReadSingleWriter(t *testing.T) {
	p, _ := newTestFS(t)
	f, err := p.Open("/backend/file", posix.O_CREAT|posix.O_RDWR, 100, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the quick brown fox")
	if n, err := f.Write(payload, 0, 100); err != nil || n != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	got := make([]byte, len(payload))
	if n, err := f.Read(got, 0); err != nil || n != len(payload) {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Read = %q, want %q", got, payload)
	}
	if size, err := f.Size(); err != nil || size != int64(len(payload)) {
		t.Fatalf("Size = %d, %v", size, err)
	}
	if err := f.Close(100); err != nil {
		t.Fatal(err)
	}
}

func TestContainerStructureOnDisk(t *testing.T) {
	p, mem := newTestFS(t)
	f, err := p.Open("/backend/out", posix.O_CREAT|posix.O_WRONLY, 7, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("data"), 0, 7)
	f.Close(7)

	// The "file" is a directory containing the marker, version, meta and
	// one hostdir with a data and an index dropping — Figure 1 structure.
	st, err := mem.Stat("/backend/out")
	if err != nil || !st.IsDir() {
		t.Fatalf("container is not a directory: %v", err)
	}
	for _, want := range []string{".plfsaccess", "version", "meta"} {
		if _, err := mem.Stat("/backend/out/" + want); err != nil {
			t.Fatalf("missing %s: %v", want, err)
		}
	}
	hostdir := fmt.Sprintf("/backend/out/hostdir.%d", 7%4)
	entries, err := mem.Readdir(hostdir)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Name] = true
	}
	if !names["dropping.data.7"] || !names["dropping.index.7"] {
		t.Fatalf("hostdir entries = %v", names)
	}
	if !p.IsContainer("/backend/out") {
		t.Fatal("IsContainer = false")
	}
	if p.IsContainer("/backend") {
		t.Fatal("plain dir reported as container")
	}
}

func TestMultiWriterPartitioning(t *testing.T) {
	p, mem := newTestFS(t)
	f, err := p.Open("/backend/shared", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Six writers, interleaved strided writes — the paper's Figure 1
	// pattern (6 blocks, 3 hosts).
	const block = 1024
	for i := 0; i < 6; i++ {
		pid := uint32(i)
		buf := bytes.Repeat([]byte{byte('A' + i)}, block)
		if _, err := f.Write(buf, int64(i*block), pid); err != nil {
			t.Fatal(err)
		}
	}
	// Each writer produced its own data dropping.
	droppings := 0
	for h := 0; h < 4; h++ {
		entries, err := mem.Readdir(fmt.Sprintf("/backend/shared/hostdir.%d", h))
		if errors.Is(err, posix.ENOENT) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if len(e.Name) > 14 && e.Name[:14] == "dropping.data." {
				droppings++
			}
		}
	}
	if droppings != 6 {
		t.Fatalf("data droppings = %d, want 6 (one per writer)", droppings)
	}
	// Logical view is the concatenation.
	got := make([]byte, 6*block)
	if n, err := f.Read(got, 0); err != nil || n != len(got) {
		t.Fatalf("Read = %d, %v", n, err)
	}
	for i := 0; i < 6; i++ {
		if got[i*block] != byte('A'+i) || got[(i+1)*block-1] != byte('A'+i) {
			t.Fatalf("block %d corrupted: %c", i, got[i*block])
		}
	}
	f.Close(0)
}

func TestOverwriteLastWriterWins(t *testing.T) {
	p, _ := newTestFS(t)
	f, _ := p.Open("/backend/ow", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	f.Write(bytes.Repeat([]byte{'x'}, 100), 0, 1)
	f.Write(bytes.Repeat([]byte{'y'}, 10), 45, 2)
	got := make([]byte, 100)
	if _, err := f.Read(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		want := byte('x')
		if i >= 45 && i < 55 {
			want = 'y'
		}
		if b != want {
			t.Fatalf("byte %d = %c, want %c", i, b, want)
		}
	}
	f.Close(1)
	f.Close(2)
}

func TestHolesReadAsZeros(t *testing.T) {
	p, _ := newTestFS(t)
	f, _ := p.Open("/backend/holes", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	f.Write([]byte("tail"), 1000, 1)
	got := make([]byte, 1004)
	n, err := f.Read(got, 0)
	if err != nil || n != 1004 {
		t.Fatalf("Read = %d, %v", n, err)
	}
	for i := 0; i < 1000; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %d", i, got[i])
		}
	}
	if string(got[1000:]) != "tail" {
		t.Fatalf("tail = %q", got[1000:])
	}
	f.Close(1)
}

func TestReadBeyondEOF(t *testing.T) {
	p, _ := newTestFS(t)
	f, _ := p.Open("/backend/eof", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	f.Write([]byte("12345"), 0, 1)
	buf := make([]byte, 10)
	n, err := f.Read(buf, 3)
	if err != nil || n != 2 {
		t.Fatalf("Read near EOF = %d, %v; want 2", n, err)
	}
	n, err = f.Read(buf, 5)
	if err != nil || n != 0 {
		t.Fatalf("Read at EOF = %d, %v; want 0", n, err)
	}
	n, err = f.Read(buf, 100)
	if err != nil || n != 0 {
		t.Fatalf("Read past EOF = %d, %v; want 0", n, err)
	}
	f.Close(1)
}

func TestOpenSemantics(t *testing.T) {
	p, mem := newTestFS(t)
	if _, err := p.Open("/backend/nope", posix.O_RDONLY, 1, 0); !errors.Is(err, posix.ENOENT) {
		t.Fatalf("open missing = %v, want ENOENT", err)
	}
	f, err := p.Open("/backend/new", posix.O_CREAT|posix.O_WRONLY, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("abc"), 0, 1)
	f.Close(1)
	if _, err := p.Open("/backend/new", posix.O_CREAT|posix.O_EXCL|posix.O_WRONLY, 1, 0o644); !errors.Is(err, posix.EEXIST) {
		t.Fatalf("O_EXCL on existing = %v, want EEXIST", err)
	}
	// A plain directory is not openable as a PLFS file.
	mem.Mkdir("/backend/plaindir", 0o755)
	if _, err := p.Open("/backend/plaindir", posix.O_WRONLY, 1, 0); !errors.Is(err, posix.EISDIR) {
		t.Fatalf("open plain dir = %v, want EISDIR", err)
	}
	// O_TRUNC empties the container.
	f, err = p.Open("/backend/new", posix.O_WRONLY|posix.O_TRUNC, 2, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Stat("/backend/new")
	if err != nil || st.Size != 0 {
		t.Fatalf("after O_TRUNC: size=%d err=%v", st.Size, err)
	}
	f.Close(2)
	// Write-only handles refuse reads and vice versa.
	f, _ = p.Open("/backend/new", posix.O_WRONLY, 3, 0o644)
	if _, err := f.Read(make([]byte, 1), 0); !errors.Is(err, posix.EBADF) {
		t.Fatalf("read on wronly = %v, want EBADF", err)
	}
	f.Close(3)
	f, _ = p.Open("/backend/new", posix.O_RDONLY, 3, 0)
	if _, err := f.Write([]byte("x"), 0, 3); !errors.Is(err, posix.EBADF) {
		t.Fatalf("write on rdonly = %v, want EBADF", err)
	}
	f.Close(3)
}

func TestStatUsesMetaHints(t *testing.T) {
	p, _ := newTestFS(t)
	f, _ := p.Open("/backend/st", posix.O_CREAT|posix.O_WRONLY, 9, 0o644)
	f.Write(make([]byte, 12345), 0, 9)
	f.Close(9)
	st, err := p.Stat("/backend/st")
	if err != nil || st.Size != 12345 {
		t.Fatalf("Stat = %+v, %v; want size 12345", st, err)
	}
	if st.IsDir() {
		t.Fatal("container stats as directory; should present as a file")
	}
}

func TestStatWithoutMetaFallsBackToIndex(t *testing.T) {
	p, mem := newTestFS(t)
	f, _ := p.Open("/backend/nm", posix.O_CREAT|posix.O_WRONLY, 9, 0o644)
	f.Write(make([]byte, 777), 0, 9)
	f.Sync(9)
	// Simulate a crashed writer: remove meta dir contents, never close.
	entries, _ := mem.Readdir("/backend/nm/meta")
	for _, e := range entries {
		mem.Unlink("/backend/nm/meta/" + e.Name)
	}
	st, err := p.Stat("/backend/nm")
	if err != nil || st.Size != 777 {
		t.Fatalf("Stat = %+v, %v; want 777 via index merge", st, err)
	}
	f.Close(9)
}

func TestUnlinkRemovesContainer(t *testing.T) {
	p, mem := newTestFS(t)
	f, _ := p.Open("/backend/gone", posix.O_CREAT|posix.O_WRONLY, 1, 0o644)
	f.Write([]byte("x"), 0, 1)
	f.Close(1)
	if err := p.Unlink("/backend/gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Stat("/backend/gone"); !errors.Is(err, posix.ENOENT) {
		t.Fatalf("container dir survives unlink: %v", err)
	}
	if err := p.Unlink("/backend/gone"); !errors.Is(err, posix.ENOENT) {
		t.Fatalf("double unlink = %v, want ENOENT", err)
	}
}

func TestRename(t *testing.T) {
	p, _ := newTestFS(t)
	f, _ := p.Open("/backend/a", posix.O_CREAT|posix.O_WRONLY, 1, 0o644)
	f.Write([]byte("content"), 0, 1)
	f.Close(1)
	if err := p.Rename("/backend/a", "/backend/b"); err != nil {
		t.Fatal(err)
	}
	if p.IsContainer("/backend/a") {
		t.Fatal("source survives rename")
	}
	f, err := p.Open("/backend/b", posix.O_RDONLY, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if n, _ := f.Read(buf, 0); n != 7 || string(buf) != "content" {
		t.Fatalf("renamed content = %q", buf[:n])
	}
	f.Close(2)
}

func TestTruncateToZero(t *testing.T) {
	p, _ := newTestFS(t)
	f, _ := p.Open("/backend/tz", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	f.Write(make([]byte, 5000), 0, 1)
	if err := f.Trunc(0); err != nil {
		t.Fatal(err)
	}
	if size, _ := f.Size(); size != 0 {
		t.Fatalf("size after trunc = %d", size)
	}
	// Writing after a truncate works and lands at the right offset.
	f.Write([]byte("fresh"), 2, 1)
	got := make([]byte, 7)
	if n, _ := f.Read(got, 0); n != 7 || string(got[2:]) != "fresh" {
		t.Fatalf("after trunc+write: %q (n=%d)", got[:n], n)
	}
	f.Close(1)
}

func TestTruncatePartial(t *testing.T) {
	p, _ := newTestFS(t)
	f, _ := p.Open("/backend/tp", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	f.Write(bytes.Repeat([]byte{'a'}, 100), 0, 1)
	f.Write(bytes.Repeat([]byte{'b'}, 100), 100, 2)
	f.Close(2)
	if err := f.Trunc(150); err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	if err != nil || size != 150 {
		t.Fatalf("size = %d, %v; want 150", size, err)
	}
	got := make([]byte, 200)
	n, err := f.Read(got, 0)
	if err != nil || n != 150 {
		t.Fatalf("Read = %d, %v; want 150", n, err)
	}
	for i := 0; i < 100; i++ {
		if got[i] != 'a' {
			t.Fatalf("byte %d = %c", i, got[i])
		}
	}
	for i := 100; i < 150; i++ {
		if got[i] != 'b' {
			t.Fatalf("byte %d = %c", i, got[i])
		}
	}
	f.Close(1)
	// Stat agrees after close.
	st, err := p.Stat("/backend/tp")
	if err != nil || st.Size != 150 {
		t.Fatalf("Stat after trunc = %d, %v", st.Size, err)
	}
}

func TestFlatten(t *testing.T) {
	p, mem := newTestFS(t)
	f, _ := p.Open("/backend/fl", posix.O_CREAT|posix.O_WRONLY, 1, 0o644)
	want := make([]byte, 100000)
	for i := range want {
		want[i] = byte(i * 7)
	}
	// Write out of order from two writers.
	f.Write(want[50000:], 50000, 2)
	f.Write(want[:50000], 0, 1)
	f.Close(1)
	f.Close(2)
	if err := p.Flatten("/backend/fl", "/backend/flat.bin"); err != nil {
		t.Fatal(err)
	}
	st, err := mem.Stat("/backend/flat.bin")
	if err != nil || st.Size != int64(len(want)) {
		t.Fatalf("flat stat = %+v, %v", st, err)
	}
	fd, _ := mem.Open("/backend/flat.bin", posix.O_RDONLY, 0)
	got := make([]byte, len(want))
	if err := posix.ReadFull(mem, fd, got, 0); err != nil {
		t.Fatal(err)
	}
	mem.Close(fd)
	if !bytes.Equal(got, want) {
		t.Fatal("flattened bytes differ from logical content")
	}
}

func TestReopenAppendsToExistingDroppings(t *testing.T) {
	p, _ := newTestFS(t)
	f, _ := p.Open("/backend/re", posix.O_CREAT|posix.O_WRONLY, 5, 0o644)
	f.Write([]byte("first"), 0, 5)
	f.Close(5)
	// Same pid reopens: index dropping must accumulate, not truncate.
	f, err := p.Open("/backend/re", posix.O_WRONLY, 5, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("second"), 5, 5)
	f.Close(5)
	f, _ = p.Open("/backend/re", posix.O_RDONLY, 5, 0)
	got := make([]byte, 11)
	if n, err := f.Read(got, 0); err != nil || n != 11 {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if string(got) != "firstsecond" {
		t.Fatalf("content = %q", got)
	}
	f.Close(5)
}

// TestPLFSMatchesFlatFileModel is the central correctness property: any
// interleaving of writes from multiple pids, read back through PLFS, must
// equal the same writes applied to a flat file.
func TestPLFSMatchesFlatFileModel(t *testing.T) {
	const maxFile = 1 << 14
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, _ := newTestFS(t)
		f, err := p.Open("/backend/model", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		model := make([]byte, 0, maxFile)

		nOps := 50 + rng.Intn(100)
		for op := 0; op < nOps; op++ {
			pid := uint32(rng.Intn(5))
			off := int64(rng.Intn(maxFile / 2))
			length := 1 + rng.Intn(512)
			buf := make([]byte, length)
			rng.Read(buf)
			if _, err := f.Write(buf, off, pid); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if end := off + int64(length); end > int64(len(model)) {
				model = append(model, make([]byte, end-int64(len(model)))...)
			}
			copy(model[off:], buf)

			// Occasionally interleave a read of a random window.
			if rng.Intn(4) == 0 && len(model) > 0 {
				roff := int64(rng.Intn(len(model)))
				rlen := 1 + rng.Intn(600)
				got := make([]byte, rlen)
				n, err := f.Read(got, roff)
				if err != nil {
					t.Fatalf("seed %d: read: %v", seed, err)
				}
				wantN := len(model) - int(roff)
				if wantN > rlen {
					wantN = rlen
				}
				if n != wantN {
					t.Fatalf("seed %d: read n=%d want %d", seed, n, wantN)
				}
				if !bytes.Equal(got[:n], model[roff:roff+int64(n)]) {
					t.Fatalf("seed %d: read window diverged at off %d", seed, roff)
				}
			}
		}

		if size, _ := f.Size(); size != int64(len(model)) {
			t.Fatalf("seed %d: size %d, want %d", seed, size, len(model))
		}
		got := make([]byte, len(model))
		if _, err := f.Read(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("seed %d: full content diverged", seed)
		}
		for pid := uint32(0); pid < 5; pid++ {
			f.Close(pid)
		}
	}
}

func TestConcurrentWriters(t *testing.T) {
	p, _ := newTestFS(t)
	f, err := p.Open("/backend/conc", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const (
		ranks = 8
		block = 4096
	)
	done := make(chan error, ranks)
	for r := 0; r < ranks; r++ {
		go func(r int) {
			buf := bytes.Repeat([]byte{byte(r + 1)}, block)
			_, err := f.Write(buf, int64(r*block), uint32(r))
			done <- err
		}(r)
	}
	for r := 0; r < ranks; r++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, ranks*block)
	if n, err := f.Read(got, 0); err != nil || n != len(got) {
		t.Fatalf("Read = %d, %v", n, err)
	}
	for r := 0; r < ranks; r++ {
		for i := r * block; i < (r+1)*block; i++ {
			if got[i] != byte(r+1) {
				t.Fatalf("rank %d block corrupted at %d: %d", r, i, got[i])
			}
		}
	}
	for r := 0; r < ranks; r++ {
		f.Close(uint32(r))
	}
}
