package plfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ldplfs/internal/plfs/readcache"
	"ldplfs/internal/posix"
)

// writeN1 builds a classic N-1 container: writers pids [0,n) each write
// their strided blocks of size block, striping round-robin across the
// logical file, then close.
func writeN1(t testing.TB, p *FS, path string, writers, blocksPer, block int) []byte {
	t.Helper()
	want := make([]byte, writers*blocksPer*block)
	f, err := p.Open(path, posix.O_CREAT|posix.O_WRONLY, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for b := 0; b < blocksPer; b++ {
			off := int64((b*writers + w) * block)
			payload := bytes.Repeat([]byte{byte(w*31 + b + 1)}, block)
			copy(want[off:], payload)
			if _, err := f.Write(payload, off, uint32(w)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for w := 0; w < writers; w++ {
		if err := f.Close(uint32(w)); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

func TestParallelReadMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			mem := posix.NewMemFS()
			mem.Mkdir("/backend", 0o755)
			p := New(mem)
			p.workers = workers
			want := writeN1(t, p, "/backend/n1", 16, 8, 512)

			f, err := p.Open("/backend/n1", posix.O_RDONLY, 99, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close(99)
			got := make([]byte, len(want))
			n, err := f.Read(got, 0)
			if err != nil || n != len(want) {
				t.Fatalf("Read = %d, %v", n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("parallel gather corrupted data")
			}
			// Unaligned interior read crossing many extents.
			n, err = f.Read(got[:5000], 777)
			if err != nil || n != 5000 {
				t.Fatalf("interior Read = %d, %v", n, err)
			}
			if !bytes.Equal(got[:5000], want[777:777+5000]) {
				t.Fatal("interior gather corrupted data")
			}
		})
	}
}

func TestSharedIndexBuildsOncePerContainer(t *testing.T) {
	mem := posix.NewMemFS()
	mem.Mkdir("/backend", 0o755)
	p := New(mem)
	want := writeN1(t, p, "/backend/shared", 8, 4, 256)

	// N sequential opens + reads: one full build; reopens revalidate by
	// signature instead of re-merging every dropping.
	base := cacheStats(p).Builds
	for i := 0; i < 6; i++ {
		f, err := p.Open("/backend/shared", posix.O_RDONLY, uint32(100+i), 0)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if n, err := f.Read(got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
			t.Fatalf("open %d: Read = %d, %v", i, n, err)
		}
		f.Close(uint32(100 + i))
	}
	s := cacheStats(p)
	if builds := s.Builds - base; builds != 1 {
		t.Fatalf("builds = %d across 6 opens, want 1 (shared cache)", builds)
	}
	if s.Revalidations == 0 {
		t.Fatal("reopens performed no close-to-open revalidation")
	}
}

func TestCacheInvalidatedByWrite(t *testing.T) {
	mem := posix.NewMemFS()
	mem.Mkdir("/backend", 0o755)
	p := New(mem)
	f, err := p.Open("/backend/w", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(1)
	got := make([]byte, 8)
	f.Write([]byte("old-data"), 0, 1)
	if n, _ := f.Read(got, 0); string(got[:n]) != "old-data" {
		t.Fatalf("first read = %q", got[:n])
	}
	// A write after the index is cached must be visible to the next read.
	f.Write([]byte("new"), 0, 1)
	if n, _ := f.Read(got, 0); string(got[:n]) != "new-data" {
		t.Fatalf("read after overwrite = %q, cache not invalidated", got[:n])
	}
}

func TestCacheInvalidatedByTrunc(t *testing.T) {
	mem := posix.NewMemFS()
	mem.Mkdir("/backend", 0o755)
	p := New(mem)
	f, _ := p.Open("/backend/t", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	defer f.Close(1)
	f.Write(bytes.Repeat([]byte{7}, 1000), 0, 1)
	if size, _ := f.Size(); size != 1000 {
		t.Fatalf("size = %d", size)
	}
	if err := f.Trunc(100); err != nil {
		t.Fatal(err)
	}
	if size, _ := f.Size(); size != 100 {
		t.Fatalf("size after open-handle trunc = %d, cache not invalidated", size)
	}

	// Path-level truncate on a closed container invalidates too.
	g, _ := p.Open("/backend/t2", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	g.Write(bytes.Repeat([]byte{9}, 500), 0, 1)
	if size, _ := g.Size(); size != 500 {
		t.Fatal("setup")
	}
	g.Close(1)
	if err := p.Truncate("/backend/t2", 50); err != nil {
		t.Fatal(err)
	}
	h, _ := p.Open("/backend/t2", posix.O_RDONLY, 2, 0)
	defer h.Close(2)
	if size, _ := h.Size(); size != 50 {
		t.Fatalf("size after FS.Truncate = %d, want 50", size)
	}
}

func TestCacheInvalidatedByCompactIndex(t *testing.T) {
	mem := posix.NewMemFS()
	mem.Mkdir("/backend", 0o755)
	p := New(mem)
	want := writeN1(t, p, "/backend/c", 8, 4, 128)

	// Prime the cache through a reader, keep the handle open across the
	// compaction: compaction replaces every dropping, so a cached index
	// pointing at the old ones must be rebuilt, not trusted.
	f, err := p.Open("/backend/c", posix.O_RDONLY, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(50)
	got := make([]byte, len(want))
	if n, _ := f.Read(got, 0); n != len(want) {
		t.Fatal("prime read")
	}
	if err := p.CompactIndex("/backend/c"); err != nil {
		t.Fatal(err)
	}
	if n, err := indexDroppings(p, "/backend/c"); err != nil || n != 1 {
		t.Fatalf("droppings after compact = %d, %v", n, err)
	}
	for i := range got {
		got[i] = 0
	}
	if n, err := f.Read(got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("read after compact = %d, %v", n, err)
	}
}

func TestConcurrentReadersDuringActiveWriter(t *testing.T) {
	mem := posix.NewMemFS()
	mem.Mkdir("/backend", 0o755)
	p := New(mem)
	const block = 256

	w, err := p.Open("/backend/live", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Seed one block so readers always have something at offset 0.
	w.Write(bytes.Repeat([]byte{1}, block), 0, 1)
	w.Sync(1)

	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	writerWG.Add(1)
	go func() { // active writer: append blocks, syncing each
		defer writerWG.Done()
		// Bounded: every sync invalidates the shared index, so readers
		// rebuild against a growing entry count — unbounded appends here
		// would make those rebuilds quadratic and the test unbounded too.
		for i := 1; i <= 300; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w.Write(bytes.Repeat([]byte{byte(i%250 + 1)}, block), int64(i*block), 1)
			w.Sync(1)
		}
	}()
	for r := 0; r < 8; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			f, err := p.Open("/backend/live", posix.O_RDONLY, uint32(100+r), 0)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close(uint32(100 + r))
			buf := make([]byte, block)
			for i := 0; i < 200; i++ {
				n, err := f.Read(buf, 0)
				if err != nil || n != block {
					t.Errorf("reader %d: Read = %d, %v", r, n, err)
					return
				}
				// Block 0 was written once before any reader started and
				// never overwritten: it must always read back intact.
				for j := 0; j < n; j++ {
					if buf[j] != 1 {
						t.Errorf("reader %d: byte %d = %d mid-write", r, j, buf[j])
						return
					}
				}
			}
		}(r)
	}
	// Let readers finish, then stop the writer.
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	w.Close(1)
}

// TestReadEngineRaceHammer drives one container from many goroutines —
// writers appending+syncing, readers scatter-gathering, stat and size
// probes — to give the race detector surface area over the cache, the
// fd cache and the RWMutex read path. Correctness of the data is
// checked afterwards.
func TestReadEngineRaceHammer(t *testing.T) {
	mem := posix.NewMemFS()
	mem.Mkdir("/backend", 0o755)
	p := New(mem)
	p.fds = readcache.NewFDCache(mem, 8)
	const (
		writers = 4
		readers = 8
		rounds  = 40
		block   = 128
	)
	f, err := p.Open("/backend/hammer", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w + 1)}, block)
			for i := 0; i < rounds; i++ {
				off := int64((i*writers + w) * block)
				if _, err := f.Write(payload, off, uint32(w)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%8 == 0 {
					f.Sync(uint32(w))
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g, err := p.Open("/backend/hammer", posix.O_RDONLY, uint32(200+r), 0)
			if err != nil {
				t.Error(err)
				return
			}
			defer g.Close(uint32(200 + r))
			buf := make([]byte, 4*block)
			for i := 0; i < rounds; i++ {
				if _, err := g.Read(buf, int64((i%rounds)*block)); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if _, err := g.Size(); err != nil {
					t.Errorf("reader %d size: %v", r, err)
					return
				}
				if i%10 == 0 {
					if _, err := p.Stat("/backend/hammer"); err != nil {
						t.Errorf("reader %d stat: %v", r, err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		if err := f.Close(uint32(w)); err != nil {
			t.Fatal(err)
		}
	}

	// Quiesced: every block must hold exactly its writer's byte.
	g, _ := p.Open("/backend/hammer", posix.O_RDONLY, 99, 0)
	defer g.Close(99)
	got := make([]byte, writers*rounds*block)
	if n, err := g.Read(got, 0); err != nil || n != len(got) {
		t.Fatalf("final read = %d, %v", n, err)
	}
	for i := 0; i < writers*rounds; i++ {
		wantByte := byte(i%writers + 1)
		for j := i * block; j < (i+1)*block; j++ {
			if got[j] != wantByte {
				t.Fatalf("block %d byte %d = %d, want %d", i, j, got[j], wantByte)
			}
		}
	}
}

func TestShortReadOnMidExtentError(t *testing.T) {
	mem := posix.NewMemFS()
	mem.Mkdir("/backend", 0o755)
	ffs := posix.NewFaultFS(mem)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ffs.Clear()
			p := New(ffs)
			p.workers = workers
			path := fmt.Sprintf("/backend/short%d", workers)
			f, err := p.Open(path, posix.O_CREAT|posix.O_RDWR, 0, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			// Three extents from three writers: pid 0 at [0,100), pid 1 at
			// [100,200), pid 2 at [200,300).
			for pid := 0; pid < 3; pid++ {
				payload := bytes.Repeat([]byte{byte(pid + 1)}, 100)
				if _, err := f.Write(payload, int64(pid*100), uint32(pid)); err != nil {
					t.Fatal(err)
				}
			}
			// Build the index first (no faults), then fail only pid 1's
			// data dropping.
			buf := make([]byte, 300)
			if n, err := f.Read(buf, 0); err != nil || n != 300 {
				t.Fatalf("pre-fault read = %d, %v", n, err)
			}
			ffs.Inject(&posix.FaultRule{Op: posix.FaultRead, PathContains: "dropping.data.1", Err: posix.EIO})
			n, err := f.Read(buf, 0)
			if err == nil {
				t.Fatal("mid-extent fault masked")
			}
			// Documented contract: n is the contiguous error-free prefix —
			// exactly the 100 bytes of pid 0's extent, valid in buf[:n].
			if n != 100 {
				t.Fatalf("short read n = %d, want 100 (error-free prefix)", n)
			}
			for i := 0; i < n; i++ {
				if buf[i] != 1 {
					t.Fatalf("prefix byte %d = %d corrupted", i, buf[i])
				}
			}
			ffs.Clear()
			for pid := 0; pid < 3; pid++ {
				f.Close(uint32(pid))
			}
		})
	}
}

func TestReadFDsCappedOnWideContainer(t *testing.T) {
	mem := posix.NewMemFS()
	mem.Mkdir("/backend", 0o755)
	// 64 writers, fd cache capped at 8: the gather succeeds eight
	// droppings at a time and never holds more than the cap.
	p := New(mem)
	p.fds = readcache.NewFDCache(mem, 8)
	p.workers = 4
	want := writeN1(t, p, "/backend/wide", 64, 2, 64)
	f, err := p.Open("/backend/wide", posix.O_RDONLY, 999, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := f.Read(got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("wide read = %d, %v", n, err)
	}
	if fds := p.CachedReadFDs(); fds > 8 {
		t.Fatalf("cached read fds = %d, want <= cap 8", fds)
	}
	f.Close(999)
	// Last handle gone: the container's read fds are drained (plfs_close
	// semantics), nothing leaks.
	if fds := p.CachedReadFDs(); fds != 0 {
		t.Fatalf("cached read fds = %d after last close, want 0", fds)
	}
	if got := mem.OpenFDs(); got != 0 {
		t.Fatalf("backend fds leaked: %d", got)
	}
}

func TestCrossInstanceCloseToOpenConsistency(t *testing.T) {
	mem := posix.NewMemFS()
	mem.Mkdir("/backend", 0o755)
	// Two library instances over one backend — two "processes". A reader
	// instance that cached the index must see a second process's writes
	// on its next open (close-to-open), via signature revalidation.
	pA := New(mem)
	pB := New(mem)

	fA, _ := pA.Open("/backend/x", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	fA.Write([]byte("first"), 0, 1)
	fA.Close(1)

	// B reads (and caches) the 5-byte file.
	fB, _ := pB.Open("/backend/x", posix.O_RDONLY, 2, 0)
	buf := make([]byte, 32)
	if n, _ := fB.Read(buf, 0); string(buf[:n]) != "first" {
		t.Fatalf("B initial read = %q", buf[:n])
	}
	fB.Close(2)

	// A extends the file from its own instance.
	fA, _ = pA.Open("/backend/x", posix.O_WRONLY, 1, 0o644)
	fA.Write([]byte("-second"), 5, 1)
	fA.Close(1)

	// B's fresh open revalidates and sees 12 bytes, not its stale 5.
	fB, _ = pB.Open("/backend/x", posix.O_RDONLY, 2, 0)
	defer fB.Close(2)
	if n, err := fB.Read(buf, 0); err != nil || string(buf[:n]) != "first-second" {
		t.Fatalf("B reopened read = %q, %v (stale cache?)", buf[:n], err)
	}
}
