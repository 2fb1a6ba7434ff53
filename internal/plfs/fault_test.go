package plfs

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"ldplfs/internal/posix"
)

// faultPLFS builds a PLFS instance over a fault-injecting MemFS.
func faultPLFS(t *testing.T) (*FS, *posix.FaultFS, *posix.MemFS) {
	t.Helper()
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	ffs := posix.NewFaultFS(mem)
	return New(ffs), ffs, mem
}

// TestENOSPCDuringDataWrite: a small write is staged, so the device
// filling up surfaces at the Sync that lands it (see "Write-behind" in
// writeengine.go). The synced write survives and the failed one leaves
// no phantom index entry.
func TestENOSPCDuringDataWrite(t *testing.T) {
	p, ffs, _ := faultPLFS(t)
	f, err := p.Open("/backend/full", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("fits"), 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(1); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(&posix.FaultRule{Op: posix.FaultWrite, Err: posix.ENOSPC})
	if _, err := f.Write([]byte("does not"), 4, 1); err != nil {
		t.Fatalf("staged write on full device = %v, want it accepted", err)
	}
	if err := f.Sync(1); !errors.Is(err, posix.ENOSPC) {
		t.Fatalf("sync on full device = %v, want ENOSPC", err)
	}
	ffs.Clear()
	// The successful write survives; no phantom index entry for the
	// failed one (its payload never reached the dropping).
	got := make([]byte, 16)
	n, err := f.Read(got, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || string(got[:n]) != "fits" {
		t.Fatalf("content after ENOSPC = %q (n=%d)", got[:n], n)
	}
	f.Close(1)
}

// TestENOSPCDuringDataWriteUnstaged is its twin for a write too large
// to stage: it lands before Write returns, so Write itself fails.
func TestENOSPCDuringDataWriteUnstaged(t *testing.T) {
	p, ffs, _ := faultPLFS(t)
	f, err := p.Open("/backend/full", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fits := bytes.Repeat([]byte{'f'}, stageBelow)
	if _, err := f.Write(fits, 0, 1); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(&posix.FaultRule{Op: posix.FaultWrite, Err: posix.ENOSPC})
	if n, err := f.Write(bytes.Repeat([]byte{'x'}, stageBelow), stageBelow, 1); n != 0 || !errors.Is(err, posix.ENOSPC) {
		t.Fatalf("unstaged write on full device = %d, %v, want 0, ENOSPC", n, err)
	}
	ffs.Clear()
	got := make([]byte, 2*stageBelow)
	n, err := f.Read(got, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != stageBelow || !bytes.Equal(got[:n], fits) {
		t.Fatalf("content after ENOSPC: n=%d, want the %d bytes that fit", n, stageBelow)
	}
	f.Close(1)
}

// TestLandingErrorReachesItsWriter: a staged write whose landing fails
// in a call made on someone else's behalf — a read, a Size through a
// read-only handle of another pid, a path Stat or MergedIndex, a
// truncate — gives that call no error; the failure is kept for the
// writer, whose next Write, Sync or Close reports it once.
func TestLandingErrorReachesItsWriter(t *testing.T) {
	const path = "/backend/kept"
	readers := []struct {
		name string
		call func(p *FS, f *File) error
	}{
		{"read", func(p *FS, f *File) error {
			got := make([]byte, 16)
			n, err := f.Read(got, 0)
			if err == nil && string(got[:n]) != "fits" {
				t.Errorf("read while landing fails = %q, want the synced %q", got[:n], "fits")
			}
			return err
		}},
		{"size", func(p *FS, f *File) error {
			g, err := p.Open(path, posix.O_RDONLY, 2, 0)
			if err != nil {
				return err
			}
			defer g.Close(2)
			_, err = g.Size()
			return err
		}},
		{"stat", func(p *FS, f *File) error { _, err := p.Stat(path); return err }},
		{"merged-index", func(p *FS, f *File) error { _, err := p.MergedIndex(path); return err }},
		{"trunc", func(p *FS, f *File) error { return f.Trunc(4) }},
	}
	reporters := []struct {
		name string
		want string // the file's content afterwards
		call func(f *File) error
	}{
		{"sync", "fits", func(f *File) error {
			err := f.Sync(1)
			if again := f.Sync(1); again != nil {
				t.Errorf("second sync = %v, want the error reported once", again)
			}
			return err
		}},
		{"write", "fitsmore", func(f *File) error {
			n, err := f.Write([]byte("more"), 4, 1)
			if n != 0 {
				t.Errorf("write reporting an earlier failure = %d, want 0 written", n)
			}
			if _, again := f.Write([]byte("more"), 4, 1); again != nil {
				t.Errorf("retried write = %v", again)
			}
			if serr := f.Sync(1); serr != nil {
				t.Errorf("sync after the retry = %v", serr)
			}
			return err
		}},
		{"close", "fits", func(f *File) error {
			err := f.Close(1)
			if again := f.Close(1); again != nil {
				t.Errorf("second close = %v, want a no-op", again)
			}
			return err
		}},
	}
	for _, r := range readers {
		for _, rep := range reporters {
			t.Run(r.name+"-then-"+rep.name, func(t *testing.T) {
				p, ffs, _ := faultPLFS(t)
				f, err := p.Open(path, posix.O_CREAT|posix.O_RDWR, 1, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte("fits"), 0, 1); err != nil {
					t.Fatal(err)
				}
				if err := f.Sync(1); err != nil {
					t.Fatal(err)
				}
				ffs.Inject(&posix.FaultRule{Op: posix.FaultWrite, PathContains: "dropping.data", Err: posix.ENOSPC})
				if _, err := f.Write([]byte("lost"), 4, 1); err != nil {
					t.Fatalf("staged write on full device = %v, want it accepted", err)
				}
				if err := r.call(p, f); err != nil {
					t.Fatalf("%s while the landing fails = %v, want no error", r.name, err)
				}
				ffs.Clear()
				if err := rep.call(f); !errors.Is(err, posix.ENOSPC) {
					t.Fatalf("%s after the %s = %v, want ENOSPC", rep.name, r.name, err)
				}
				f.Close(1)
				g, err := p.Open(path, posix.O_RDONLY, 3, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer g.Close(3)
				got := make([]byte, 16)
				n, err := g.Read(got, 0)
				if err != nil || string(got[:n]) != rep.want {
					t.Fatalf("content = %q, %v; want %q", got[:n], err, rep.want)
				}
			})
		}
	}
}

// TestPartialWriteKeepsIndexInSync is the regression test for the
// partial-write desync: when the backend lands n > 0 bytes and then
// errors, the dropping grew by n, so the durable prefix must be indexed
// and the physical cursor advanced — or every subsequent write's index
// entry points n bytes before its real payload. The write is staged, so
// the partial landing happens at the Sync that lands it.
func TestPartialWriteKeepsIndexInSync(t *testing.T) {
	p, ffs, mem := faultPLFS(t)
	f, err := p.Open("/backend/torn-write", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// The device fills after 40 of the 100 bytes.
	ffs.Inject(&posix.FaultRule{
		Op: posix.FaultWrite, PathContains: "dropping.data",
		Partial: 40, Times: 1, Err: posix.ENOSPC,
	})
	first := bytes.Repeat([]byte{'p'}, 100)
	if n, err := f.Write(first, 0, 1); err != nil || n != 100 {
		t.Fatalf("staged write = %d, %v, want 100 accepted", n, err)
	}
	if err := f.Sync(1); !errors.Is(err, posix.ENOSPC) {
		t.Fatalf("sync on filling device = %v (want ENOSPC)", err)
	}
	ffs.Clear()
	checkTornWrite(t, p, mem, f, "/backend/torn-write", first[:40], 100)
}

// TestPartialWriteKeepsIndexInSyncUnstaged is its twin for a write too
// large to stage: the partial landing happens in Write, which returns
// the durable prefix's length with the error.
func TestPartialWriteKeepsIndexInSyncUnstaged(t *testing.T) {
	p, ffs, mem := faultPLFS(t)
	f, err := p.Open("/backend/torn-write", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ffs.Inject(&posix.FaultRule{
		Op: posix.FaultWrite, PathContains: "dropping.data",
		Partial: 40, Times: 1, Err: posix.ENOSPC,
	})
	first := bytes.Repeat([]byte{'p'}, stageBelow)
	n, err := f.Write(first, 0, 1)
	if !errors.Is(err, posix.ENOSPC) {
		t.Fatalf("write on filling device = %d, %v (want ENOSPC)", n, err)
	}
	if n != 40 {
		t.Fatalf("partial write landed %d bytes, want 40", n)
	}
	ffs.Clear()
	checkTornWrite(t, p, mem, f, "/backend/torn-write", first[:40], 100)
}

// checkTornWrite checks the file after a write of which only prefix
// landed: the prefix reads back, a 60-byte write right after it is not
// shifted, and the data dropping holds both back to back, size bytes.
func checkTornWrite(t *testing.T, p *FS, mem *posix.MemFS, f *File, path string, prefix []byte, size int64) {
	t.Helper()
	// The durable prefix must read back...
	got := make([]byte, len(prefix))
	if rn, err := f.Read(got, 0); err != nil || rn != len(prefix) {
		t.Fatalf("read durable prefix: n=%d err=%v", rn, err)
	}
	if !bytes.Equal(got, prefix) {
		t.Fatal("durable prefix not indexed after partial write")
	}
	// ...and the next successful write must not be shifted by the
	// unrecorded bytes (the original bug: stale physOff).
	second := bytes.Repeat([]byte{'s'}, 60)
	if wn, err := f.Write(second, int64(len(prefix)), 1); err != nil || wn != 60 {
		t.Fatalf("follow-up write: n=%d err=%v", wn, err)
	}
	full := make([]byte, len(prefix)+60)
	if rn, err := f.Read(full, 0); err != nil || rn != len(full) {
		t.Fatalf("full read: n=%d err=%v", rn, err)
	}
	want := append(append([]byte{}, prefix...), second...)
	if !bytes.Equal(full, want) {
		t.Fatal("write after partial failure reads back shifted payload (physOff desync)")
	}
	// ...and the cursor moved by the durable bytes, not the ones asked
	// for: the dropping holds both payloads back to back.
	if st, err := mem.Stat(dataDropping(p.hostdir(path, 1), 1)); err != nil || st.Size != size {
		t.Fatalf("data dropping after follow-up write = %+v, %v; want %d bytes, no gap", st, err, size)
	}
	f.Close(1)
}

func TestCreateContainerFailsCleanly(t *testing.T) {
	p, ffs, mem := faultPLFS(t)
	ffs.Inject(&posix.FaultRule{Op: posix.FaultMeta, PathContains: "/backend/no", Err: posix.EACCES})
	if _, err := p.Open("/backend/no", posix.O_CREAT|posix.O_WRONLY, 1, 0o644); err == nil {
		t.Fatal("container creation should fail when mkdir is refused")
	}
	ffs.Clear()
	if got := mem.OpenFDs(); got != 0 {
		t.Fatalf("%d fds leaked from failed container create", got)
	}
}

func TestIndexDroppingFailureDetectedOnRead(t *testing.T) {
	p, _, mem := faultPLFS(t)
	f, _ := p.Open("/backend/torn", posix.O_CREAT|posix.O_RDWR, 3, 0o644)
	f.Write(make([]byte, 1000), 0, 3)
	f.Sync(3)

	// Corrupt the index dropping on disk: flip a byte in a record.
	idxPath := indexDropping(p.hostdir("/backend/torn", 3), 3)
	fd, err := mem.Open(idxPath, posix.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{0xff}
	if _, err := mem.Pwrite(fd, buf, 20); err != nil { // inside the first record
		t.Fatal(err)
	}
	mem.Close(fd)

	// A fresh reader must refuse the container, not return garbage.
	g, err := p.Open("/backend/torn", posix.O_RDONLY, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Read(make([]byte, 100), 0); err == nil {
		t.Fatal("read over a corrupted index succeeded")
	}
	g.Close(4)
	f.Close(3)
}

func TestTornIndexTailDegradesGracefully(t *testing.T) {
	// A torn tail (crash mid-append, or a short group flush awaiting its
	// retry) drops exactly the unfinished record — which was never
	// promised durable — instead of poisoning the whole container.
	// Records before the tear stay readable, and a writer resuming the
	// dropping trims the tear so its appends stay record-aligned.
	p, _, mem := faultPLFS(t)
	f, _ := p.Open("/backend/tail", posix.O_CREAT|posix.O_WRONLY, 1, 0o644)
	f.Write(make([]byte, 64), 0, 1)
	f.Write([]byte("second record"), 64, 1)
	f.Close(1)

	// Tear the second record: the dropping loses its last 7 bytes.
	idxPath := "/backend/tail/hostdir.1/dropping.index.1"
	st, err := mem.Stat(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Truncate(idxPath, st.Size-7); err != nil {
		t.Fatal(err)
	}
	g, err := p.Open("/backend/tail", posix.O_RDONLY, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if size, err := g.Size(); err != nil || size != 64 {
		t.Fatalf("size over torn tail = %d, %v (want the 64 intact bytes)", size, err)
	}
	if n, err := g.Read(make([]byte, 64), 0); err != nil || n != 64 {
		t.Fatalf("read of intact prefix = %d, %v", n, err)
	}
	g.Close(2)

	// A resumed writer must trim the tear before appending.
	h, err := p.Open("/backend/tail", posix.O_WRONLY, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("healed"), 64, 1); err != nil {
		t.Fatal(err)
	}
	h.Close(1)
	r, err := p.Open("/backend/tail", posix.O_RDONLY, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if n, err := r.Read(buf, 64); err != nil || n != 6 || string(buf) != "healed" {
		t.Fatalf("read after resumed append = %q (n=%d, %v)", buf[:n], n, err)
	}
	r.Close(3)
}

func TestFlakyBackendReadRetries(t *testing.T) {
	p, ffs, _ := faultPLFS(t)
	f, _ := p.Open("/backend/flaky", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	f.Write([]byte("resilient"), 0, 1)
	// One transient read failure: the first Read errors, a retry works
	// (PLFS does not mask transient faults; the caller retries).
	ffs.Inject(&posix.FaultRule{Op: posix.FaultRead, Times: 1, Err: posix.EIO})
	buf := make([]byte, 9)
	if _, err := f.Read(buf, 0); err == nil {
		t.Fatal("flaky read masked")
	}
	if n, err := f.Read(buf, 0); err != nil || string(buf[:n]) != "resilient" {
		t.Fatalf("retry = %q, %v", buf[:n], err)
	}
	f.Close(1)
}

// TestIndexDroppingHeaderWindow holds writer 1 between creating its
// index dropping and writing the header (a gate on the header write) —
// the window a sibling rank's first write or a reader's cold open can
// land in. Both must treat the sub-header dropping as empty — seedClock
// and the cold open each stream it (OpenDroppingStream). Neither may
// fail the container.
func TestIndexDroppingHeaderWindow(t *testing.T) {
	p1, ffs, mem := faultPLFS(t)
	p2 := New(ffs) // a sibling rank: its own instance
	const path = "/backend/window"
	if err := p1.CreateContainer(path, 0o644); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	ffs.Inject(&posix.FaultRule{Op: posix.FaultWrite, PathContains: "dropping.index.1", Times: 1, Gate: gate})
	f1, err := p1.Open(path, posix.O_WRONLY, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := f1.Write([]byte("one"), 0, 1)
		done <- err
	}()
	// Wait for writer 1 to park inside the window: dropping created,
	// header write held at the gate.
	for {
		if st, err := mem.Stat(path + "/hostdir.1/dropping.index.1"); err == nil {
			if st.Size != 0 {
				t.Fatalf("gated dropping already has %d bytes", st.Size)
			}
			break
		}
		runtime.Gosched()
	}

	f2, err := p2.Open(path, posix.O_RDWR, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Write([]byte("two"), 3, 2); err != nil {
		t.Fatalf("sibling's first write inside the header window: %v", err)
	}
	got := make([]byte, 8)
	if n, err := f2.Read(got, 0); err != nil || !bytes.Equal(got[:n], []byte("\x00\x00\x00two")) {
		t.Fatalf("cold read inside the header window = %q, %v", got[:n], err)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("gated writer: %v", err)
	}
	if err := f1.Close(1); err != nil {
		t.Fatal(err)
	}
	if err := f2.Close(2); err != nil {
		t.Fatal(err)
	}
	if all := readAllBytes(t, New(ffs), path); string(all) != "onetwo" {
		t.Fatalf("after the window closed: %q", all)
	}
}

// TestFailedCloseRetiresWriter: a close whose landing or index flush
// fails still retires the writer. It reports the error once, closes
// both of the writer's descriptors, clears its openhosts record and
// drops the container record; closing again is a no-op.
func TestFailedCloseRetiresWriter(t *testing.T) {
	for _, dropping := range []string{"dropping.index", "dropping.data"} {
		t.Run(dropping, func(t *testing.T) {
			p, ffs, mem := faultPLFS(t)
			const path = "/backend/failclose"
			f, err := p.Open(path, posix.O_CREAT|posix.O_RDWR, 1, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("data"), 0, 1); err != nil {
				t.Fatal(err)
			}
			ffs.Inject(&posix.FaultRule{Op: posix.FaultWrite, PathContains: dropping, Err: posix.EIO})
			if err := f.Close(1); !errors.Is(err, posix.EIO) {
				t.Fatalf("close with its flush failing = %v, want EIO", err)
			}
			for i := 0; i < 2; i++ {
				if err := f.Close(1); err != nil {
					t.Fatalf("close again = %v, want nil (a no-op)", err)
				}
			}
			ffs.Clear()
			if n := p.OpenContainers(); n != 0 {
				t.Errorf("open containers after the failed close = %d, want 0", n)
			}
			if got := mem.OpenFDs(); got != 0 {
				t.Errorf("%d backend fds left open by the failed close", got)
			}
			h, err := p.IndexHealth(path)
			if err != nil {
				t.Fatal(err)
			}
			if h.OpenWriters != 0 {
				t.Errorf("openhosts records after the failed close = %d, want 0", h.OpenWriters)
			}
			// The container reads as the failure left it: nothing indexed.
			if size, err := New(ffs).Stat(path); err != nil || size.Size != 0 {
				t.Errorf("a fresh instance's Stat = %+v, %v; want size 0", size, err)
			}
		})
	}
}
