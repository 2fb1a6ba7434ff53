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
	return New(ffs, EngineOptions{NumHostdirs: 2}), ffs, mem
}

func TestENOSPCDuringDataWrite(t *testing.T) {
	p, ffs, _ := faultPLFS(t)
	f, err := p.Open("/backend/full", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("fits"), 0, 1); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(&posix.FaultRule{Op: posix.FaultWrite, Err: posix.ENOSPC})
	if _, err := f.Write([]byte("does not"), 4, 1); !errors.Is(err, posix.ENOSPC) {
		t.Fatalf("write on full device = %v, want ENOSPC", err)
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

// TestPartialWriteKeepsIndexInSync is the regression test for the
// partial-write desync: when the backend lands n > 0 bytes and then
// errors, the dropping grew by n, so the durable prefix must be indexed
// and the physical cursor advanced — or every subsequent write's index
// entry points n bytes before its real payload.
func TestPartialWriteKeepsIndexInSync(t *testing.T) {
	p, ffs, _ := faultPLFS(t)
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
	n, err := f.Write(first, 0, 1)
	if !errors.Is(err, posix.ENOSPC) {
		t.Fatalf("write on filling device = %d, %v (want ENOSPC)", n, err)
	}
	if n != 40 {
		t.Fatalf("partial write landed %d bytes, want 40", n)
	}
	ffs.Clear()
	// The durable prefix must read back...
	got := make([]byte, 40)
	if rn, err := f.Read(got, 0); err != nil || rn != 40 {
		t.Fatalf("read durable prefix: n=%d err=%v", rn, err)
	}
	if !bytes.Equal(got, first[:40]) {
		t.Fatal("durable prefix not indexed after partial write")
	}
	// ...and the next successful write must not be shifted by the
	// unrecorded 40 bytes (the original bug: stale physOff).
	second := bytes.Repeat([]byte{'s'}, 60)
	if wn, err := f.Write(second, 40, 1); err != nil || wn != 60 {
		t.Fatalf("follow-up write: n=%d err=%v", wn, err)
	}
	full := make([]byte, 100)
	if rn, err := f.Read(full, 0); err != nil || rn != 100 {
		t.Fatalf("full read: n=%d err=%v", rn, err)
	}
	want := append(append([]byte{}, first[:40]...), second...)
	if !bytes.Equal(full, want) {
		t.Fatal("write after partial failure reads back shifted payload (physOff desync)")
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
	idxPath := "/backend/torn/hostdir.1/dropping.index.3"
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

func TestMetaHintWriteFailureIsNotFatal(t *testing.T) {
	// Dropping the size hint at close is best-effort in PLFS; a failure
	// there must not fail the close, and stat must still work via the
	// index merge.
	p, ffs, _ := faultPLFS(t)
	f, _ := p.Open("/backend/hintless", posix.O_CREAT|posix.O_WRONLY, 1, 0o644)
	f.Write(make([]byte, 512), 0, 1)
	ffs.Inject(&posix.FaultRule{Op: posix.FaultOpen, PathContains: "meta/size", Err: posix.EACCES})
	if err := f.Close(1); err != nil {
		t.Fatalf("close failed on best-effort hint: %v", err)
	}
	ffs.Clear()
	st, err := p.Stat("/backend/hintless")
	if err != nil || st.Size != 512 {
		t.Fatalf("stat without hint = %+v, %v", st, err)
	}
}

// TestIndexDroppingHeaderWindow holds writer 1 between creating its
// index dropping and writing the header (a gate on the header write) —
// the window a sibling rank's first write or a reader's cold open can
// land in. Both must treat the sub-header dropping as empty — seedClock
// and the cold open each stream it (OpenDroppingStream). Neither may
// fail the container.
func TestIndexDroppingHeaderWindow(t *testing.T) {
	p1, ffs, mem := faultPLFS(t)
	p2 := New(ffs, EngineOptions{NumHostdirs: 2}) // a sibling rank: its own instance
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
	if all := readAllBytes(t, New(ffs, EngineOptions{NumHostdirs: 2}), path); string(all) != "onetwo" {
		t.Fatalf("after the window closed: %q", all)
	}
}
