package plfs

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	idx "ldplfs/internal/plfs/index"
	"ldplfs/internal/posix"
)

func writePLFS(t *testing.T) (*FS, *posix.MemFS) {
	t.Helper()
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	return New(mem), mem
}

// TestConcurrentWritersStress is the race-detector stress test of the
// write engine: many pids write strided blocks through one File handle
// while Syncs and Reads run concurrently, and the final contents must be
// exactly the strided pattern. Run with -race in CI.
func TestConcurrentWritersStress(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		p, _ := writePLFS(t)
		p.indexBatch = 8
		const (
			writers   = 8
			blocks    = 32
			blockSize = 512
		)
		f, err := p.Open("/backend/stress", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, writers*blocks*blockSize)
		var wg sync.WaitGroup
		errc := make(chan error, writers+2)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				payload := bytes.Repeat([]byte{byte(w + 1)}, blockSize)
				for blk := 0; blk < blocks; blk++ {
					off := int64((blk*writers + w) * blockSize)
					copy(want[off:], payload)
					if n, err := f.Write(payload, off, uint32(w)); err != nil || n != blockSize {
						errc <- fmt.Errorf("writer %d block %d: n=%d err=%v", w, blk, n, err)
						return
					}
					if blk%8 == 7 {
						if err := f.Sync(uint32(w)); err != nil {
							errc <- fmt.Errorf("writer %d sync: %v", w, err)
							return
						}
					}
				}
			}(w)
		}
		// Readers race the writers; they only check that Read never
		// fails or returns non-pattern garbage for covered bytes.
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 4096)
				for i := 0; i < 20; i++ {
					if _, err := f.Read(buf, int64(i*1024)); err != nil {
						errc <- fmt.Errorf("concurrent read: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if n, err := f.Read(got, 0); err != nil || n != len(want) {
			t.Fatalf("final read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("concurrent writers corrupted the strided pattern")
		}
		for w := 0; w < writers; w++ {
			if err := f.Close(uint32(w)); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestWriteVRoundTrip checks that one vectored write is equivalent to
// the segment-by-segment writes it replaces, including hole handling.
func TestWriteVRoundTrip(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p, _ := writePLFS(t)
			p.workers = workers
			f, err := p.Open("/backend/vec", posix.O_CREAT|posix.O_RDWR, 7, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			// Strided segments with a gap (a hole at [3000,4000)).
			segs := []WriteSeg{
				{Off: 0, Data: bytes.Repeat([]byte{'a'}, 1000)},
				{Off: 2000, Data: bytes.Repeat([]byte{'b'}, 1000)},
				{Off: 4000, Data: bytes.Repeat([]byte{'c'}, 1000)},
			}
			n, err := f.WriteV(segs, 7)
			if err != nil || n != 3000 {
				t.Fatalf("WriteV = %d, %v", n, err)
			}
			want := make([]byte, 5000)
			copy(want[0:], segs[0].Data)
			copy(want[2000:], segs[1].Data)
			copy(want[4000:], segs[2].Data)
			got := make([]byte, 5000)
			if n, err := f.Read(got, 0); err != nil || n != 5000 {
				t.Fatalf("read back: n=%d err=%v", n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("vectored write round trip mismatch")
			}
			// Overwrite via WriteV must win last-writer-wins.
			if _, err := f.WriteV([]WriteSeg{{Off: 500, Data: bytes.Repeat([]byte{'z'}, 2000)}}, 7); err != nil {
				t.Fatal(err)
			}
			copy(want[500:2500], bytes.Repeat([]byte{'z'}, 2000))
			if n, err := f.Read(got, 0); err != nil || n != 5000 {
				t.Fatalf("read after overwrite: n=%d err=%v", n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("vectored overwrite lost last-writer-wins")
			}
			if err := f.Close(7); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWriteAllocs is the ceiling on the scalar write: a warm 4 KiB
// Write is WriteV of one segment, and that path must cost no more than
// the one allocation it made when it was its own code — no closure for
// a one-chunk vector, no heap copy of the one-segment array.
func TestWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the ceiling only holds on plain builds")
	}
	p, _ := writePLFS(t)
	f, err := p.Open("/backend/allocs", posix.O_CREAT|posix.O_WRONLY, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(1)
	buf := make([]byte, 4096)
	var off int64
	write := func() {
		if _, err := f.Write(buf, off, 1); err != nil {
			t.Fatal(err)
		}
		off += int64(len(buf))
	}
	for i := 0; i < 8; i++ { // create the writer, warm the plan pool
		write()
	}
	if avg := testing.AllocsPerRun(200, write); avg > 1 {
		t.Fatalf("warm 4 KiB Write allocates %.1f/op, ceiling is 1", avg)
	}
}

// TestWriteVPartialFailure checks the vector's failure contract at its
// one backend write: a vector wider than DefaultBatchDepth segments is
// still one write, and a vector whose write fails before its first byte
// lands returns 0, names segment 0, indexes nothing and leaves the
// writer's cursor where it was, so its retry lands with no gap
// (TestWriteVChunkFailure pins a durable prefix that ends mid-segment).
func TestWriteVPartialFailure(t *testing.T) {
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	ffs := posix.NewFaultFS(mem)
	p := New(ffs)
	f, err := p.Open("/backend/vfail", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Every data write after the first fails.
	ffs.Inject(&posix.FaultRule{Op: posix.FaultWrite, PathContains: "dropping.data", After: 1, Err: posix.EIO})
	wide := make([]WriteSeg, 2*DefaultBatchDepth+1)
	var want []byte
	for i := range wide {
		data := bytes.Repeat([]byte{byte('a' + i%26)}, 10)
		wide[i] = WriteSeg{Off: int64(len(want)), Data: data}
		want = append(want, data...)
	}
	end := int64(len(want))
	if n, err := f.WriteV(wide, 1); err != nil || n != end {
		t.Fatalf("WriteV of %d segments = %d, %v: it took more than one backend write", len(wide), n, err)
	}
	segs := []WriteSeg{
		{Off: end, Data: bytes.Repeat([]byte{'x'}, 100)},
		{Off: end + 100, Data: bytes.Repeat([]byte{'y'}, 100)},
	}
	n, err := f.WriteV(segs, 1)
	if !errors.Is(err, posix.EIO) || n != 0 || !strings.Contains(err.Error(), "segment 0 ") {
		t.Fatalf("WriteV with its write failed = %d, %v; want 0 and EIO naming segment 0", n, err)
	}
	ffs.Clear()
	if size, err := f.Size(); err != nil || size != end {
		t.Fatalf("size after the failed vector = %d, %v; want %d (nothing indexed)", size, err, end)
	}
	if n, err := f.WriteV(segs, 1); err != nil || n != 200 {
		t.Fatalf("retried WriteV = %d, %v", n, err)
	}
	want = append(append(want, segs[0].Data...), segs[1].Data...)
	got := make([]byte, len(want))
	if n, err := f.Read(got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("read back: n=%d err=%v (bytes equal: %v)", n, err, bytes.Equal(got, want))
	}
	if st, err := mem.Stat("/backend/vfail/hostdir.1/dropping.data.1"); err != nil || st.Size != int64(len(want)) {
		t.Fatalf("data dropping = %d bytes, %v; want %d (the failed vector left a gap)", st.Size, err, len(want))
	}
	f.Close(1)
}

// TestWriteVChunkFailure pins the coalesced vector's failure contract:
// the whole vector is one pwritev, a partial backend failure leaves a
// durable prefix that can end mid-segment, exactly that prefix is
// indexed, and the cursor moves to the prefix's end.
func TestWriteVChunkFailure(t *testing.T) {
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	ffs := posix.NewFaultFS(mem)
	p := New(ffs)
	p.workers = 1
	f, err := p.Open("/backend/vchunk", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// The three segments coalesce into one pwritev; 150 of its 300
	// bytes land before the injected error.
	ffs.Inject(&posix.FaultRule{Op: posix.FaultWrite, PathContains: "dropping.data", Partial: 150, Times: 1, Err: posix.EIO})
	segs := []WriteSeg{
		{Off: 0, Data: bytes.Repeat([]byte{'x'}, 100)},
		{Off: 100, Data: bytes.Repeat([]byte{'y'}, 100)},
		{Off: 200, Data: bytes.Repeat([]byte{'w'}, 100)},
	}
	n, err := f.WriteV(segs, 1)
	if !errors.Is(err, posix.EIO) {
		t.Fatalf("WriteV with partial chunk = %d, %v", n, err)
	}
	if n != 150 {
		t.Fatalf("contiguous prefix = %d, want 150 (mid-segment durable prefix)", n)
	}
	ffs.Clear()
	// Segment 0 and segment 1's first half are durable and indexed;
	// nothing past the failure landed, so logical EOF sits at 150.
	if size, err := f.Size(); err != nil || size != 150 {
		t.Fatalf("size after chunk failure = %d, %v; want 150", size, err)
	}
	got := make([]byte, 150)
	if rn, err := f.Read(got, 0); err != nil || rn != 150 {
		t.Fatalf("read back: n=%d err=%v", rn, err)
	}
	want := append(bytes.Repeat([]byte{'x'}, 100), bytes.Repeat([]byte{'y'}, 50)...)
	if !bytes.Equal(got, want) {
		t.Fatal("indexed extents diverge from the durable prefix")
	}
	// The next write lands past the durable prefix, and the unindexed
	// logical range reads as a hole.
	if _, err := f.Write(bytes.Repeat([]byte{'q'}, 50), 300, 1); err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, 200)
	if rn, err := f.Read(tail, 150); err != nil || rn != 200 {
		t.Fatalf("tail read: n=%d err=%v", rn, err)
	}
	wantTail := append(make([]byte, 150), bytes.Repeat([]byte{'q'}, 50)...)
	if !bytes.Equal(tail, wantTail) {
		t.Fatal("post-failure write landed wrong or gap not a hole")
	}
	f.Close(1)
}

// TestShortIndexFlushHealsOnRetry checks the torn-tail contract end to
// end: a group flush that lands a partial record must not poison
// concurrent readers (they see only whole records), and the writer's
// retained remainder heals the dropping on the next flush.
func TestShortIndexFlushHealsOnRetry(t *testing.T) {
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	ffs := posix.NewFaultFS(mem)
	p := New(ffs)
	p.indexBatch = 2
	f, err := p.Open("/backend/shortflush", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("first"), 0, 1); err != nil {
		t.Fatal(err)
	}
	// The second write reaches the batch threshold; its group flush
	// lands 10 bytes of the two-record burst and errors.
	ffs.Inject(&posix.FaultRule{
		Op: posix.FaultWrite, PathContains: "dropping.index",
		Partial: 10, Times: 1, Err: posix.EIO,
	})
	if _, err := f.Write([]byte("second"), 5, 1); err != nil {
		t.Fatal(err)
	}
	ffs.Clear()
	// A fresh reader over the torn dropping must not fail — it sees the
	// whole records only (here: none of the burst completed).
	g, err := p.Open("/backend/shortflush", posix.O_RDONLY, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Read(make([]byte, 11), 0); err != nil {
		t.Fatalf("read over in-flight torn tail: %v", err)
	}
	// The writer's retained remainder heals the dropping on sync.
	if err := f.Sync(1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 11)
	if n, err := g.Read(got, 0); err != nil || n != 11 {
		t.Fatalf("read after heal: n=%d err=%v", n, err)
	}
	if string(got) != "firstsecond" {
		t.Fatalf("content after heal = %q", got)
	}
	g.Close(9)
	f.Close(1)
}

// TestIndexBatchGroupFlush checks that index records hit the backend in
// batches: the on-backend dropping grows only at multiples of the batch
// threshold until a Sync drains the remainder.
func TestIndexBatchGroupFlush(t *testing.T) {
	p, mem := writePLFS(t)
	p.indexBatch = 4
	f, err := p.Open("/backend/batched", posix.O_CREAT|posix.O_WRONLY, 3, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	idxPath := "/backend/batched/hostdir.3/dropping.index.3"
	recordsOnBackend := func() int64 {
		st, err := mem.Stat(idxPath)
		if err != nil {
			t.Fatal(err)
		}
		return (st.Size - 16) / 48 // headerSize, EntrySize
	}
	buf := []byte("payload")
	for i := 0; i < 10; i++ {
		if _, err := f.Write(buf, int64(i*len(buf)), 3); err != nil {
			t.Fatal(err)
		}
	}
	// 10 writes at batch 4: two group flushes (8 records), 2 buffered.
	if got := recordsOnBackend(); got != 8 {
		t.Fatalf("records on backend after 10 writes = %d, want 8 (two batches)", got)
	}
	if err := f.Sync(3); err != nil {
		t.Fatal(err)
	}
	if got := recordsOnBackend(); got != 10 {
		t.Fatalf("records on backend after sync = %d, want 10", got)
	}
	// A fresh reader over the same backend sees everything, batch
	// flushes included (close-to-open revalidation).
	g, err := p.Open("/backend/batched", posix.O_RDONLY, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if size, err := g.Size(); err != nil || size != int64(10*len(buf)) {
		t.Fatalf("size = %d, %v", size, err)
	}
	g.Close(99)
	f.Close(3)
}

// TestTruncZeroClearsOpenHosts is the regression test for the openhosts
// leak: Trunc(0) retires every writer and must clear their records, or
// hasOpenWriters reports true forever, no flattened record is ever
// trusted again and CompactIndex refuses the container.
func TestTruncZeroClearsOpenHosts(t *testing.T) {
	p, _ := writePLFS(t)
	f, err := p.Open("/backend/leak", posix.O_CREAT|posix.O_RDWR, 5, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("doomed"), 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := f.Trunc(0); err != nil {
		t.Fatal(err)
	}
	recs, err := p.openHosts("/backend/leak")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("openhosts records after Trunc(0) = %+v, want none", recs)
	}
	// The container must be compactable again once new data lands and
	// the handle closes.
	if _, err := f.Write([]byte("fresh"), 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(5); err != nil {
		t.Fatal(err)
	}
	if err := p.CompactIndex("/backend/leak"); err != nil {
		t.Fatalf("compact after trunc(0) lifecycle: %v", err)
	}
}

// TestTruncRebindsLiveIndexWriters is the regression test for the
// orphaned-index-writer bug: a non-zero Trunc consolidates (and unlinks)
// every index dropping, so surviving writers must be rebound to fresh
// droppings or all their post-truncate writes are invisible.
func TestTruncRebindsLiveIndexWriters(t *testing.T) {
	p, _ := writePLFS(t)
	f, err := p.Open("/backend/shrink", posix.O_CREAT|posix.O_RDWR, 9, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{'a'}, 1000), 0, 9); err != nil {
		t.Fatal(err)
	}
	if err := f.Trunc(600); err != nil {
		t.Fatal(err)
	}
	// The same still-open writer appends after the truncate...
	if _, err := f.Write(bytes.Repeat([]byte{'b'}, 100), 600, 9); err != nil {
		t.Fatal(err)
	}
	// ...and both this handle and a fresh reader must see it.
	got := make([]byte, 700)
	if n, err := f.Read(got, 0); err != nil || n != 700 {
		t.Fatalf("same-handle read: n=%d err=%v", n, err)
	}
	want := append(bytes.Repeat([]byte{'a'}, 600), bytes.Repeat([]byte{'b'}, 100)...)
	if !bytes.Equal(got, want) {
		t.Fatal("post-truncate write invisible to same handle")
	}
	if err := f.Sync(9); err != nil {
		t.Fatal(err)
	}
	g, err := p.Open("/backend/shrink", posix.O_RDONLY, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, 700)
	if n, err := g.Read(got2, 0); err != nil || n != 700 {
		t.Fatalf("fresh-handle read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got2, want) {
		t.Fatal("post-truncate write invisible to fresh reader")
	}
	g.Close(10)
	// Closing the rebound writer must not resurrect the pre-truncate
	// size.
	if err := f.Close(9); err != nil {
		t.Fatal(err)
	}
	st, err := p.Stat("/backend/shrink")
	if err != nil || st.Size != 700 {
		t.Fatalf("stat after close = %+v, %v (want size 700)", st, err)
	}
}

// TestTruncAcrossHandlesRebindsAllWriters checks that truncation is
// container-level within an instance: a Trunc issued through one handle
// (or by path) must rebind writers held by *other* open handles, not
// leave them appending to unlinked index droppings.
func TestTruncAcrossHandlesRebindsAllWriters(t *testing.T) {
	for _, byPath := range []bool{false, true} {
		name := "via-handle"
		if byPath {
			name = "via-path"
		}
		t.Run(name, func(t *testing.T) {
			p, _ := writePLFS(t)
			a, err := p.Open("/backend/xh", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Write(bytes.Repeat([]byte{'a'}, 1000), 0, 1); err != nil {
				t.Fatal(err)
			}
			if byPath {
				if err := p.Truncate("/backend/xh", 600); err != nil {
					t.Fatal(err)
				}
			} else {
				b, err := p.Open("/backend/xh", posix.O_RDWR, 2, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.Trunc(600); err != nil {
					t.Fatal(err)
				}
				if err := b.Close(2); err != nil {
					t.Fatal(err)
				}
			}
			// Handle A's writer must have been rebound: its next write
			// has to be visible to readers.
			if _, err := a.Write(bytes.Repeat([]byte{'b'}, 100), 600, 1); err != nil {
				t.Fatal(err)
			}
			if err := a.Sync(1); err != nil {
				t.Fatal(err)
			}
			want := append(bytes.Repeat([]byte{'a'}, 600), bytes.Repeat([]byte{'b'}, 100)...)
			got := make([]byte, 700)
			if n, err := a.Read(got, 0); err != nil || n != 700 {
				t.Fatalf("read: n=%d err=%v", n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("write through handle A lost after truncate through another path")
			}
			a.Close(1)
		})
	}
}

// TestOpenTruncRetiresOtherHandles checks the O_TRUNC flavor of the
// same container-level contract: opening with O_TRUNC retires every
// existing handle's writers (their droppings are gone), so their
// subsequent writes start fresh instead of resurrecting stale state.
func TestOpenTruncRetiresOtherHandles(t *testing.T) {
	p, _ := writePLFS(t)
	a, err := p.Open("/backend/ot", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(bytes.Repeat([]byte{'a'}, 500), 0, 1); err != nil {
		t.Fatal(err)
	}
	b, err := p.Open("/backend/ot", posix.O_RDWR|posix.O_TRUNC, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A's next write recreates its writer against the emptied container.
	if _, err := a.Write(bytes.Repeat([]byte{'z'}, 100), 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 200)
	n, err := b.Read(got, 0)
	if err != nil || n != 100 {
		t.Fatalf("read after O_TRUNC: n=%d err=%v (want 100)", n, err)
	}
	if !bytes.Equal(got[:n], bytes.Repeat([]byte{'z'}, 100)) {
		t.Fatal("write after O_TRUNC invisible or stale")
	}
	a.Close(1)
	b.Close(2)
}

// TestDoctorFlagsStaleOpenHosts checks the operator-facing detector for
// pre-fix damage: an openhosts record whose pid has no data dropping is
// stale, and scrubbing removes exactly those.
func TestDoctorFlagsStaleOpenHosts(t *testing.T) {
	p, mem := writePLFS(t)
	f, err := p.Open("/backend/sick", posix.O_CREAT|posix.O_WRONLY, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("live"), 0, 1); err != nil {
		t.Fatal(err)
	}
	// Simulate the historical Trunc(0) leak: a record for pid 42 whose
	// droppings are gone.
	fd, err := mem.Open("/backend/sick/openhosts/host.42", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	mem.Close(fd)
	recs, err := p.openHosts("/backend/sick")
	if err != nil {
		t.Fatal(err)
	}
	staleByPid := map[uint32]bool{}
	for _, r := range recs {
		staleByPid[r.Pid] = r.Stale
	}
	if len(recs) != 2 || staleByPid[42] != true || staleByPid[1] != false {
		t.Fatalf("doctor diagnosis = %+v, want pid 42 stale and pid 1 live", recs)
	}
	removed, err := p.scrubOpenHosts("/backend/sick")
	if err != nil || removed != 1 {
		t.Fatalf("scrub = %d, %v (want 1 removed)", removed, err)
	}
	recs, err = p.openHosts("/backend/sick")
	if err != nil || len(recs) != 1 || recs[0].Pid != 1 {
		t.Fatalf("records after scrub = %+v, %v (want only live pid 1)", recs, err)
	}
	f.Close(1)
}

// TestClockResumesAcrossInstances checks that a fresh FS instance (clock
// at zero) appending to an existing container cannot lose the
// last-writer-wins merge against records from a previous run.
func TestClockResumesAcrossInstances(t *testing.T) {
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	p1 := New(mem)
	f, err := p1.Open("/backend/resume", posix.O_CREAT|posix.O_WRONLY, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{'o'}, 100), 0, 1); err != nil {
		t.Fatal(err)
	}
	f.Close(1)

	// A new instance — a later process — overwrites the same range,
	// once with the same pid (resumed dropping) and once with a pid
	// that has no dropping of its own: the clock seed must cover both.
	for round, pid := range []uint32{1, 7} {
		want := byte('A' + round)
		p2 := New(mem)
		g, err := p2.Open("/backend/resume", posix.O_WRONLY, pid, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Write(bytes.Repeat([]byte{want}, 100), 0, pid); err != nil {
			t.Fatal(err)
		}
		g.Close(pid)

		p3 := New(mem)
		r, err := p3.Open("/backend/resume", posix.O_RDONLY, 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 100)
		if n, err := r.Read(got, 0); err != nil || n != 100 {
			t.Fatalf("round %d read: n=%d err=%v", round, n, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{want}, 100)) {
			t.Fatalf("round %d (pid %d): overwrite lost the timestamp race against the previous run", round, pid)
		}
		r.Close(100)
	}
}

// TestClockSeedStreamsHistory holds the first write into an existing
// container to the bound the index merge advertises: seeding the clock
// from a long history (64 droppings of 4096 records) must allocate less
// than the droppings hold — it streams them a chunk at a time and keeps
// one number. Slurping each dropping and parsing it into a slice cost
// about 2.7 times their size.
func TestClockSeedStreamsHistory(t *testing.T) {
	const (
		droppings = 64
		records   = 4096
		path      = "/backend/history"
	)
	p, mem := writePLFS(t)
	if err := p.CreateContainer(path, 0o644); err != nil {
		t.Fatal(err)
	}
	entries := make([]idx.Entry, records)
	for d := 0; d < droppings; d++ {
		for i := range entries {
			entries[i] = idx.Entry{
				LogicalOffset: int64(i*droppings + d),
				Length:        1,
				Timestamp:     uint64(i*droppings + d + 1),
				Pid:           uint32(d),
			}
		}
		hostdir := p.hostdir(path, uint32(d))
		if err := mem.Mkdir(hostdir, 0o755); err != nil && !errors.Is(err, posix.EEXIST) {
			t.Fatal(err)
		}
		if err := idx.WriteDropping(mem, indexDropping(hostdir, uint32(d)), entries); err != nil {
			t.Fatal(err)
		}
	}
	const held = droppings * records * idx.EntrySize

	fresh := New(mem)
	f, err := fresh.Open(path, posix.O_WRONLY, 1000, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(1000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := f.Write([]byte("x"), 0, 1000); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := fresh.clock.Load(); got <= droppings*records {
		t.Fatalf("clock after the seed = %d, want past the history's newest stamp %d", got, droppings*records)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= held {
		t.Fatalf("first write allocated %d bytes over index droppings holding %d: the seed is not streaming", alloc, held)
	}
}
