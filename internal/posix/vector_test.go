package posix

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"ldplfs/internal/iostats"
)

// vectorBackends builds one instance of every FS the engines run over,
// so the vectored contract is pinned on each: the two VectorFS
// implementations (MemFS, OSFS), the two pass-through wrappers
// (FaultFS, InstrumentFS via the parity in instrument paths), and the
// striped composite on its single-replica fast path.
func vectorBackends(t *testing.T) map[string]FS {
	t.Helper()
	osfs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]FS{
		"memfs":   NewMemFS(),
		"osfs":    osfs,
		"faultfs": NewFaultFS(NewMemFS()),
		"striped": NewStripedFS(NewMemFS(), NewMemFS(), NewMemFS()),
	}
}

// TestPreadvParity checks byte-identity between the vectored read and
// per-buffer scalar preads on every backend, across buffer shapes:
// uneven sizes, empty buffers mid-vector, a window crossing EOF, and
// vectors wider than one iovec batch.
func TestPreadvParity(t *testing.T) {
	for name, fs := range vectorBackends(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			payload := make([]byte, 64<<10)
			rng.Read(payload)
			fd, err := fs.Open("/vec.dat", O_CREAT|O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close(fd)
			if _, err := WriteFull(fs, fd, payload, 0); err != nil {
				t.Fatal(err)
			}

			shapes := [][]int{
				{100},
				{1, 2, 3, 4, 5},
				{4096, 0, 512, 0, 8192}, // empty buffers mid-vector
				{1 << 10, 1 << 12, 1 << 13, 1 << 10},
			}
			for si, shape := range shapes {
				for _, off := range []int64{0, 7, 32<<10 - 3} {
					bufs := make([][]byte, len(shape))
					want := make([][]byte, len(shape))
					for i, n := range shape {
						bufs[i] = make([]byte, n)
						want[i] = make([]byte, n)
					}
					n, err := Preadv(fs, fd, bufs, off)
					if err != nil {
						t.Fatalf("shape %d off %d: Preadv: %v", si, off, err)
					}
					// Scalar reference: per-buffer full preads.
					var wantN int64
					cur := off
					for i := range want {
						if len(want[i]) == 0 {
							continue
						}
						if err := ReadFull(fs, fd, want[i], cur); err != nil {
							t.Fatalf("reference read: %v", err)
						}
						cur += int64(len(want[i]))
						wantN += int64(len(want[i]))
					}
					if n != wantN {
						t.Fatalf("shape %d off %d: n=%d want %d", si, off, n, wantN)
					}
					for i := range bufs {
						if !bytes.Equal(bufs[i], want[i]) {
							t.Fatalf("shape %d off %d: buffer %d diverges from scalar pread", si, off, i)
						}
					}
				}
			}
		})
	}
}

// TestPreadvEOF pins the EOF contract: a vector extending past end of
// file returns the bytes below EOF with a nil error, like Pread.
func TestPreadvEOF(t *testing.T) {
	for name, fs := range vectorBackends(t) {
		t.Run(name, func(t *testing.T) {
			fd, err := fs.Open("/eof.dat", O_CREAT|O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close(fd)
			if _, err := WriteFull(fs, fd, bytes.Repeat([]byte{'e'}, 150), 0); err != nil {
				t.Fatal(err)
			}
			bufs := [][]byte{make([]byte, 100), make([]byte, 100), make([]byte, 100)}
			n, err := Preadv(fs, fd, bufs, 0)
			if err != nil {
				t.Fatalf("Preadv across EOF: %v", err)
			}
			if n != 150 {
				t.Fatalf("n=%d, want 150 (bytes below EOF)", n)
			}
			if !bytes.Equal(bufs[0], bytes.Repeat([]byte{'e'}, 100)) || !bytes.Equal(bufs[1][:50], bytes.Repeat([]byte{'e'}, 50)) {
				t.Fatal("EOF-crossing vector filled wrong bytes")
			}
			// Entirely past EOF: zero bytes, nil error.
			if n, err := Preadv(fs, fd, [][]byte{make([]byte, 10)}, 1000); n != 0 || err != nil {
				t.Fatalf("Preadv past EOF = %d, %v; want 0, nil", n, err)
			}
		})
	}
}

// TestPwritevParity checks the vectored write lands byte-identically
// to per-buffer scalar pwrites on every backend.
func TestPwritevParity(t *testing.T) {
	for name, fs := range vectorBackends(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			fd, err := fs.Open("/wvec.dat", O_CREAT|O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close(fd)

			ref := NewMemFS()
			rfd, err := ref.Open("/ref.dat", O_CREAT|O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close(rfd)

			var off int64 = 3
			for round := 0; round < 4; round++ {
				bufs := make([][]byte, 5)
				var total int64
				for i := range bufs {
					bufs[i] = make([]byte, rng.Intn(4096))
					rng.Read(bufs[i])
					total += int64(len(bufs[i]))
				}
				n, err := Pwritev(fs, fd, bufs, off)
				if err != nil || n != total {
					t.Fatalf("round %d: Pwritev = %d, %v; want %d, nil", round, n, err, total)
				}
				cur := off
				for i := range bufs {
					if _, err := WriteFull(ref, rfd, bufs[i], cur); err != nil {
						t.Fatal(err)
					}
					cur += int64(len(bufs[i]))
				}
				off = cur + int64(rng.Intn(100))
			}

			st, err := fs.Fstat(fd)
			if err != nil {
				t.Fatal(err)
			}
			rst, err := ref.Fstat(rfd)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size != rst.Size {
				t.Fatalf("size %d diverges from scalar reference %d", st.Size, rst.Size)
			}
			got := make([]byte, st.Size)
			want := make([]byte, rst.Size)
			if err := ReadFull(fs, fd, got, 0); err != nil {
				t.Fatal(err)
			}
			if err := ReadFull(ref, rfd, want, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("vectored writes diverge from scalar reference")
			}
		})
	}
}

// TestPreadvWiderThanIovMax drives one vector past the iovec window
// size so OSFS must issue multiple preadv syscalls and stitch the
// totals.
func TestPreadvWiderThanIovMax(t *testing.T) {
	osfs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fd, err := osfs.Open("/wide.dat", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer osfs.Close(fd)
	const segs = 1500 // > iovMax on linux
	payload := make([]byte, segs*8)
	rand.New(rand.NewSource(5)).Read(payload)
	if _, err := WriteFull(osfs, fd, payload, 0); err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, segs)
	for i := range bufs {
		bufs[i] = make([]byte, 8)
	}
	n, err := Preadv(osfs, fd, bufs, 0)
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("wide Preadv = %d, %v; want %d, nil", n, err, len(payload))
	}
	for i := range bufs {
		if !bytes.Equal(bufs[i], payload[i*8:(i+1)*8]) {
			t.Fatalf("segment %d diverges after iovec windowing", i)
		}
	}
}

// TestFaultFSVectorOneOp pins the fault accounting contract: a whole
// vector is one faultable operation, not one per segment.
func TestFaultFSVectorOneOp(t *testing.T) {
	ffs := NewFaultFS(NewMemFS())
	fd, err := ffs.Open("/one.dat", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer ffs.Close(fd)
	if _, err := WriteFull(ffs, fd, make([]byte, 300), 0); err != nil {
		t.Fatal(err)
	}

	// After:1 skips exactly one matching read op. If each segment
	// counted, the three-segment first vector would trip it.
	ffs.Inject(&FaultRule{Op: FaultRead, After: 1, Times: 1, Err: EIO})
	bufs := [][]byte{make([]byte, 100), make([]byte, 100), make([]byte, 100)}
	if _, err := Preadv(ffs, fd, bufs, 0); err != nil {
		t.Fatalf("first vector should be the skipped op, got %v", err)
	}
	if _, err := Preadv(ffs, fd, bufs, 0); !errors.Is(err, EIO) {
		t.Fatalf("second vector should fire the rule, got %v", err)
	}
	ffs.Clear()

	// Same shape for writes.
	ffs.Inject(&FaultRule{Op: FaultWrite, After: 1, Times: 1, Err: EIO})
	if _, err := Pwritev(ffs, fd, bufs, 0); err != nil {
		t.Fatalf("first write vector should be the skipped op, got %v", err)
	}
	if _, err := Pwritev(ffs, fd, bufs, 0); !errors.Is(err, EIO) {
		t.Fatalf("second write vector should fire the rule, got %v", err)
	}
}

// TestFaultFSPwritevPartial pins partial injection across segment
// boundaries: the byte budget flattens over the vector, so a durable
// prefix can end mid-segment.
func TestFaultFSPwritevPartial(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	fd, err := ffs.Open("/part.dat", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer ffs.Close(fd)

	ffs.Inject(&FaultRule{Op: FaultWrite, Partial: 150, Times: 1, Err: EIO})
	bufs := [][]byte{
		bytes.Repeat([]byte{'a'}, 100),
		bytes.Repeat([]byte{'b'}, 100),
		bytes.Repeat([]byte{'c'}, 100),
	}
	n, err := Pwritev(ffs, fd, bufs, 0)
	if !errors.Is(err, EIO) {
		t.Fatalf("partial vector = %d, %v; want EIO", n, err)
	}
	if n != 150 {
		t.Fatalf("durable prefix = %d, want 150 (crossing a segment boundary)", n)
	}
	ffs.Clear()

	got := make([]byte, 150)
	if err := ReadFull(ffs, fd, got, 0); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{'a'}, 100), bytes.Repeat([]byte{'b'}, 50)...)
	if !bytes.Equal(got, want) {
		t.Fatal("durable prefix bytes diverge from the injected budget")
	}
	// Nothing past the budget landed.
	if st, err := ffs.Fstat(fd); err != nil || st.Size != 150 {
		t.Fatalf("file size = %v, %v; want 150", st, err)
	}
}

// TestStripedPreadvFailover pins the replica failover contract on the
// vectored path: after the primary owner dies, one Preadv serves the
// whole vector from the surviving replica and ticks the failover
// counter.
func TestStripedPreadvFailover(t *testing.T) {
	plane := iostats.NewPlane()
	s, faults := newReplicaFS(t, 3, 2, plane)
	if err := MkdirAll(s, "/c/hostdir.1", 0o755); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'r'}, 300)
	mustWriteFile(t, s, "/c/hostdir.1/dropping.data.1", payload)

	fd, err := s.Open("/c/hostdir.1/dropping.data.1", O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(fd)

	faults[1].Kill() // primary owner of hostdir.1
	bufs := [][]byte{make([]byte, 100), make([]byte, 100), make([]byte, 100)}
	n, err := Preadv(s, fd, bufs, 0)
	if err != nil || n != 300 {
		t.Fatalf("failover Preadv = %d, %v; want 300, nil", n, err)
	}
	for i := range bufs {
		if !bytes.Equal(bufs[i], payload[i*100:(i+1)*100]) {
			t.Fatalf("failover segment %d diverges", i)
		}
	}
	if plane.Layer("posix").Counter("replica_read_failover").Load() == 0 {
		t.Fatal("vectored failover reads not counted")
	}
}

// TestStripedPwritevReplicated pins the vectored replica write: one
// Pwritev lands the whole vector on every replica.
func TestStripedPwritevReplicated(t *testing.T) {
	s, faults := newReplicaFS(t, 3, 2, nil)
	if err := MkdirAll(s, "/c/hostdir.1", 0o755); err != nil {
		t.Fatal(err)
	}
	fd, err := s.Open("/c/hostdir.1/dropping.data.1", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	bufs := [][]byte{
		bytes.Repeat([]byte{'x'}, 100),
		bytes.Repeat([]byte{'y'}, 100),
	}
	if n, err := Pwritev(s, fd, bufs, 0); n != 200 || err != nil {
		t.Fatalf("replicated Pwritev = %d, %v", n, err)
	}
	if err := s.Close(fd); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{'x'}, 100), bytes.Repeat([]byte{'y'}, 100)...)
	copies := 0
	for i, f := range faults {
		if _, err := f.Stat("/c/hostdir.1/dropping.data.1"); errors.Is(err, ENOENT) {
			continue
		}
		got := mustReadFile(t, f, "/c/hostdir.1/dropping.data.1")
		if !bytes.Equal(got, want) {
			t.Fatalf("replica on backend %d diverges", i)
		}
		copies++
	}
	if copies != 2 {
		t.Fatalf("vector landed on %d replicas, want 2", copies)
	}
}

// TestInstrumentVectorCounters pins the batching observability plane:
// backend_ops counts submissions, vector_segments counts logical
// segments, so segments/ops is the measured batching factor.
func TestInstrumentVectorCounters(t *testing.T) {
	plane := iostats.NewPlane()
	ifs := NewInstrumentFS(NewMemFS(), plane)
	fd, err := ifs.Open("/ctr.dat", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer ifs.Close(fd)

	layer := plane.Layer("posix")
	ops0 := layer.Counter("backend_ops").Load()
	segs0 := layer.Counter("vector_segments").Load()

	bufs := [][]byte{make([]byte, 10), make([]byte, 10), make([]byte, 10), make([]byte, 10)}
	for i := range bufs {
		copy(bufs[i], "helloplfs!")
	}
	if _, err := Pwritev(ifs, fd, bufs, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Preadv(ifs, fd, bufs, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ifs.Pread(fd, bufs[0], 0); err != nil {
		t.Fatal(err)
	}

	ops := layer.Counter("backend_ops").Load() - ops0
	segs := layer.Counter("vector_segments").Load() - segs0
	if ops != 3 {
		t.Fatalf("backend_ops delta = %d, want 3 (two vectors + one scalar)", ops)
	}
	if segs != 9 {
		t.Fatalf("vector_segments delta = %d, want 9 (4+4+1)", segs)
	}
}

// stalledFS lands a 3-byte prefix on its first Pwrite and then makes no
// progress without an error. A third call means the caller retried a
// write that cannot advance, which is how a loop without the
// zero-progress check hangs.
type stalledFS struct {
	FS
	t     *testing.T
	calls int
}

func (s *stalledFS) Pwrite(fd int, p []byte, off int64) (int, error) {
	s.calls++
	switch s.calls {
	case 1:
		return s.FS.Pwrite(fd, p[:3], off)
	case 2:
		return 0, nil
	}
	s.t.Fatal("Pwrite called again after it made no progress")
	return 0, nil
}

// TestWriteFullNoProgress pins WriteFull's rules on a backend that
// stops making progress: it fails rather than retrying, and reports the
// durable prefix. Pwritev's scalar fallback, built on it, does the same.
func TestWriteFullNoProgress(t *testing.T) {
	for name, write := range map[string]func(fs FS, fd int, p []byte) (int64, error){
		"WriteFull": func(fs FS, fd int, p []byte) (int64, error) {
			n, err := WriteFull(fs, fd, p, 0)
			return int64(n), err
		},
		"Pwritev": func(fs FS, fd int, p []byte) (int64, error) {
			return Pwritev(fs, fd, [][]byte{p[:4], p[4:]}, 0)
		},
	} {
		t.Run(name, func(t *testing.T) {
			mem := NewMemFS()
			fd := mustOpen(t, mem, "/f", O_CREAT|O_RDWR)
			n, err := write(&stalledFS{FS: mem, t: t}, fd, []byte("abcdefgh"))
			if err == nil || n != 3 {
				t.Fatalf("write over a stalled backend = (%d, %v), want the 3-byte prefix and an error", n, err)
			}
			if st, _ := mem.Fstat(fd); st.Size != 3 {
				t.Fatalf("file holds %d bytes, want the 3-byte prefix", st.Size)
			}
		})
	}
}
