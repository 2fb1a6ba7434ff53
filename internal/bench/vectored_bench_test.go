package bench

import (
	"testing"

	"ldplfs/internal/iostats"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// Vectored-read benchmarks and the PR 9 hot-path floors. The batched
// engine groups physically-contiguous extents per dropping into one
// preadv; against the strided N-1 layout every full-file read collapses
// n1BlocksPer scalar preads per dropping into one submission. The two
// floors CI enforces are structural, not wall-clock: warm reads stay
// within the alloc budget, and the batched engine issues one backend
// data op per dropping.

// BenchmarkN1StridedReadBatched streams the whole striped container with one reader —
// the shape where batching bites: every dropping contributes
// n1BlocksPer contiguous extents per pass.
func BenchmarkN1StridedReadBatched(b *testing.B) {
	p, want := setupN1(b)
	b.SetBytes(int64(len(want)))
	buf := make([]byte, len(want))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := p.Open("/n1", posix.O_RDONLY, 200, 0)
		if err != nil {
			b.Fatal(err)
		}
		if n, err := f.Read(buf, 0); err != nil || n != len(want) {
			b.Fatalf("read: n=%d err=%v", n, err)
		}
		f.Close(200)
	}
}

// setupN1Mem writes the strided N-1 container through p (over MemFS or
// an instrumented wrapper) and returns its logical size.
func setupN1Mem(t testing.TB, p *plfs.FS) int {
	t.Helper()
	f, err := p.Open("/n1", posix.O_CREAT|posix.O_WRONLY, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const block = 4 << 10
	payload := make([]byte, block)
	for w := 0; w < n1Writers; w++ {
		for j := range payload {
			payload[j] = byte(w + 1)
		}
		for blk := 0; blk < n1BlocksPer; blk++ {
			off := int64((blk*n1Writers + w) * block)
			if _, err := f.Write(payload, off, uint32(w)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for w := 0; w < n1Writers; w++ {
		if err := f.Close(uint32(w)); err != nil {
			t.Fatal(err)
		}
	}
	return n1Writers * n1BlocksPer * block
}

// TestWarmReadAllocs is the CI-enforced alloc floor: once the index,
// descriptor and plan pools are warm, a full strided N-1 read stays
// within 2 allocations per op (the budget the pooled read plan, the
// recycled extent slice and the cached dropping paths buy).
func TestWarmReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the floor only holds on plain builds")
	}
	// One proc pins the no-closure serial gather path; the pooled path
	// necessarily allocates goroutine bookkeeping.
	p := newPLFSAt(1, posix.NewMemFS())
	size := setupN1Mem(t, p)
	f, err := p.Open("/n1", posix.O_RDONLY, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(200)
	buf := make([]byte, size)
	// Warm every pool and cache: index cache, fd cache, plan pool.
	for i := 0; i < 3; i++ {
		if n, err := f.Read(buf, 0); err != nil || n != size {
			t.Fatalf("warmup read: n=%d err=%v", n, err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if n, err := f.Read(buf, 0); err != nil || n != size {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
	})
	if avg > 2 {
		t.Fatalf("warm N-1 read allocates %.1f/op, budget is 2", avg)
	}
}

// TestN1BatchedBackendOps is the CI-enforced batching floor: the
// strided N-1 container gives the engine n1BlocksPer (16) physically
// contiguous extents in each of its n1Writers (16) droppings, so a warm
// full-file read must cost exactly one backend data op per dropping —
// measured on the posix layer's backend_ops counter, not wall clock.
func TestN1BatchedBackendOps(t *testing.T) {
	plane := iostats.NewPlane()
	p := plfs.New(posix.NewInstrumentFS(posix.NewMemFS(), plane))
	size := setupN1Mem(t, p)
	f, err := p.Open("/n1", posix.O_RDONLY, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(200)
	buf := make([]byte, size)
	// Warm up so the measured read does pure data I/O (the index
	// is cached, no index-dropping preads mix into the count).
	if n, err := f.Read(buf, 0); err != nil || n != size {
		t.Fatalf("warmup read: n=%d err=%v", n, err)
	}
	ctr := plane.Layer("posix").Counter("backend_ops")
	before := ctr.Load()
	if n, err := f.Read(buf, 0); err != nil || n != size {
		t.Fatalf("measured read: n=%d err=%v", n, err)
	}
	if ops := ctr.Load() - before; ops != n1Writers {
		t.Fatalf("warm read of %d droppings x %d extents issued %d backend ops, want one per dropping", n1Writers, n1BlocksPer, ops)
	}
}
