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
// within the alloc budget, and the batched engine issues at least 4x
// fewer backend data ops than the per-extent baseline.

// benchN1Batched streams the whole striped container with one reader —
// the shape where batching bites: every dropping contributes
// n1BlocksPer contiguous extents per pass.
func benchN1Batched(b *testing.B, opts plfs.EngineOptions) {
	p, want := setupN1(b, opts)
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

func BenchmarkN1StridedReadBatched(b *testing.B) {
	benchN1Batched(b, plfs.EngineOptions{})
}

func BenchmarkN1StridedReadPerExtent(b *testing.B) {
	benchN1Batched(b, plfs.EngineOptions{BatchDepth: 1})
}

// setupN1Mem writes the strided N-1 container over backend (MemFS or
// an instrumented wrapper) and returns the instance and logical size.
func setupN1Mem(t testing.TB, backend posix.FS, opts plfs.EngineOptions) (*plfs.FS, int) {
	t.Helper()
	p := plfs.New(backend, opts)
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
	return p, n1Writers * n1BlocksPer * block
}

// TestWarmReadAllocs is the CI-enforced alloc floor: once the index,
// descriptor and plan pools are warm, a full strided N-1 read stays
// within 2 allocations per op (the budget the pooled read plan, the
// recycled extent slice and the cached dropping paths buy).
func TestWarmReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the floor only holds on plain builds")
	}
	// Serial read workers pin the no-closure serial gather path; the
	// parallel path necessarily allocates goroutine bookkeeping.
	p, size := setupN1Mem(t, posix.NewMemFS(), plfs.EngineOptions{ReadWorkers: 1})
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

// TestN1BatchedBackendOps is the CI-enforced batching floor: over the
// strided N-1 container, the batched engine must issue at least 4x
// fewer backend data operations than the per-extent baseline for the
// same read — measured on the posix layer's backend_ops counter, not
// wall clock. The layout gives the engine n1BlocksPer (16) contiguous
// extents per dropping, so the expected collapse is ~16x; 4x is the
// regression floor.
func TestN1BatchedBackendOps(t *testing.T) {
	readOps := func(opts plfs.EngineOptions) int64 {
		plane := iostats.NewPlane()
		ifs := posix.NewInstrumentFS(posix.NewMemFS(), plane)
		p, size := setupN1Mem(t, ifs, opts)
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
		return ctr.Load() - before
	}

	batched := readOps(plfs.EngineOptions{})
	perExtent := readOps(plfs.EngineOptions{BatchDepth: 1})
	if batched == 0 || perExtent == 0 {
		t.Fatalf("op counters did not move (batched=%d perExtent=%d)", batched, perExtent)
	}
	if batched*4 > perExtent {
		t.Fatalf("batched read issued %d backend ops vs %d per-extent: less than the 4x floor", batched, perExtent)
	}
	t.Logf("backend ops: batched=%d per-extent=%d (%.1fx reduction)", batched, perExtent, float64(perExtent)/float64(batched))
}

// TestBatchDepthDifferential drives the randomized striped workload
// scripts at several batch depths — coalescing disabled, an odd depth
// that fragments batches mid-run, the default, and the ladder top —
// and demands byte-identical results everywhere: batching is a
// syscall-count optimisation, never a semantics change.
func TestBatchDepthDifferential(t *testing.T) {
	depths := []int{1, 3, 0 /* default */, 256}
	for seed := int64(1); seed <= 3; seed++ {
		var refFinal []byte
		for _, d := range depths {
			backends := []posix.FS{posix.NewMemFS(), posix.NewMemFS(), posix.NewMemFS()}
			p := plfs.New(nil,
				plfs.EngineOptions{NumHostdirs: 4, BatchDepth: d, IndexBatch: 8},
				plfs.WithBackends(backends...),
			)
			final := driveStridedScript(t, p, seed)
			if refFinal == nil {
				refFinal = final
				continue
			}
			if string(final) != string(refFinal) {
				t.Fatalf("seed %d: BatchDepth %d diverges from BatchDepth %d", seed, d, depths[0])
			}
		}
	}
}

// driveStridedScript runs one deterministic strided workload (writes
// via WriteV from several pids, interleaved reads, a truncate) and
// returns the final container bytes.
func driveStridedScript(t *testing.T, p *plfs.FS, seed int64) []byte {
	t.Helper()
	f, err := p.Open("/script", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const block = 512
	rnd := seed*2654435761 + 1
	next := func(n int64) int64 {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		v := rnd % n
		if v < 0 {
			v += n
		}
		return v
	}
	for round := 0; round < 6; round++ {
		for pid := uint32(0); pid < 4; pid++ {
			segs := make([]plfs.WriteSeg, 0, 8)
			for s := 0; s < 8; s++ {
				off := (int64(s)*4 + int64(pid)) * block
				data := make([]byte, block)
				for j := range data {
					data[j] = byte(int64(j) + off + next(251))
				}
				segs = append(segs, plfs.WriteSeg{Off: off, Data: data})
			}
			if _, err := f.WriteV(segs, pid); err != nil {
				t.Fatalf("seed %d round %d pid %d: %v", seed, round, pid, err)
			}
		}
		if round == 3 {
			if err := f.Trunc(next(8192) + 1024); err != nil {
				t.Fatal(err)
			}
		}
	}
	for pid := uint32(0); pid < 4; pid++ {
		if err := f.Close(pid); err != nil {
			t.Fatal(err)
		}
	}
	r, err := p.Open("/script", posix.O_RDONLY, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(99)
	size, err := r.Size()
	if err != nil {
		t.Fatal(err)
	}
	final := make([]byte, size)
	if n, err := r.Read(final, 0); err != nil || int64(n) != size {
		t.Fatalf("final read: n=%d err=%v", n, err)
	}
	return final
}
