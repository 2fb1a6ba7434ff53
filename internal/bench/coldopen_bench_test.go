package bench

import (
	"testing"
	"time"

	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// Cold-open benchmarks: the PLFS metadata wall. A container written by
// many ranks accumulates one index dropping per writer; a cold Open/Stat
// must resolve all of them before the first byte is served. Without a
// flattened record that is an O(total-entries) streaming merge (here 16
// writers x 4k entries = 64k records); with one it is an O(extents) load
// of a single checksummed table. This is the index-flattening cure from
// PLFS proper, measured under the shape the motivating papers describe.
const (
	coWriters   = 16
	coEntries   = 4096 // index records per writer
	coBlock     = 32   // bytes per record; keeps the 2 MiB payload incidental
	coFloorSpec = 1.5  // conservative enforced floor (bench target is >= 2x)
)

// setupColdOpen builds the many-writer container once. Writes are issued
// round-robin across the 16 writers' segments, so timestamps interleave
// across 16 regions — the worst realistic shape for the merge (inserts
// rotate across the logical space instead of appending at one tail). The
// clean closes persist the flattened record; dropRecord removes it
// again, leaving a cold open the streaming merge over raw droppings.
func setupColdOpen(tb testing.TB, dropRecord bool) *posix.MemFS {
	tb.Helper()
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		tb.Fatal(err)
	}
	p := plfs.New(mem)
	f, err := p.Open("/backend/many", posix.O_CREAT|posix.O_WRONLY, 0, 0o644)
	if err != nil {
		tb.Fatal(err)
	}
	payload := make([]byte, coBlock)
	for e := 0; e < coEntries; e++ {
		for w := 0; w < coWriters; w++ {
			off := int64((w*coEntries + e) * coBlock)
			if _, err := f.Write(payload, off, uint32(w)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for w := 0; w < coWriters; w++ {
		if err := f.Close(uint32(w)); err != nil {
			tb.Fatal(err)
		}
	}
	if dropRecord {
		if n, err := p.DropFlattenedIndex("/backend/many"); err != nil || n != 1 {
			tb.Fatalf("drop flattened = %d, %v; want 1", n, err)
		}
	}
	return mem
}

// coldOpenOnce opens the container on a cache-cold instance and forces
// the index build via Size (the index-backed half of Stat) plus a first
// read — the plfs_open+plfs_getattr cost LDPLFS pays before an
// application sees byte 0.
func coldOpenOnce(tb testing.TB, mem *posix.MemFS) time.Duration {
	tb.Helper()
	p := plfs.New(mem)
	buf := make([]byte, coBlock)
	start := time.Now()
	f, err := p.Open("/backend/many", posix.O_RDONLY, 9999, 0)
	if err != nil {
		tb.Fatal(err)
	}
	size, err := f.Size()
	if err != nil {
		tb.Fatal(err)
	}
	if want := int64(coWriters * coEntries * coBlock); size != want {
		tb.Fatalf("cold size = %d, want %d", size, want)
	}
	if _, err := f.Read(buf, 0); err != nil {
		tb.Fatal(err)
	}
	elapsed := time.Since(start)
	f.Close(9999)
	return elapsed
}

func benchOpenCold(b *testing.B, dropRecord bool) {
	mem := setupColdOpen(b, dropRecord)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldOpenOnce(b, mem)
	}
}

func BenchmarkOpenColdManyWriters_Flattened(b *testing.B) { benchOpenCold(b, false) }
func BenchmarkOpenColdManyWriters_Merge(b *testing.B)     { benchOpenCold(b, true) }

// TestFlattenedColdOpenFloor is the acceptance check behind the
// benchmarks (a la TestStripedAggregation): at 16 writers x 4k entries,
// the flattened cold open/Stat must beat the raw streaming merge by at
// least coFloorSpec (the bench target is >= 2x; the floor leaves
// headroom for scheduler noise). Best-of-three per side keeps one GC
// pause from failing the build.
func TestFlattenedColdOpenFloor(t *testing.T) {
	best := func(dropRecord bool) time.Duration {
		mem := setupColdOpen(t, dropRecord)
		lo := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			if d := coldOpenOnce(t, mem); d < lo {
				lo = d
			}
		}
		return lo
	}
	flattened := best(false)
	merge := best(true)
	ratio := float64(merge) / float64(flattened)
	t.Logf("cold open/Stat at %d writers x %d entries: merge %v, flattened %v (%.2fx)",
		coWriters, coEntries, merge, flattened, ratio)
	if ratio < coFloorSpec {
		t.Fatalf("flattened cold open only %.2fx faster than the merge (want >= %.1fx): %v vs %v",
			ratio, coFloorSpec, merge, flattened)
	}
}
