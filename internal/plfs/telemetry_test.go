package plfs

import (
	"bytes"
	"testing"

	"ldplfs/internal/iostats"
	"ldplfs/internal/posix"
)

// TestStatsPlaneRecordsEngineOps checks the plfs engines report through
// the collector: op counts and bytes on layer "plfs", and the index
// cache's counters on layer "readcache" — the layer the instance counts
// on, not a copy.
func TestStatsPlaneRecordsEngineOps(t *testing.T) {
	plane := iostats.NewPlane()
	p := New(posix.NewMemFS(), WithStats(plane))

	f, err := p.Open("/c", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 4096)
	if _, err := f.Write(payload, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if n, err := f.Read(got, 0); err != nil || n != 4096 {
		t.Fatalf("read = %d, %v", n, err)
	}
	if err := f.Close(1); err != nil {
		t.Fatal(err)
	}

	ls := plane.Layer("plfs")
	if n := ls.OpCount(iostats.Open); n != 1 {
		t.Errorf("open count = %d, want 1", n)
	}
	if n := ls.OpBytes(iostats.Write); n != 4096 {
		t.Errorf("write bytes = %d, want 4096", n)
	}
	if n := ls.OpBytes(iostats.Read); n != 4096 {
		t.Errorf("read bytes = %d, want 4096", n)
	}
	if n := ls.OpCount(iostats.Sync); n != 1 {
		t.Errorf("sync count = %d, want 1", n)
	}

	cacheLayer := plane.Layer("readcache")
	if cacheLayer.Counter("builds").Load() == 0 {
		t.Error("readcache layer recorded no builds")
	}
	if p.cacheLayer != cacheLayer {
		t.Error("the instance counts on a layer other than the collector's readcache layer")
	}
	// Pay for what you touch: no collector, no engine layer.
	if New(posix.NewMemFS()).stats != nil {
		t.Error("engine telemetry layer allocated with Stats nil")
	}
}

// TestStripedIntrospectionSeesThroughInstrumentation pins the PR3 API
// contract under telemetry: an instance whose striped backend arrives
// wrapped in an InstrumentFS must still report its true backend count
// and per-backend spread.
func TestStripedIntrospectionSeesThroughInstrumentation(t *testing.T) {
	plane := iostats.NewPlane()
	striped := posix.NewStripedFS(posix.NewMemFS(), posix.NewMemFS(), posix.NewMemFS())
	p := New(posix.NewInstrumentFS(striped, plane))

	if s := p.stripedBackend(); s != striped {
		t.Fatalf("striped backend through InstrumentFS = %p, want %p", s, striped)
	}
	f, err := p.Open("/c", posix.O_CREAT|posix.O_WRONLY, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for pid := uint32(0); pid < 6; pid++ {
		if _, err := f.Write([]byte("x"), int64(pid), pid); err != nil {
			t.Fatal(err)
		}
	}
	// One reference: closing pid 0 retires every writer on the handle.
	if err := f.Close(0); err != nil {
		t.Fatal(err)
	}
	spread, err := p.ContainerSpread("/c")
	if err != nil {
		t.Fatal(err)
	}
	if len(spread) != 3 {
		t.Fatalf("ContainerSpread buckets = %d, want 3", len(spread))
	}
	for i, n := range spread {
		if n == 0 {
			t.Errorf("backend %d holds no droppings; spread = %v", i, spread)
		}
	}
}
