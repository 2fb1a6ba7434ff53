package plfs

import (
	"bytes"
	"testing"

	"ldplfs/internal/iostats"
	"ldplfs/internal/plfs/tune"
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
}

// TestKnobOverrides checks the runtime overrides win over Options and
// that clearing them restores the static configuration.
func TestKnobOverrides(t *testing.T) {
	p := New(posix.NewMemFS(), EngineOptions{ReadWorkers: 2, WriteWorkers: 3, IndexBatch: 100})

	if got := p.readWorkers(); got != 2 {
		t.Fatalf("readWorkers = %d, want configured 2", got)
	}
	p.SetReadWorkers(7)
	p.SetWriteWorkers(9)
	p.SetIndexBatch(11)
	if got := p.readWorkers(); got != 7 {
		t.Errorf("readWorkers override = %d, want 7", got)
	}
	if got := p.writeWorkers(); got != 9 {
		t.Errorf("writeWorkers override = %d, want 9", got)
	}
	if got := p.indexBatchRecords(); got != 11 {
		t.Errorf("indexBatchRecords override = %d, want 11", got)
	}
	p.SetReadWorkers(0)
	p.SetWriteWorkers(0)
	p.SetIndexBatch(0)
	if got := p.readWorkers(); got != 2 {
		t.Errorf("readWorkers after clearing = %d, want 2", got)
	}
	if got := p.writeWorkers(); got != 3 {
		t.Errorf("writeWorkers after clearing = %d, want 3", got)
	}
	if got := p.indexBatchRecords(); got != 100 {
		t.Errorf("indexBatchRecords after clearing = %d, want 100", got)
	}
}

// TestAutoTuneTicksAndStaysInBounds drives a tuned instance through
// enough traffic to close several windows (manual clock, so the climb
// is deterministic in cadence) and checks the controller is alive and
// every knob stays inside its ladder bounds.
func TestAutoTuneTicksAndStaysInBounds(t *testing.T) {
	clock := &tune.ManualClock{}
	p := New(posix.NewMemFS(), TuneOptions{Enable: true, WindowBytes: 64 << 10, Clock: clock})
	if p.Tuner() == nil {
		t.Fatal("AutoTune did not start a controller")
	}

	f, err := p.Open("/c", posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{1}, 8<<10)
	for i := 0; i < 64; i++ {
		clock.Advance(10e6) // 10ms per op of virtual time
		if _, err := f.Write(payload, int64(i)*int64(len(payload)), 1); err != nil {
			t.Fatal(err)
		}
	}
	f.Close(1)

	if p.Tuner().Windows() == 0 {
		t.Fatal("no tuning windows closed despite 512 KiB of traffic")
	}
	for _, st := range p.Tuner().State() {
		if st.Value < st.Min || st.Value > st.Max {
			t.Errorf("knob %s = %d outside bounds [%d, %d]", st.Name, st.Value, st.Min, st.Max)
		}
	}
	for _, d := range p.Tuner().Decisions() {
		for _, st := range p.Tuner().State() {
			if d.Knob == st.Name && (d.To < st.Min || d.To > st.Max) {
				t.Errorf("decision %v outside bounds [%d, %d]", d, st.Min, st.Max)
			}
		}
	}
}

// TestStripedIntrospectionSeesThroughInstrumentation pins the PR3 API
// contract under telemetry: an instance whose striped backend arrives
// wrapped in an InstrumentFS must still report its true backend count
// and per-backend spread.
func TestStripedIntrospectionSeesThroughInstrumentation(t *testing.T) {
	plane := iostats.NewPlane()
	striped := posix.NewStripedFS(posix.NewMemFS(), posix.NewMemFS(), posix.NewMemFS())
	p := New(posix.NewInstrumentFS(striped, plane), EngineOptions{NumHostdirs: 6})

	if got := p.NumBackends(); got != 3 {
		t.Fatalf("NumBackends through InstrumentFS = %d, want 3", got)
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

// TestAutoTuneFlushOnSyncStartsAtLargestBatch pins the regression: an
// instance configured with IndexBatch < 0 (flush only on sync — the
// least index I/O possible) must not have AutoTune snap the knob to
// batch=1, the most index I/O possible. The nearest tunable analogue
// is the ladder top.
func TestAutoTuneFlushOnSyncStartsAtLargestBatch(t *testing.T) {
	p := New(posix.NewMemFS(),
		EngineOptions{IndexBatch: -1},
		TuneOptions{Enable: true, Clock: &tune.ManualClock{}},
	)
	if got := p.indexBatchRecords(); got != indexBatchLadder[len(indexBatchLadder)-1] {
		t.Fatalf("indexBatchRecords = %d under AutoTune with IndexBatch<0, want ladder top %d",
			got, indexBatchLadder[len(indexBatchLadder)-1])
	}
}

// TestAutoTuneOffHasNoController pins the pay-for-what-you-touch
// contract's control side: no collector, no AutoTune — no layer, no
// tuner.
func TestAutoTuneOffHasNoController(t *testing.T) {
	p := New(posix.NewMemFS())
	if p.Tuner() != nil || p.stats != nil {
		t.Fatal("telemetry state allocated with Stats nil and AutoTune off")
	}
}
