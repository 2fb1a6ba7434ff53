package iostats

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrentAdds(t *testing.T) {
	c := NewCounter()
	const goroutines, adds = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*adds {
		t.Fatalf("Load = %d, want %d", got, goroutines*adds)
	}
}

func TestNilSafety(t *testing.T) {
	var l *LayerStats
	if !l.Start().IsZero() {
		t.Fatal("nil Start should not sample the clock")
	}
	l.End(Read, 100, time.Time{}, nil) // must not panic
	l.Add(Write, 5)
	if l.OpCount(Read) != 0 || l.OpBytes(Write) != 0 || l.OpErrors(Read) != 0 {
		t.Fatal("nil layer reported non-zero stats")
	}
	if l.Name() != "" {
		t.Fatal("nil layer has a name")
	}
	// A nil layer still hands out usable (standalone) counters.
	c := l.Counter("hits")
	c.Add(3)
	if c.Load() != 3 {
		t.Fatalf("standalone counter = %d, want 3", c.Load())
	}
	var nilCounter *Counter
	nilCounter.Add(1)
	if nilCounter.Load() != 0 {
		t.Fatal("nil counter loaded non-zero")
	}
	// A nil plane is telemetry off: nil layers and an empty snapshot.
	var p *Plane
	if p.Layer("posix") != nil {
		t.Fatal("nil plane handed out a layer")
	}
	if s := p.Snapshot(); len(s.Layers) != 0 || s.String() != "" {
		t.Fatalf("nil plane snapshot = %+v, want empty", s)
	}
}

func TestLayerStatsRecords(t *testing.T) {
	l := NewLayerStats("plfs")
	start := l.Start()
	l.End(Read, 4096, start, nil)
	l.End(Read, 0, l.Start(), errors.New("boom"))
	l.Add(Write, 1024)

	if got := l.OpCount(Read); got != 2 {
		t.Fatalf("read count = %d, want 2", got)
	}
	if got := l.OpBytes(Read); got != 4096 {
		t.Fatalf("read bytes = %d, want 4096", got)
	}
	if got := l.OpErrors(Read); got != 1 {
		t.Fatalf("read errors = %d, want 1", got)
	}
	if got := l.OpBytes(Write); got != 1024 {
		t.Fatalf("write bytes = %d, want 1024", got)
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	for i := 0; i < 99; i++ {
		h.Observe(1000) // bucket 10, upper bound 1024
	}
	h.Observe(1 << 20) // one outlier
	s := h.snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if q := s.Quantile(0.50); q != 1024 {
		t.Fatalf("p50 = %d, want 1024", q)
	}
	if q := s.Quantile(1.0); q != 1<<21 {
		t.Fatalf("p100 = %d, want %d", q, 1<<21)
	}
	if (HistSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	var zeros Hist
	zeros.Observe(0)
	zeros.Observe(-5)
	if zs := zeros.snapshot(); zs.Buckets[0] != 2 {
		t.Fatalf("non-positive observations = %d in bucket 0, want 2", zs.Buckets[0])
	}
}

func TestPlaneLayersAggregateAndOrder(t *testing.T) {
	p := NewPlane()
	a := p.Layer("posix")
	b := p.Layer("plfs")
	if p.Layer("posix") != a {
		t.Fatal("second Layer(posix) returned a different handle")
	}
	a.Add(Read, 10)
	b.Add(Write, 20)
	b.Counter("hits").Add(7)

	s := p.Snapshot()
	if len(s.Layers) != 2 || s.Layers[0].Name != "posix" || s.Layers[1].Name != "plfs" {
		t.Fatalf("layers = %+v, want registration order posix,plfs", s.Layers)
	}
	if len(s.Layers[0].Ops) != 1 || s.Layers[0].Ops[0].Op != "read" || s.Layers[0].Ops[0].Bytes != 10 {
		t.Fatalf("posix ops = %+v", s.Layers[0].Ops)
	}
	if len(s.Layers[1].Counters) != 1 || s.Layers[1].Counters[0] != (CounterSnapshot{Name: "hits", Value: 7}) {
		t.Fatalf("plfs counters = %+v", s.Layers[1].Counters)
	}
}

func TestOpStrings(t *testing.T) {
	want := map[Op]string{Open: "open", Read: "read", Write: "write", Sync: "sync", Meta: "meta", NumOps: "?"}
	for op, name := range want {
		if op.String() != name {
			t.Errorf("Op(%d).String() = %q, want %q", int(op), op.String(), name)
		}
	}
}

func TestSnapshotFormat(t *testing.T) {
	p := NewPlane()
	l := p.Layer("readcache")
	l.End(Read, 123, l.Start(), nil)
	l.Counter("hits").Add(2)
	out := p.Snapshot().String()
	for _, want := range []string{"layer readcache", "read", "123 bytes", "hits = 2", "p50<"} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot output missing %q:\n%s", want, out)
		}
	}
}
