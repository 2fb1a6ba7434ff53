package bench

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"ldplfs/internal/core"
	"ldplfs/internal/iostats"
	"ldplfs/internal/posix"
	"ldplfs/internal/service"
)

// Tenant-isolation benchmark: a plfsd gateway over service-limited
// striped backends, one latency-sensitive foreground tenant sharing the
// store with a hostile tenant that saturates the backends with large
// writes. The QoS stage's job is to keep the foreground's read latency
// bounded (strict-priority admission: priority 0 never queues behind
// the bulk writer for an inflight slot) WITHOUT giving up aggregate
// throughput — priority is work-conserving where byte caps are not.
const (
	tqBackends  = 3
	tqService   = 200 * time.Microsecond // per-op backend service time
	tqBlock     = 64 << 10               // hostile write block
	tqReadBlock = 4 << 10                // foreground read block
	tqReads     = 60                     // foreground reads measured
)

// tqGateway assembles the gateway over one store striped across three
// FaultFS-backed backends and shared by every tenant, the foreground
// container pre-written while service time is off. Returns the gateway and the
// fault handles (service time still off — callers arm it around the
// measured phase).
func tqGateway(tb testing.TB, policed bool) (*service.Gateway, []*posix.FaultFS) {
	tb.Helper()
	faults := make([]*posix.FaultFS, tqBackends)
	backends := make([]posix.FS, tqBackends)
	for i := range faults {
		mem := posix.NewMemFS()
		if err := mem.Mkdir("/backend", 0o755); err != nil {
			tb.Fatal(err)
		}
		faults[i] = posix.NewFaultFS(mem)
		backends[i] = faults[i]
	}
	mounts, err := core.ParseMounts("/mnt/plfs=/backend")
	if err != nil {
		tb.Fatal(err)
	}
	hostilePri, batchPri := 1, 1
	if !policed {
		// The baseline erases the policy: everyone is foreground, so
		// admission degrades to FIFO and the gateway is a plain fan-in.
		hostilePri, batchPri = 0, 0
	}
	g, err := service.NewGateway(service.Config{
		Backend: posix.NewStripedFS(backends...),
		Mounts:  mounts,
		Tenants: []service.TenantConfig{
			{Name: "gold", Priority: 0},
			{Name: "hostile", Priority: hostilePri},
			{Name: "batch", Priority: batchPri},
		},
		MaxInflight: 4, // small pool: admission arbitration is the story
	})
	if err != nil {
		tb.Fatal(err)
	}

	// Pre-write the foreground container (service time off).
	s, err := g.NewSession("gold")
	if err != nil {
		tb.Fatal(err)
	}
	defer s.End()
	fd, err := s.Open("/mnt/plfs/gold", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		tb.Fatal(err)
	}
	seed := bytes.Repeat([]byte{0x5a}, tqReadBlock)
	for i := 0; i < tqReads; i++ {
		if _, err := s.Pwrite(fd, seed, int64(i*tqReadBlock)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Close(fd); err != nil {
		tb.Fatal(err)
	}
	return g, faults
}

// tqRun drives the contended phase: hostile + batch stream large writes
// while gold performs its reads. Returns gold's p99 read latency and
// the aggregate bytes moved per wall second.
func tqRun(tb testing.TB, g *service.Gateway, faults []*posix.FaultFS) (p99 time.Duration, aggBps float64) {
	tb.Helper()
	for _, f := range faults {
		f.SetServiceTime(posix.FaultAny, tqService)
	}
	defer func() {
		for _, f := range faults {
			f.SetServiceTime(posix.FaultAny, 0)
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var hostileBytes int64
	var hostileMu sync.Mutex
	for _, name := range []string{"hostile", "batch"} {
		name := name
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := g.NewSession(name)
			if err != nil {
				tb.Error(err)
				return
			}
			defer s.End()
			fd, err := s.Open("/mnt/plfs/"+name, posix.O_CREAT|posix.O_WRONLY, 0o644)
			if err != nil {
				tb.Error(err)
				return
			}
			defer s.Close(fd)
			block := bytes.Repeat([]byte{0xff}, tqBlock)
			var off int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Pwrite(fd, block, off); err != nil {
					tb.Error(err)
					return
				}
				off += tqBlock
				hostileMu.Lock()
				hostileBytes += tqBlock
				hostileMu.Unlock()
			}
		}()
	}

	gold, err := g.NewSession("gold")
	if err != nil {
		tb.Fatal(err)
	}
	defer gold.End()
	fd, err := gold.Open("/mnt/plfs/gold", posix.O_RDONLY, 0)
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	buf := make([]byte, tqReadBlock)
	var goldBytes int64
	for i := 0; i < tqReads; i++ {
		n, err := gold.Pread(fd, buf, int64(i*tqReadBlock))
		if err != nil {
			tb.Fatal(err)
		}
		goldBytes += int64(n)
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	if err := gold.Close(fd); err != nil {
		tb.Fatal(err)
	}

	hostileMu.Lock()
	total := hostileBytes + goldBytes
	hostileMu.Unlock()
	return tenantReadP99(tb, g, "gold"), float64(total) / elapsed.Seconds()
}

// tenantReadP99 digs the foreground tenant's read-latency p99 out of
// the gateway plane.
func tenantReadP99(tb testing.TB, g *service.Gateway, tenant string) time.Duration {
	tb.Helper()
	for _, l := range g.Plane().Snapshot().Layers {
		if l.Name != "tenant:"+tenant {
			continue
		}
		for _, op := range l.Ops {
			if op.Op == iostats.Read.String() {
				return time.Duration(op.Lat.Quantile(0.99))
			}
		}
	}
	tb.Fatalf("no read row for tenant %q", tenant)
	return 0
}

// TestTenantIsolation is the CI floor from the issue: under a hostile
// saturating tenant, the policed gateway keeps the foreground tenant's
// p99 read latency within target while aggregate throughput stays
// within ~10% of the un-policed path (generous slack for CI machines:
// the assertion allows 20% before failing).
func TestTenantIsolation(t *testing.T) {
	gBase, fBase := tqGateway(t, false)
	_, baseAgg := tqRun(t, gBase, fBase)

	gPol, fPol := tqGateway(t, true)
	p99, polAgg := tqRun(t, gPol, fPol)

	// Target: a read costs one service slot (~200µs) per touched
	// backend plus queueing behind AT MOST the inflight operations
	// strict priority cannot preempt. 50ms is ~250 service slots of
	// headroom — a saturated FIFO path without priority routinely blows
	// past this, a priority-admitted one never should.
	const p99Target = 50 * time.Millisecond
	if p99 > p99Target {
		t.Errorf("policed gold p99 read latency %v exceeds the %v target", p99, p99Target)
	}
	if polAgg < 0.8*baseAgg {
		t.Errorf("policed aggregate %.0f B/s fell more than 20%% below un-policed %.0f B/s", polAgg, baseAgg)
	}
	t.Logf("gold p99 %v (target %v); aggregate policed %.1f MB/s vs un-policed %.1f MB/s",
		p99, p99Target, polAgg/1e6, baseAgg/1e6)
}

// BenchmarkTenantQoS reports the same two numbers as benchmark metrics
// for the bench-smoke job: foreground p99 and aggregate bandwidth,
// policed vs un-policed.
func BenchmarkTenantQoS(b *testing.B) {
	for _, policed := range []bool{false, true} {
		name := "unpoliced"
		if policed {
			name = "policed"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, faults := tqGateway(b, policed)
				p99, agg := tqRun(b, g, faults)
				b.ReportMetric(float64(p99.Microseconds()), "p99-us")
				b.ReportMetric(agg/1e6, "agg-MB/s")
			}
		})
	}
}
