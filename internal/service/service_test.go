package service

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ldplfs/internal/core"
	"ldplfs/internal/iostats"
	"ldplfs/internal/posix"
	"ldplfs/internal/tune"
)

// newTestGateway builds a gateway over a fresh MemFS with a gold
// (priority 0) and batch (priority 1) tenant.
func newTestGateway(t *testing.T, mutate func(*Config)) *Gateway {
	t.Helper()
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	mounts, err := core.ParseMounts("/mnt/plfs=/backend")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Backend: mem,
		Mounts:  mounts,
		Tenants: []TenantConfig{
			{Name: "gold", Priority: 0, Weight: 2},
			{Name: "batch", Priority: 1, Weight: 1},
		},
		Clock: &tune.ManualClock{},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGatewayValidation(t *testing.T) {
	mem := posix.NewMemFS()
	mounts, _ := core.ParseMounts("/mnt/plfs=/backend")
	tenants := []TenantConfig{{Name: "a"}}
	cases := []Config{
		{Mounts: mounts, Tenants: tenants},                                   // nil backend
		{Backend: mem, Tenants: tenants},                                     // no mounts
		{Backend: mem, Mounts: mounts},                                       // no tenants
		{Backend: mem, Mounts: mounts, Tenants: []TenantConfig{{}}},          // unnamed
		{Backend: mem, Mounts: mounts, Tenants: append(tenants, tenants...)}, // duplicate
	}
	for i, cfg := range cases {
		if _, err := NewGateway(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestSessionRoundTrip(t *testing.T) {
	g := newTestGateway(t, nil)
	s, err := g.NewSession("gold")
	if err != nil {
		t.Fatal(err)
	}
	defer s.End()

	const path = "/mnt/plfs/data"
	fd, err := s.Open(path, posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("plfsd"), 100)
	if n, err := s.Pwrite(fd, payload, 0); err != nil || n != len(payload) {
		t.Fatalf("Pwrite = %d, %v", n, err)
	}
	if err := s.Sync(fd); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(fd); err != nil {
		t.Fatal(err)
	}

	st, err := s.Stat(path)
	if err != nil || st.Size != int64(len(payload)) {
		t.Fatalf("Stat = %+v, %v", st, err)
	}

	fd, err = s.Open(path, posix.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if n, err := s.Pread(fd, got, 0); err != nil || n != len(payload) {
		t.Fatalf("Pread = %d, %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back mismatch")
	}
	if st, err := s.Fstat(fd); err != nil || st.Size != int64(len(payload)) {
		t.Fatalf("Fstat = %+v, %v", st, err)
	}
	if err := s.Close(fd); err != nil {
		t.Fatal(err)
	}

	if err := s.Truncate(path, 7); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Stat(path); st.Size != 7 {
		t.Fatalf("size after truncate = %d", st.Size)
	}
	if err := s.Unlink(path); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat(path); err == nil {
		t.Fatal("stat after unlink succeeded")
	}
}

func TestSessionPidsDistinct(t *testing.T) {
	g := newTestGateway(t, nil)
	seen := map[uint32]bool{}
	for _, tenant := range []string{"gold", "batch", "gold"} {
		s, err := g.NewSession(tenant)
		if err != nil {
			t.Fatal(err)
		}
		if seen[s.Pid()] {
			t.Fatalf("pid %d reused", s.Pid())
		}
		seen[s.Pid()] = true
		// The high bits encode the tenant, so sessions of different
		// tenants can never collide on droppings even across restarts of
		// the client counter.
		wantIdx := uint32(0)
		if tenant == "batch" {
			wantIdx = 1
		}
		if s.Pid()>>20 != wantIdx {
			t.Fatalf("tenant %s pid %#x: tenant bits %d", tenant, s.Pid(), s.Pid()>>20)
		}
		s.End()
		s.End() // idempotent
	}
}

func TestUnknownTenantRefused(t *testing.T) {
	g := newTestGateway(t, nil)
	if _, err := g.NewSession("nosuch"); err == nil {
		t.Fatal("unknown tenant admitted")
	}
}

func TestTenantLayerRecords(t *testing.T) {
	g := newTestGateway(t, nil)
	s, err := g.NewSession("gold")
	if err != nil {
		t.Fatal(err)
	}
	defer s.End()

	fd, err := s.Open("/mnt/plfs/f", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pwrite(fd, make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(fd); err != nil {
		t.Fatal(err)
	}

	gold := g.Tenant("gold")
	if gold.Layer().OpCount(iostats.Open) != 1 {
		t.Fatalf("open count = %d", gold.Layer().OpCount(iostats.Open))
	}
	if gold.Layer().OpBytes(iostats.Write) != 4096 {
		t.Fatalf("write bytes = %d", gold.Layer().OpBytes(iostats.Write))
	}
	if !strings.Contains(g.StatsText(), "tenant:gold") {
		t.Fatal("plane snapshot missing tenant layer")
	}
}

// TestConcurrentMultiClientRace hammers one gateway with many sessions
// across both tenants doing overlapping open/write/read/trunc/unlink —
// the data-race canary for the shared PLFS instances, fd tables and
// QoS stage. Run under -race in CI.
func TestConcurrentMultiClientRace(t *testing.T) {
	g := newTestGateway(t, func(c *Config) { c.MaxInflight = 4 })
	const sessions = 8
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		i := i
		tenant := "gold"
		if i%2 == 1 {
			tenant = "batch"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := g.NewSession(tenant)
			if err != nil {
				errs <- err
				return
			}
			defer s.End()
			shared := "/mnt/plfs/shared"
			private := fmt.Sprintf("/mnt/plfs/private-%d", i)
			for iter := 0; iter < 20; iter++ {
				for _, path := range []string{shared, private} {
					fd, err := s.Open(path, posix.O_CREAT|posix.O_RDWR, 0o644)
					if err != nil {
						errs <- fmt.Errorf("open %s: %w", path, err)
						return
					}
					buf := bytes.Repeat([]byte{byte(i)}, 512)
					if _, err := s.Pwrite(fd, buf, int64(iter*512)); err != nil {
						errs <- fmt.Errorf("pwrite %s: %w", path, err)
						return
					}
					if _, err := s.Pread(fd, buf, 0); err != nil {
						errs <- fmt.Errorf("pread %s: %w", path, err)
						return
					}
					if err := s.Close(fd); err != nil {
						errs <- fmt.Errorf("close %s: %w", path, err)
						return
					}
				}
				// Metadata churn on the private file only — truncating the
				// shared container under other writers is legal but makes
				// size assertions meaningless.
				if iter%5 == 4 {
					if err := s.Truncate(private, 0); err != nil {
						errs <- fmt.Errorf("truncate: %w", err)
						return
					}
				}
			}
			if err := s.Unlink(private); err != nil {
				errs <- fmt.Errorf("unlink: %w", err)
				return
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestGovernorActuates drives foreground traffic through a governed
// gateway and asserts the controller runs measurement windows and only
// ever parks the background tenant's cap on a ladder position.
func TestGovernorActuates(t *testing.T) {
	clock := &tune.ManualClock{}
	const batchBase = 1 << 20
	g := newTestGateway(t, func(c *Config) {
		c.Clock = clock
		c.Tenants = []TenantConfig{
			{Name: "gold", Priority: 0},
			{Name: "batch", Priority: 1, ReadBytesPerSec: batchBase, WriteBytesPerSec: batchBase},
		}
		c.Governor = GovernorConfig{Enable: true, WindowBytes: 64 << 10}
	})
	if g.Governor() == nil {
		t.Fatal("governor not armed")
	}

	s, err := g.NewSession("gold")
	if err != nil {
		t.Fatal(err)
	}
	defer s.End()
	fd, err := s.Open("/mnt/plfs/fg", posix.O_CREAT|posix.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32<<10)
	for i := 0; i < 40; i++ {
		if _, err := s.Pwrite(fd, buf, int64(i*len(buf))); err != nil {
			t.Fatal(err)
		}
		clock.Advance(10 * time.Millisecond)
	}
	if err := s.Close(fd); err != nil {
		t.Fatal(err)
	}

	if g.Governor().Windows() == 0 {
		t.Fatal("governor never closed a window")
	}
	rate := g.Tenant("batch").ReadRate()
	valid := false
	for _, pct := range defaultGovernorLadder {
		if rate == batchBase*int64(pct)/100 {
			valid = true
		}
	}
	if !valid {
		t.Fatalf("batch rate %d is not on the ladder", rate)
	}
}

// TestDoctorOverSession exercises the service-side doctor: a written
// container reports openhosts records and index health, and -fix
// scrubs the stale record left by a vanished writer.
func TestDoctorOverSession(t *testing.T) {
	g := newTestGateway(t, nil)
	s, err := g.NewSession("gold")
	if err != nil {
		t.Fatal(err)
	}
	defer s.End()

	fd, err := s.Open("/mnt/plfs/sick", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pwrite(fd, []byte("droppings"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(fd); err != nil {
		t.Fatal(err)
	}

	report, err := s.Doctor("/mnt/plfs/sick", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "openhosts records") || !strings.Contains(report, "index:") {
		t.Fatalf("doctor report missing sections:\n%s", report)
	}
	if _, err := s.Doctor("/not/mounted", false); err == nil {
		t.Fatal("doctor outside the mounts succeeded")
	}
}

// TestMountSpellings pins that every path-taking operation of a session
// resolves mounts through the one core.Mount.Resolve: a mount point the
// operator spelled with a trailing slash (or without the leading one)
// serves I/O and Doctor alike.
func TestMountSpellings(t *testing.T) {
	for _, point := range []string{"/mnt/plfs", "/mnt/plfs/", "mnt/plfs"} {
		t.Run(point, func(t *testing.T) {
			g := newTestGateway(t, func(cfg *Config) {
				cfg.Mounts = []core.Mount{{Point: point, Backend: "/backend/"}}
			})
			s, err := g.NewSession("gold")
			if err != nil {
				t.Fatal(err)
			}
			defer s.End()
			fd, err := s.Open("/mnt/plfs/f", posix.O_CREAT|posix.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Pwrite(fd, []byte("droppings"), 0); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(fd); err != nil {
				t.Fatal(err)
			}
			if st, err := s.Stat("/mnt/plfs/f"); err != nil || st.Size != 9 {
				t.Fatalf("Stat = %+v, %v", st, err)
			}
			if _, err := s.Doctor("/mnt/plfs/f", false); err != nil {
				t.Fatalf("Doctor: %v", err)
			}
		})
	}
}
