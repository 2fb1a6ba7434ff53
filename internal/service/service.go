package service

import (
	"errors"
	"fmt"
	"sync"

	"ldplfs/internal/core"
	"ldplfs/internal/iostats"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
	"ldplfs/internal/tune"
)

// Config configures a Gateway.
type Config struct {
	// Backend is the store the gateway serves (stripe it with
	// posix.NewStripedFS before handing it over, as a local client
	// would).
	Backend posix.FS

	// Mounts maps client-visible path prefixes onto backend container
	// trees, exactly as LD_PRELOAD'ed processes configure PLFS_MNT.
	Mounts []core.Mount

	// Tenants declares who may connect and under what policy. A client
	// whose Hello names an undeclared tenant is refused.
	Tenants []TenantConfig

	// MaxInflight bounds concurrently executing operations across all
	// tenants (default 64) — the slot pool the admission stage arbitrates.
	MaxInflight int

	// Plane receives every layer's telemetry: the per-tenant QoS layers,
	// plus the plfs engines and caches of every tenant instance. Nil
	// creates a private plane.
	Plane *iostats.Plane

	// Clock drives the token buckets and the governor (nil = wall time).
	Clock tune.Clock

	// Governor enables the feedback loop that throttles background
	// tenants when foreground demand rises.
	Governor GovernorConfig
}

// GovernorConfig configures the per-tenant policy actuator: a tune
// controller whose throughput signal is the priority-0 tenants'
// delivered bytes and whose knobs are the background tenants' rate
// caps. When foreground demand is being starved, stepping a background
// tenant's cap down raises the signal and the controller keeps the
// step; when the foreground is idle, throttling buys nothing, the
// trial shows no improvement, and background tenants keep their full
// rates — work-conserving both ways.
type GovernorConfig struct {
	Enable bool

	// WindowBytes sizes the measurement window over foreground bytes
	// (0 = tune.DefaultWindowBytes).
	WindowBytes int64

	// Ladder is the percent-of-configured-rate positions the governor
	// may set a background tenant's byte caps to, ascending (default
	// 12, 25, 50, 100). The ends are hard bounds.
	Ladder []int
}

var defaultGovernorLadder = []int{12, 25, 50, 100}

// Gateway is the plfsd service core: tenant policy, per-tenant PLFS
// instances, and session minting. It is transport-agnostic — Serve
// (server.go) runs it over a listener; tests and benchmarks drive
// sessions in-process.
type Gateway struct {
	cfg   Config
	plane *iostats.Plane
	qos   *qos
	gov   *tune.Controller

	mu         sync.Mutex
	fss        map[string]*plfs.FS // tenant -> shared PLFS instance
	tenantIdx  map[string]uint32
	nextClient uint32
}

// NewGateway validates cfg and builds the service core.
func NewGateway(cfg Config) (*Gateway, error) {
	if cfg.Backend == nil {
		return nil, errors.New("service: nil backend")
	}
	if len(cfg.Mounts) == 0 {
		return nil, errors.New("service: no mounts configured")
	}
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("service: no tenants declared")
	}
	if cfg.Plane == nil {
		cfg.Plane = iostats.NewPlane()
	}
	g := &Gateway{
		cfg:       cfg,
		plane:     cfg.Plane,
		qos:       newQoS(cfg.Tenants, cfg.Plane, cfg.MaxInflight, cfg.Clock),
		fss:       make(map[string]*plfs.FS, len(cfg.Tenants)),
		tenantIdx: make(map[string]uint32, len(cfg.Tenants)),
	}
	for i, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("service: tenant %d has no name", i)
		}
		if _, dup := g.fss[tc.Name]; dup {
			return nil, fmt.Errorf("service: duplicate tenant %q", tc.Name)
		}
		// Every rank of a tenant shares one PLFS instance — index
		// caches, read engines and flatten state pool across the
		// tenant's sessions, as ranks on one node share the preloaded
		// library. The tenant's grouped config is taken as-is except
		// that telemetry scopes through the gateway plane unless the
		// tenant wired its own collector.
		fsCfg := tc.Plfs
		if fsCfg.Telemetry.Stats == nil && g.plane != nil {
			fsCfg.Telemetry.Stats = g.plane
		}
		g.fss[tc.Name] = plfs.New(cfg.Backend, fsCfg)
		g.tenantIdx[tc.Name] = uint32(i)
	}
	if cfg.Governor.Enable {
		g.gov = newGovernor(cfg.Governor, g.qos, cfg.Clock)
	}
	return g, nil
}

// newGovernor wires the tune controller: source = foreground
// (priority-0) tenants' delivered bytes, knobs = background tenants'
// byte-rate caps as a percent ladder. Background tenants with no
// configured byte cap have nothing to actuate and get no knob.
func newGovernor(cfg GovernorConfig, q *qos, clock tune.Clock) *tune.Controller {
	ladder := cfg.Ladder
	if len(ladder) == 0 {
		ladder = defaultGovernorLadder
	}
	var fg []*Tenant
	var knobs []tune.Knob
	for _, t := range q.Tenants() {
		t := t
		if t.Priority == 0 {
			fg = append(fg, t)
			continue
		}
		baseR := t.readBucket.Rate()
		baseW := t.writeBucket.Rate()
		if baseR <= 0 && baseW <= 0 {
			continue
		}
		knobs = append(knobs, tune.Knob{
			Name:   "rate:" + t.Name,
			Ladder: ladder,
			Start:  ladder[len(ladder)-1],
			Apply: func(pct int) {
				if baseR > 0 {
					t.readBucket.SetRate(baseR * int64(pct) / 100)
				}
				if baseW > 0 {
					t.writeBucket.SetRate(baseW * int64(pct) / 100)
				}
			},
		})
	}
	if len(fg) == 0 || len(knobs) == 0 {
		return nil
	}
	source := func() int64 {
		var n int64
		for _, t := range fg {
			n += t.ls.OpBytes(iostats.Read) + t.ls.OpBytes(iostats.Write)
		}
		return n
	}
	return tune.New(tune.Config{WindowBytes: cfg.WindowBytes, Clock: clock}, source, knobs...)
}

// Plane exposes the gateway's telemetry plane (plfsctl stats reads it
// over the wire; tests read it directly).
func (g *Gateway) Plane() *iostats.Plane { return g.plane }

// Governor exposes the policy controller (nil when disabled).
func (g *Gateway) Governor() *tune.Controller { return g.gov }

// Tenant resolves a declared tenant by name (nil if unknown).
func (g *Gateway) Tenant(name string) *Tenant { return g.qos.tenant(name) }

// tick advances the governor from the data path; its fast path is two
// atomic loads.
func (g *Gateway) tick() {
	if g.gov != nil {
		g.gov.Tick()
	}
}

// Session is one client's connection-equivalent: a private LDPLFS shim
// (own fd table, own pid, so droppings never collide) over the
// tenant's shared PLFS instance, with every operation passing the
// tenant's QoS stage. Methods are safe for concurrent use; one network
// connection drives its session serially, but in-process callers (and
// the race tests) may not.
type Session struct {
	g      *Gateway
	tenant *Tenant
	ld     *core.LDPLFS
	d      *posix.Dispatch
	pid    uint32

	mu     sync.Mutex
	closed bool
}

// NewSession admits a client for the named tenant. The session pid
// encodes tenant and client so each session's droppings are distinct:
// tenantIndex<<20 | clientSeq.
func (g *Gateway) NewSession(tenantName string) (*Session, error) {
	t := g.qos.tenant(tenantName)
	if t == nil {
		return nil, fmt.Errorf("service: unknown tenant %q", tenantName)
	}
	g.mu.Lock()
	g.nextClient++
	pid := g.tenantIdx[tenantName]<<20 | (g.nextClient & 0xfffff)
	fs := g.fss[tenantName]
	g.mu.Unlock()

	d := posix.NewDispatch(g.cfg.Backend)
	ld, err := core.Preload(d, core.Config{
		Mounts: append([]core.Mount(nil), g.cfg.Mounts...),
		Pid:    pid,
		Plfs:   fs,
	})
	if err != nil {
		return nil, err
	}
	return &Session{g: g, tenant: t, ld: ld, d: d, pid: pid}, nil
}

// Pid reports the session's PLFS pid (tests assert dropping ownership).
func (s *Session) Pid() uint32 { return s.pid }

// Tenant reports the session's tenant.
func (s *Session) Tenant() *Tenant { return s.tenant }

// End releases the session's fd table and shim. Idempotent.
func (s *Session) End() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.ld.Unload()
}

// do runs one operation through the QoS stage and records it on the
// tenant layer. The latency sample starts before admission, so the
// histograms measure what the tenant experiences — queueing and bucket
// delay included.
func (s *Session) do(op iostats.Op, bytes int64, fn func() error) error {
	start := s.tenant.ls.Start()
	leave := s.g.qos.enter(s.tenant, op, bytes)
	err := fn()
	leave()
	s.tenant.ls.End(op, bytes, start, err)
	s.g.tick()
	return err
}

// Open opens a path under the mount (or passes through to the backend,
// as the shim does for unmounted paths).
func (s *Session) Open(path string, flags int, mode uint32) (fd int, err error) {
	err = s.do(iostats.Open, 0, func() error {
		fd, err = s.d.Open(path, flags, mode)
		return err
	})
	return fd, err
}

// Pread reads len(p) bytes at off.
func (s *Session) Pread(fd int, p []byte, off int64) (n int, err error) {
	err = s.do(iostats.Read, int64(len(p)), func() error {
		n, err = s.d.Pread(fd, p, off)
		return err
	})
	return n, err
}

// Pwrite writes p at off.
func (s *Session) Pwrite(fd int, p []byte, off int64) (n int, err error) {
	err = s.do(iostats.Write, int64(len(p)), func() error {
		n, err = s.d.Pwrite(fd, p, off)
		return err
	})
	return n, err
}

// Sync flushes fd's droppings.
func (s *Session) Sync(fd int) error {
	return s.do(iostats.Sync, 0, func() error { return s.d.Fsync(fd) })
}

// Close closes fd.
func (s *Session) Close(fd int) error {
	return s.do(iostats.Meta, 0, func() error { return s.d.Close(fd) })
}

// Stat stats a path.
func (s *Session) Stat(path string) (st posix.Stat, err error) {
	err = s.do(iostats.Meta, 0, func() error {
		st, err = s.d.Stat(path)
		return err
	})
	return st, err
}

// Fstat stats an open fd.
func (s *Session) Fstat(fd int) (st posix.Stat, err error) {
	err = s.do(iostats.Meta, 0, func() error {
		st, err = s.d.Fstat(fd)
		return err
	})
	return st, err
}

// Truncate truncates a path.
func (s *Session) Truncate(path string, size int64) error {
	return s.do(iostats.Meta, 0, func() error { return s.d.Truncate(path, size) })
}

// Unlink removes a path.
func (s *Session) Unlink(path string) error {
	return s.do(iostats.Meta, 0, func() error { return s.d.Unlink(path) })
}

// StatsText renders the gateway plane for the Stats wire op.
func (g *Gateway) StatsText() string {
	return g.plane.Snapshot().String()
}

// Doctor reports (and with fix, repairs) container health for a mount
// path through the tenant's PLFS instance — the remote face of plfsctl
// doctor. The report format mirrors the CLI's.
func (s *Session) Doctor(path string, fix bool) (string, error) {
	backendPath, ok := s.ld.Resolve(path)
	if !ok {
		return "", posix.ENOENT
	}
	var report string
	err := s.do(iostats.Meta, 0, func() error {
		r, err := doctorReport(s.ld.Plfs(), backendPath, fix)
		report = r
		return err
	})
	return report, err
}

// doctorReport is the service-side doctor: openhosts liveness plus
// index health, optionally scrubbing stale records and refreshing the
// flattened index.
func doctorReport(p *plfs.FS, path string, fix bool) (string, error) {
	recs, err := p.OpenHosts(path)
	if err != nil {
		return "", err
	}
	live, stale := 0, 0
	for _, r := range recs {
		if r.Stale {
			stale++
		} else {
			live++
		}
	}
	out := fmt.Sprintf("doctor %s: %d openhosts records (%d live, %d stale)\n", path, len(recs), live, stale)
	h, err := p.IndexHealth(path)
	if err != nil {
		return "", err
	}
	out += fmt.Sprintf("index: %d droppings, %d raw entries\n", h.IndexDroppings, h.RawEntries)
	switch {
	case h.Flattened == nil:
		out += "flattened index: none\n"
	case h.Flattened.Fresh:
		out += fmt.Sprintf("flattened index: gen %d, %d extents, fresh\n", h.Flattened.Generation, h.Flattened.Extents)
	default:
		out += fmt.Sprintf("flattened index: gen %d, stale\n", h.Flattened.Generation)
	}
	if fix && stale > 0 {
		removed, err := p.ScrubOpenHosts(path)
		if err != nil {
			return "", err
		}
		out += fmt.Sprintf("removed %d stale records\n", removed)
	}
	if fix {
		if h, err = p.IndexHealth(path); err != nil {
			return "", err
		}
		if h.Flattened != nil && !h.Flattened.Fresh && h.OpenWriters == 0 {
			info, err := p.WriteFlattenedIndex(path)
			if err != nil {
				return "", err
			}
			out += fmt.Sprintf("refreshed flattened index to gen %d (%d extents)\n", info.Generation, info.Extents)
		}
	}
	return out, nil
}
