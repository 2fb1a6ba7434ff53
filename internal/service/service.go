package service

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"ldplfs/internal/core"
	"ldplfs/internal/iostats"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
	"ldplfs/internal/tune"
)

// Config configures a Gateway.
type Config struct {
	// Backend is the store the gateway serves: every tenant's PLFS
	// instance and every session's non-PLFS paths run over it. To
	// stripe or replicate, compose a posix.StripedFS before handing it
	// over, as a local client would, with Plane as the composite's
	// plane so its replica counters share the gateway's snapshot.
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

	// Governor enables the per-tenant policy actuator: a tune controller
	// whose throughput signal is the priority-0 tenants' delivered bytes
	// and whose knobs are the background tenants' rate caps. When
	// foreground demand is being starved, stepping a background tenant's
	// cap down raises the signal and the controller keeps the step; when
	// the foreground is idle, throttling buys nothing, the trial shows no
	// improvement, and background tenants keep their full rates —
	// work-conserving both ways. Its window is tune.DefaultWindowBytes
	// of foreground traffic and its ladder governorLadder.
	Governor bool
}

// governorLadder is the percent-of-configured-rate positions the
// governor may set a background tenant's byte caps to, ascending. The
// ends are hard bounds.
var governorLadder = []int{12, 25, 50, 100}

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
		// library — over the one store the gateway serves, reporting to
		// the gateway plane.
		g.fss[tc.Name] = plfs.New(cfg.Backend, plfs.WithStats(cfg.Plane))
		g.tenantIdx[tc.Name] = uint32(i)
	}
	if cfg.Governor {
		g.gov = newGovernor(g.qos, cfg.Clock)
	}
	return g, nil
}

// newGovernor wires the tune controller: source = foreground
// (priority-0) tenants' delivered bytes, knobs = background tenants'
// byte-rate caps as a percent ladder. Background tenants with no
// configured byte cap have nothing to actuate and get no knob.
func newGovernor(q *qos, clock tune.Clock) *tune.Controller {
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
			Ladder: governorLadder,
			Start:  governorLadder[len(governorLadder)-1],
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
	return tune.New(tune.Config{Clock: clock}, source, knobs...)
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
// (own fd table, own pid, so droppings never collide) over the tenant's
// shared PLFS instance, interposed under one hook, the tenant's QoS
// stage. Its posix.FS methods are the interposer's, so the stage sees
// every op by the interposer's rules: Close is recorded but never
// admitted. Lseek is the one method written here: the interposer shows
// no hook a seek, but a SEEK_END reads the file's index.
// Methods are safe for concurrent use; one network connection drives
// its session serially, but in-process callers (and the race tests) may
// not.
type Session struct {
	*posix.Interposer
	stage *stage
	ld    *core.LDPLFS
	pid   uint32

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

	ld, err := core.New(g.cfg.Backend, core.Config{
		Mounts: append([]core.Mount(nil), g.cfg.Mounts...),
		Pid:    pid,
		Plfs:   fs,
	})
	if err != nil {
		return nil, err
	}
	st := &stage{g: g, t: t}
	return &Session{Interposer: posix.Interpose(ld, st), stage: st, ld: ld, pid: pid}, nil
}

// Lseek implements posix.FS. SEEK_SET and SEEK_CUR move the pointer
// and pass no stage. SEEK_END sizes the file from its index droppings,
// backend reads the tenant pays for, so it passes the stage as the
// Meta op (an fstat) it stands for.
func (s *Session) Lseek(fd int, offset int64, whence int) (pos int64, err error) {
	if whence != posix.SEEK_END {
		return s.Interposer.Lseek(fd, offset, whence)
	}
	err = s.stage.pass(posix.Op{Call: posix.CallFstat, FD: fd}, func() (err error) {
		pos, err = s.Interposer.Lseek(fd, offset, whence)
		return err
	})
	return pos, err
}

// Pid reports the session's PLFS pid (tests assert dropping ownership).
func (s *Session) Pid() uint32 { return s.pid }

// Tenant reports the session's tenant.
func (s *Session) Tenant() *Tenant { return s.stage.t }

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

// stage is a tenant's QoS stage as the hook its sessions' ops run
// through. The latency sample starts before Before, so the tenant
// layer's histograms measure what the tenant experiences — queueing and
// bucket delay included.
type stage struct {
	g *Gateway
	t *Tenant
}

// Before implements posix.Hook: the buckets, then admission. It never
// refuses.
func (s *stage) Before(op posix.Op) (posix.Op, error) {
	s.g.qos.enter(s.t, op.Class, op.Bytes)
	return op, nil
}

// After implements posix.Hook: it frees the slot Before took, records
// the op on the tenant layer and ticks the governor. A Close ran no
// Before (the interposer's rule), so it holds no slot to free.
func (s *stage) After(op posix.Op, _ int64, err error) {
	if op.Call != posix.CallClose {
		s.g.qos.adm.release()
	}
	s.t.ls.End(op.Class, op.Bytes, op.Start, err)
	s.g.tick()
}

// pass runs call through the stage as one Meta op, for the work the
// interposer does not see (Doctor, a SEEK_END). The caller names op's
// Call, never CallClose, so After frees the slot Before took.
func (s *stage) pass(op posix.Op, call func() error) error {
	op.Class, op.Start = iostats.Meta, s.t.ls.Start()
	op, _ = s.Before(op) // the stage never refuses
	err := call()
	s.After(op, 0, err)
	return err
}

// StatsText renders the gateway plane for the Stats wire op.
func (g *Gateway) StatsText() string {
	return g.plane.Snapshot().String()
}

// Doctor runs the container doctor (plfs.FS.Doctor) on the tenant's
// PLFS instance for a mount path and returns its report — the remote
// face of plfsctl doctor, byte for byte the text the local tool prints.
// The wire carries no force flag, so diverged replicas are only ever
// rebuilt locally. Not a posix.FS call, it passes the tenant's stage as
// the Meta op (a stat of the container) it stands for.
func (s *Session) Doctor(path string, fix bool) (string, error) {
	backendPath, ok := s.ld.Resolve(path)
	if !ok {
		return "", posix.ENOENT
	}
	var report strings.Builder
	err := s.stage.pass(posix.Op{Call: posix.CallStat, Path: path, FD: -1}, func() error {
		_, err := s.ld.Plfs().Doctor(&report, backendPath, fix, false)
		return err
	})
	return report.String(), err
}
