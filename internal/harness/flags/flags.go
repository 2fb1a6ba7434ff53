// Package flags centralises the flag registration the workload CLIs
// (ldrun, mpiio-test, bt-io, flash-io) used to duplicate: the PLFS
// instance, telemetry, MPI job shape, and the remote-gateway connection.
// Each tool registers the groups it needs on its own FlagSet and keeps
// its tool-specific flags local.
package flags

import (
	"flag"
	"fmt"

	"ldplfs/internal/iostats"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/plfs"
	"ldplfs/internal/service/client"
)

// Plfs is the flag group shared by every tool that can run over PLFS.
// The engines themselves take no tuning (see plfs/options.go).
type Plfs struct {
	NoAutoFlatten bool
	Stats         bool
}

// Register installs the group's flags on fl.
func (p *Plfs) Register(fl *flag.FlagSet) {
	fl.BoolVar(&p.NoAutoFlatten, "no-auto-flatten", false, "do not persist a flattened global index when a container's last writer closes")
	fl.BoolVar(&p.Stats, "stats", false, "attach the iostats telemetry plane to every layer and dump a snapshot at exit")
}

// Options renders the group as grouped plfs options. The plane may be
// nil (no telemetry) — taking the concrete *iostats.Plane rather than
// the Collector interface keeps a typed-nil plane from turning into a
// non-nil interface downstream.
func (p *Plfs) Options(plane *iostats.Plane) []plfs.Option {
	var tel plfs.TelemetryOptions
	if plane != nil {
		tel.Stats = plane
	}
	return []plfs.Option{plfs.IndexOptions{DisableAutoFlatten: p.NoAutoFlatten}, tel}
}

// NewPlane returns the telemetry plane the flags ask for, or nil.
func (p *Plfs) NewPlane() *iostats.Plane {
	if !p.Stats {
		return nil
	}
	return iostats.NewPlane()
}

// MPIIO is the collective-buffering flag group: the ROMIO-style hint
// knobs of the mpiio layer's two-phase collective path.
type MPIIO struct {
	CBBufferSize  int
	CBAggregators int
	SieveBuffer   int
}

// Register installs the group's flags on fl.
func (m *MPIIO) Register(fl *flag.FlagSet) {
	fl.IntVar(&m.CBBufferSize, "cb-buffer-size", 0, "collective-buffering staging size per aggregator round in bytes (0 = ROMIO default 16 MiB)")
	fl.IntVar(&m.CBAggregators, "cb-aggregators", 0, "aggregators per compute node (0 = the paper's default of 1)")
	fl.IntVar(&m.SieveBuffer, "sieve-buffer-size", 0, "data-sieving block size for independent strided access (0 = default 4 MiB)")
}

// Hints renders the group over the ROMIO defaults.
func (m *MPIIO) Hints() mpiio.Hints {
	h := mpiio.DefaultHints()
	if m.CBBufferSize > 0 {
		h.CBBufferSize = m.CBBufferSize
	}
	if m.CBAggregators > 0 {
		h.CBAggregators = m.CBAggregators
	}
	if m.SieveBuffer > 0 {
		h.SieveBufferSize = m.SieveBuffer
	}
	return h
}

// Job is the MPI job-shape flag group of the workload kernels.
type Job struct {
	NP       int
	PPN      int
	Method   string
	Backends int
	Verify   bool
}

// Register installs the group's flags on fl with the given defaults
// for rank count and method.
func (j *Job) Register(fl *flag.FlagSet, defaultNP int, defaultMethod string) {
	fl.IntVar(&j.NP, "np", defaultNP, "number of ranks")
	fl.IntVar(&j.PPN, "ppn", 2, "processes per node")
	fl.StringVar(&j.Method, "method", defaultMethod, "access method: mpiio|fuse|romio|ldplfs")
	fl.IntVar(&j.Backends, "backends", 1, "stripe the store over this many backends (hostdirs spread across them; 1 = single backend)")
	fl.BoolVar(&j.Verify, "verify", true, "read back and verify")
}

// Remote is the gateway-connection flag group: when -remote is set the
// tool runs against a plfsd daemon instead of an in-process store.
type Remote struct {
	Addr   string
	Tenant string
}

// Register installs the group's flags on fl.
func (r *Remote) Register(fl *flag.FlagSet) {
	fl.StringVar(&r.Addr, "remote", "", "plfsd gateway address (host:port); empty = run in-process")
	fl.StringVar(&r.Tenant, "tenant", "default", "tenant name sent in the gateway hello")
}

// Enabled reports whether a gateway address was given.
func (r *Remote) Enabled() bool { return r.Addr != "" }

// Dial connects one rank to the gateway.
func (r *Remote) Dial() (*client.Conn, error) {
	if !r.Enabled() {
		return nil, fmt.Errorf("flags: -remote not set")
	}
	return client.Dial(r.Addr, r.Tenant)
}
