// Package harness wires the paper's four access methods onto a backing
// store for the command-line tools and benchmarks: given a method name it
// produces the per-rank ADIO driver and the path the application should
// open. It assembles, it does not translate: three methods — and remote
// mode, a gateway connection in place of the store — are the ufs driver
// over a different posix.FS (the store itself, the shim core.New builds
// over it, the FUSE view of that shim, a client.Conn's table), the
// fourth is ad_plfs. The conventions
// match the experiments: PLFS containers live under /backend, the PLFS
// mount point is /mnt/plfs, plain shared files live under /scratch.
package harness

import (
	"fmt"

	"ldplfs/internal/core"
	"ldplfs/internal/fuse"
	"ldplfs/internal/iostats"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// Standard layout used by the tools.
const (
	ScratchDir = "/scratch"
	BackendDir = "/backend"
	MountPoint = "/mnt/plfs"
)

// Methods lists the accepted method names.
var Methods = []string{"mpiio", "fuse", "romio", "ldplfs"}

// NewStore prepares a backing FS with the standard directories.
func NewStore() *posix.MemFS {
	mem := posix.NewMemFS()
	for _, d := range []string{ScratchDir, BackendDir} {
		if err := mem.Mkdir(d, 0o755); err != nil {
			panic(fmt.Sprintf("harness: mkdir %s: %v", d, err))
		}
	}
	return mem
}

// NewStoreN prepares a backing store striped over n in-memory backends
// (the -backends flag of the workload CLIs): PLFS containers created
// under it spread their hostdirs — and so their droppings — across all
// n, while backend 0 holds the canonical metadata. The composite's
// replica counters register on plane's "posix" layer; plane may be nil
// (no telemetry). n <= 1 degenerates to a single plain MemFS.
func NewStoreN(n int, plane *iostats.Plane) posix.FS {
	if n <= 1 {
		return NewStore()
	}
	backends := make([]posix.FS, n)
	for i := range backends {
		backends[i] = posix.NewMemFS()
	}
	striped := posix.NewLayoutFS(posix.Layout{}, plane, backends...)
	if err := PrepareStore(striped); err != nil {
		panic(err.Error())
	}
	return striped
}

// Instrument wraps store so that every backend operation — whichever
// method and PLFS machinery runs above it — reports to c's "posix"
// layer. A nil plane returns the store unchanged, so the CLIs can
// thread their -stats flag through unconditionally.
func Instrument(store posix.FS, c *iostats.Plane) posix.FS {
	if c == nil {
		return store
	}
	return posix.NewInstrumentFS(store, c)
}

// PrepareStore creates the standard directories on an existing FS (for
// OS-backed stores); existing directories are fine.
func PrepareStore(fs posix.FS) error {
	for _, d := range []string{ScratchDir, BackendDir} {
		if err := fs.Mkdir(d, 0o755); err != nil && err != posix.EEXIST {
			return fmt.Errorf("harness: mkdir %s: %w", d, err)
		}
	}
	return nil
}

// DriverFor builds the per-rank ADIO driver for a named method over fs,
// and returns the application-visible path for the given file name.
// opts (plfs.WithStats, the one option) configure the instance of
// whichever methods run over PLFS.
func DriverFor(method string, fs posix.FS, rank int, opts ...plfs.Option) (mpiio.Driver, func(name string) string, error) {
	switch method {
	case "mpiio":
		return mpiio.NewUFS(fs),
			func(name string) string { return ScratchDir + "/" + name }, nil
	case "romio":
		p := plfs.New(fs, opts...)
		drv := mpiio.NewPLFSDriver(p, core.NewMount(MountPoint, BackendDir).Resolve)
		return drv, func(name string) string { return MountPoint + "/" + name }, nil
	case "ldplfs":
		shim, err := core.New(fs, core.Config{
			Mounts: []core.Mount{{Point: MountPoint, Backend: BackendDir}},
			Pid:    uint32(rank),
			Plfs:   plfs.New(fs, opts...),
		})
		if err != nil {
			return nil, nil, err
		}
		return mpiio.NewUFS(shim),
			func(name string) string { return MountPoint + "/" + name }, nil
	case "fuse":
		return mpiio.NewUFS(fuse.Mount(fs, MountPoint, BackendDir, opts...)),
			func(name string) string { return MountPoint + "/" + name }, nil
	}
	return nil, nil, fmt.Errorf("harness: unknown method %q (want one of %v)", method, Methods)
}
