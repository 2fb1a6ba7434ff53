package workload

import (
	"strings"
	"testing"

	"ldplfs/internal/core"
	"ldplfs/internal/fuse"
	"ldplfs/internal/mpi"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// driverFor builds each access method's per-rank driver over a shared FS.
func driverFor(t *testing.T, method string, mem *posix.MemFS, rank int) (mpiio.Driver, string) {
	t.Helper()
	switch method {
	case "mpiio":
		return mpiio.NewUFS(posix.NewDispatch(mem)), "/scratch/out"
	case "romio":
		p := plfs.New(mem, plfs.EngineOptions{NumHostdirs: 4})
		return mpiio.NewPLFSDriver(p, func(path string) (string, bool) {
			return "/backend" + strings.TrimPrefix(path, "/scratch"), true
		}), "/scratch/out"
	case "ldplfs":
		d := posix.NewDispatch(mem)
		if _, err := core.Preload(d, core.Config{
			Mounts:      []core.Mount{{Point: "/mnt/plfs", Backend: "/backend"}},
			Pid:         uint32(rank),
			PlfsOptions: plfs.Config{Engine: plfs.EngineOptions{NumHostdirs: 4}},
		}); err != nil {
			t.Fatal(err)
		}
		return mpiio.NewUFS(d), "/mnt/plfs/out"
	case "fuse":
		return mpiio.NewUFS(fuse.Mount(mem, "/mnt/plfs", "/backend", plfs.EngineOptions{NumHostdirs: 4})), "/mnt/plfs/out"
	}
	t.Fatalf("unknown method %s", method)
	return nil, ""
}

func newFS(t *testing.T) *posix.MemFS {
	t.Helper()
	mem := posix.NewMemFS()
	for _, d := range []string{"/scratch", "/backend"} {
		if err := mem.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return mem
}

var allMethods = []string{"mpiio", "fuse", "romio", "ldplfs"}

func TestMPIIOTestKernelAllMethods(t *testing.T) {
	for _, method := range allMethods {
		method := method
		t.Run(method, func(t *testing.T) {
			mem := newFS(t)
			cfg := MPIIOTestConfig{
				BytesPerProc: 256 << 10,
				BlockSize:    32 << 10,
				Verify:       true,
				Hints:        mpiio.DefaultHints(),
			}
			err := mpi.Run(8, 2, func(r *mpi.Rank) {
				drv, path := driverFor(t, method, mem, r.Rank())
				res, err := RunMPIIOTest(r, drv, path, cfg)
				if err != nil {
					panic(err)
				}
				if res.BytesWritten != cfg.BytesPerProc {
					panic("short write")
				}
				if res.BytesRead != cfg.BytesPerProc {
					panic("short verify read")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMPIIOTestBadConfig(t *testing.T) {
	mem := newFS(t)
	err := mpi.Run(1, 1, func(r *mpi.Rank) {
		drv, path := driverFor(t, "mpiio", mem, 0)
		if _, err := RunMPIIOTest(r, drv, path, MPIIOTestConfig{}); err == nil {
			panic("zero config accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBTIOKernelAllMethods(t *testing.T) {
	for _, method := range allMethods {
		method := method
		t.Run(method, func(t *testing.T) {
			mem := newFS(t)
			cfg := BTIOConfig{Grid: 12, Steps: 3, Hints: mpiio.DefaultHints()}
			err := mpi.Run(4, 2, func(r *mpi.Rank) { // 2x2 process grid
				drv, path := driverFor(t, method, mem, r.Rank())
				res, err := RunBTIO(r, drv, path, cfg, true)
				if err != nil {
					panic(err)
				}
				wantPerStep := int64(12*12*12*5*8) / 4 // grid^3 * vars * 8 / ranks
				if res.BytesWritten != wantPerStep*int64(cfg.Steps) {
					panic("BT wrote wrong volume")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBTIORejectsNonSquare(t *testing.T) {
	mem := newFS(t)
	err := mpi.Run(3, 1, func(r *mpi.Rank) {
		drv, path := driverFor(t, "mpiio", mem, r.Rank())
		if _, err := RunBTIO(r, drv, path, BTIOConfig{Grid: 12, Steps: 1}, false); err == nil {
			panic("non-square rank count accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBTIODecompositionCoversFileExactly(t *testing.T) {
	// The union of all ranks' segments for one step must tile
	// [0, grid^3*5*8) exactly once — no gaps, no overlaps.
	const (
		grid  = 8
		ranks = 4
		p     = 2
	)
	covered := map[int64]int{}
	total := int64(grid * grid * grid * 5 * 8)
	for rank := 0; rank < ranks; rank++ {
		segs, payload := btSegments(rank, p, grid, 0, 0)
		var segBytes int64
		for _, s := range segs {
			for off := s.Off; off < s.Off+s.Len; off += 8 {
				covered[off]++
			}
			segBytes += s.Len
		}
		if segBytes != int64(len(payload)) {
			t.Fatalf("rank %d: segments %d bytes, payload %d", rank, segBytes, len(payload))
		}
	}
	if int64(len(covered))*8 != total {
		t.Fatalf("coverage %d bytes, want %d", len(covered)*8, total)
	}
	for off, n := range covered {
		if n != 1 {
			t.Fatalf("offset %d written %d times", off, n)
		}
	}
}

func TestFlashIOKernelAllMethods(t *testing.T) {
	for _, method := range allMethods {
		method := method
		t.Run(method, func(t *testing.T) {
			mem := newFS(t)
			cfg := FlashIOConfig{NXB: 4, NBlocks: 3, NVars: 8, Hints: mpiio.DefaultHints()}
			err := mpi.Run(4, 2, func(r *mpi.Rank) {
				drv, base := driverFor(t, method, mem, r.Rank())
				res, err := RunFlashIO(r, drv, base, cfg)
				if err != nil {
					panic(err)
				}
				if len(res.Files) != 3 {
					panic("FLASH-IO must write three files")
				}
				// Verify all three files.
				for i, f := range res.Files {
					if err := VerifyFlashFile(r, drv, f, cfg, i); err != nil {
						panic(err)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFlashBytesPerProcessMatchesPaper(t *testing.T) {
	// The paper's configuration: 24^3 blocks, ~205 MB per process. With
	// FLASH's 80 blocks and 24 unknowns: 80 * 24^3 * 24 * 8 bytes = 212 MB.
	cfg := FlashIOConfig{NXB: 24, NBlocks: 80, NVars: 24}
	got := cfg.BytesPerProcess()
	if got < 190<<20 || got > 230<<20 {
		t.Fatalf("paper config yields %d MiB per process, want ~205 MB", got>>20)
	}
}

func TestFlashIOContainersAppearInBackend(t *testing.T) {
	// Through LDPLFS, each FLASH output becomes one PLFS container — the
	// per-file metadata cost the Fig. 5 analysis hinges on.
	mem := newFS(t)
	cfg := FlashIOConfig{NXB: 4, NBlocks: 2, NVars: 4, Hints: mpiio.DefaultHints()}
	err := mpi.Run(4, 2, func(r *mpi.Rank) {
		drv, base := driverFor(t, "ldplfs", mem, r.Rank())
		if _, err := RunFlashIO(r, drv, base, cfg); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	p := plfs.New(mem, plfs.EngineOptions{NumHostdirs: 4})
	for _, name := range flashFileNames("/backend/out") {
		if !p.IsContainer(name) {
			t.Fatalf("%s is not a PLFS container", name)
		}
		st, err := p.Stat(name)
		if err != nil || st.Size == 0 {
			t.Fatalf("%s: %+v, %v", name, st, err)
		}
	}
}

func TestMPIIOTestFilePerProcAllMethods(t *testing.T) {
	// The N-N write phase: every rank streams its own file with
	// independent calls, then verifies its neighbour's file.
	for _, method := range allMethods {
		method := method
		t.Run(method, func(t *testing.T) {
			mem := newFS(t)
			cfg := MPIIOTestConfig{
				BytesPerProc: 128 << 10,
				BlockSize:    16 << 10,
				FilePerProc:  true,
				Verify:       true,
				Hints:        mpiio.DefaultHints(),
			}
			err := mpi.Run(4, 2, func(r *mpi.Rank) {
				drv, path := driverFor(t, method, mem, r.Rank())
				res, err := RunMPIIOTest(r, drv, path, cfg)
				if err != nil {
					panic(err)
				}
				if res.BytesWritten != cfg.BytesPerProc {
					panic("short write")
				}
				if res.BytesRead != cfg.BytesPerProc {
					panic("short verify read")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBTIOEpioAllMethods(t *testing.T) {
	// The epio subtype: N-N contiguous appends, verified cross-rank.
	for _, method := range allMethods {
		method := method
		t.Run(method, func(t *testing.T) {
			mem := newFS(t)
			cfg := BTIOConfig{Grid: 12, Steps: 3, EPIO: true, Hints: mpiio.DefaultHints()}
			err := mpi.Run(4, 2, func(r *mpi.Rank) {
				drv, path := driverFor(t, method, mem, r.Rank())
				res, err := RunBTIO(r, drv, path, cfg, true)
				if err != nil {
					panic(err)
				}
				wantPerStep := int64(12*12*12*5*8) / 4
				if res.BytesWritten != wantPerStep*int64(cfg.Steps) {
					panic("BT epio wrote wrong volume")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFlashIOSplitFiles(t *testing.T) {
	// Split checkpoints: each rank writes a private triplet, and each
	// file verifies independently against global block ids.
	mem := newFS(t)
	cfg := FlashIOConfig{NXB: 4, NBlocks: 3, NVars: 8, SplitFiles: true, Hints: mpiio.DefaultHints()}
	err := mpi.Run(4, 2, func(r *mpi.Rank) {
		drv, base := driverFor(t, "ldplfs", mem, r.Rank())
		res, err := RunFlashIO(r, drv, base, cfg)
		if err != nil {
			panic(err)
		}
		for i, f := range res.Files {
			if err := VerifyFlashFile(r, drv, f, cfg, i); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each rank's checkpoint is its own PLFS container in the backend.
	p := plfs.New(mem, plfs.EngineOptions{NumHostdirs: 4})
	for rank := 0; rank < 4; rank++ {
		name := nnPath("/backend/out_hdf5_chk_0001", rank)
		if !p.IsContainer(name) {
			t.Fatalf("%s is not a PLFS container", name)
		}
	}
}
