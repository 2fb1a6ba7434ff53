package workload

import (
	"crypto/md5"
	"fmt"
	"testing"

	"ldplfs/internal/harness"
	"ldplfs/internal/iostats"
	"ldplfs/internal/mpi"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// stripedStores builds the backend configurations the differential runs
// over: a single MemFS, striped MemFS pairs/triples, replicated triples,
// and triples of FaultFS-wrapped backends (transparent, but exercising
// the fault layer's fd bookkeeping under striping and replication).
func stripedStores(t *testing.T) map[string]posix.FS {
	t.Helper()
	return map[string]posix.FS{
		"single":         harness.NewStore(),
		"striped2":       harness.NewStoreN(2, nil),
		"striped3":       harness.NewStoreN(3, nil),
		"striped3-fault": layoutStore(t, "mod-n", true),
		"replica2":       layoutStore(t, "replica-2", false),
		"replica3":       layoutStore(t, "replica-3", false),
		"replica2-fault": layoutStore(t, "replica-2", true),
	}
}

// layoutStore composes three in-memory backends, each behind a FaultFS
// when faulty, under the named layout, with the standard directories.
func layoutStore(t *testing.T, desc string, faulty bool) posix.FS {
	t.Helper()
	backends := make([]posix.FS, 3)
	for i := range backends {
		backends[i] = posix.NewMemFS()
		if faulty {
			backends[i] = posix.NewFaultFS(backends[i])
		}
	}
	layout, err := posix.LayoutFor(desc, len(backends))
	if err != nil {
		t.Fatal(err)
	}
	store := posix.NewLayoutFS(layout, nil, backends...)
	if err := harness.PrepareStore(store); err != nil {
		t.Fatal(err)
	}
	return store
}

// containerDigest reads the full logical contents of the container the
// workload produced and returns (size, md5) plus the container's Stat
// size — the three observables that must not depend on the backend
// count.
func containerDigest(t *testing.T, store posix.FS, name string) (int64, [16]byte, int64) {
	t.Helper()
	p := plfs.New(store)
	path := harness.BackendDir + "/" + name
	f, err := p.Open(path, posix.O_RDONLY, 999, 0)
	if err != nil {
		t.Fatalf("open container %s: %v", path, err)
	}
	defer f.Close(999)
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if n, err := f.Read(buf, 0); err != nil || int64(n) != size {
		t.Fatalf("read container %s: n=%d err=%v (size %d)", path, n, err, size)
	}
	st, err := p.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return size, md5.Sum(buf), st.Size
}

// checkSpread asserts a striped store's container genuinely fanned its
// droppings across more than one backend.
func checkSpread(t *testing.T, store posix.FS, name string) {
	t.Helper()
	if _, ok := store.(*posix.StripedFS); !ok {
		return
	}
	p := plfs.New(store)
	spread, err := p.ContainerSpread(harness.BackendDir + "/" + name)
	if err != nil {
		t.Fatal(err)
	}
	used := 0
	for _, n := range spread {
		if n > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("container %s did not fan out across backends: spread %v", name, spread)
	}
}

// diffAcrossStores runs one workload phase against every backend
// configuration and demands byte-identical container contents, sizes and
// Stat results — then re-reads every container in all three flattened-
// index regimes (record trusted, record ignored, record deliberately
// stale) and demands the same bytes again.
func diffAcrossStores(t *testing.T, outputs []string, run func(store posix.FS)) {
	t.Helper()
	type digest struct {
		size, statSize int64
		sum            [16]byte
	}
	want := map[string]digest{} // per output file, from the single-backend run

	stores := stripedStores(t)
	cfgs := []string{"single", "striped2", "striped3", "striped3-fault", "replica2", "replica3", "replica2-fault"}
	for _, cfg := range cfgs {
		store := stores[cfg]
		run(store)
		for _, out := range outputs {
			size, sum, statSize := containerDigest(t, store, out)
			if size != statSize {
				t.Fatalf("[%s] %s: Size %d != Stat size %d", cfg, out, size, statSize)
			}
			if cfg == "single" {
				if size == 0 {
					t.Fatalf("workload produced an empty container %s", out)
				}
				want[out] = digest{size, statSize, sum}
				continue
			}
			w := want[out]
			if size != w.size || statSize != w.statSize || sum != w.sum {
				t.Fatalf("[%s] %s diverged from single backend: size %d vs %d, stat %d vs %d, md5 %x vs %x",
					cfg, out, size, w.size, statSize, w.statSize, sum, w.sum)
			}
			checkSpread(t, store, out)
		}
	}

	// Flatten-mode differential over the kernels' real containers, on
	// single- and multi-backend stores (MemFS and the FaultFS-wrapped
	// triple). Each mode must reproduce the digests recorded above.
	for _, cfg := range cfgs {
		store := stores[cfg]
		for _, out := range outputs {
			path := harness.BackendDir + "/" + out
			w := want[out]

			// Forced on: refresh the record, read cold, assert it was
			// actually loaded (each instance gets a private telemetry
			// plane, so layer "readcache" counts only its own builds).
			if _, err := plfs.New(store).WriteFlattenedIndex(path); err != nil {
				t.Fatalf("[%s] flatten %s: %v", cfg, out, err)
			}
			onPlane := iostats.NewPlane()
			onP := plfs.New(store, plfs.WithStats(onPlane))
			if size, sum, statSize := digestVia(t, onP, path); size != w.size || statSize != w.statSize || sum != w.sum {
				t.Fatalf("[%s] %s flattened-on read diverged", cfg, out)
			}
			if n := onPlane.Layer("readcache").Counter("flattened_builds").Load(); n == 0 {
				t.Fatalf("[%s] %s flattened-on read did not use the record", cfg, out)
			}

			// Record dropped: a fresh instance has the streaming merge
			// only. Then put the record back for the stale stage.
			if n, err := plfs.New(store).DropFlattenedIndex(path); err != nil || n == 0 {
				t.Fatalf("[%s] drop flattened %s = %d, %v", cfg, out, n, err)
			}
			offPlane := iostats.NewPlane()
			offP := plfs.New(store, plfs.WithStats(offPlane))
			if size, sum, statSize := digestVia(t, offP, path); size != w.size || statSize != w.statSize || sum != w.sum {
				t.Fatalf("[%s] %s record-dropped read diverged", cfg, out)
			}
			if n := offPlane.Layer("readcache").Counter("flattened_builds").Load(); n != 0 {
				t.Fatalf("[%s] %s read loaded a dropped record", cfg, out)
			}
			info, err := plfs.New(store).WriteFlattenedIndex(path)
			if err != nil {
				t.Fatalf("[%s] re-flatten %s: %v", cfg, out, err)
			}

			// Deliberately stale: append a deterministic tail behind the
			// record's back (set it aside, drop what the close publishes,
			// put it back); a cold default instance must fall back and
			// serve the extended bytes.
			record := fmt.Sprintf("%s/index.flattened.%d", path, info.Generation)
			if err := store.Rename(record, path+".record"); err != nil {
				t.Fatal(err)
			}
			tail := []byte("kernel-differential stale tail: " + out)
			wP := plfs.New(store)
			f, err := wP.Open(path, posix.O_WRONLY, 424242, 0o644)
			if err != nil {
				t.Fatalf("[%s] stale staging open %s: %v", cfg, out, err)
			}
			if _, err := f.Write(tail, w.size, 424242); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(424242); err != nil {
				t.Fatal(err)
			}
			if _, err := wP.DropFlattenedIndex(path); err != nil {
				t.Fatal(err)
			}
			if err := store.Rename(path+".record", record); err != nil {
				t.Fatal(err)
			}
			stalePlane := iostats.NewPlane()
			staleP := plfs.New(store, plfs.WithStats(stalePlane))
			size, sum, statSize := digestVia(t, staleP, path)
			if size != w.size+int64(len(tail)) || statSize != size {
				t.Fatalf("[%s] %s stale read size = %d/%d, want %d", cfg, out, size, statSize, w.size+int64(len(tail)))
			}
			if n := stalePlane.Layer("readcache").Counter("flattened_builds").Load(); n != 0 {
				t.Fatalf("[%s] %s stale record was trusted", cfg, out)
			}
			// And with the stale record gone the merge agrees
			// byte-for-byte on the extended file.
			if n, err := plfs.New(store).DropFlattenedIndex(path); err != nil || n == 0 {
				t.Fatalf("[%s] drop stale record %s = %d, %v", cfg, out, n, err)
			}
			if s2, sum2, _ := digestVia(t, plfs.New(store), path); s2 != size || sum2 != sum {
				t.Fatalf("[%s] %s stale-vs-merge digest diverged", cfg, out)
			}
		}
	}
}

// digestVia reads the container's full logical contents through the
// given instance, returning (size, md5, stat size).
func digestVia(t *testing.T, p *plfs.FS, path string) (int64, [16]byte, int64) {
	t.Helper()
	f, err := p.Open(path, posix.O_RDONLY, 999, 0)
	if err != nil {
		t.Fatalf("open container %s: %v", path, err)
	}
	defer f.Close(999)
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if n, err := f.Read(buf, 0); err != nil || int64(n) != size {
		t.Fatalf("read container %s: n=%d err=%v (size %d)", path, n, err, size)
	}
	st, err := p.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return size, md5.Sum(buf), st.Size
}

// TestStripedDifferentialMPIIOTest runs the LANL MPI-IO Test N-1 strided
// phase (with its built-in neighbour verification) over single- and
// multi-backend stores: the resulting container must be byte-identical
// everywhere.
func TestStripedDifferentialMPIIOTest(t *testing.T) {
	cfg := MPIIOTestConfig{
		BytesPerProc: 128 << 10,
		BlockSize:    16 << 10,
		Verify:       true,
		Hints:        mpiio.DefaultHints(),
	}
	diffAcrossStores(t, []string{"mpiio-test.out"}, func(store posix.FS) {
		err := mpi.Run(4, 1, func(r *mpi.Rank) {
			drv, pathFor, err := harness.DriverFor("ldplfs", store, r.Rank())
			if err != nil {
				panic(err)
			}
			if _, err := RunMPIIOTest(r, drv, pathFor("mpiio-test.out"), cfg); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestStripedDifferentialBTIO runs the NAS BT-IO kernel (strided
// multi-extent collective commits) across backend configurations.
func TestStripedDifferentialBTIO(t *testing.T) {
	cfg := BTIOConfig{Grid: 12, Steps: 2, Hints: mpiio.DefaultHints()}
	diffAcrossStores(t, []string{"btio.out"}, func(store posix.FS) {
		err := mpi.Run(4, 1, func(r *mpi.Rank) {
			drv, pathFor, err := harness.DriverFor("ldplfs", store, r.Rank())
			if err != nil {
				panic(err)
			}
			if _, err := RunBTIO(r, drv, pathFor("btio.out"), cfg, true); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestStripedDifferentialFlashIO runs the FLASH-IO triple-checkpoint
// kernel; all three output containers must match across configurations.
func TestStripedDifferentialFlashIO(t *testing.T) {
	cfg := FlashIOConfig{NXB: 4, NBlocks: 2, NVars: 4, Hints: mpiio.DefaultHints()}
	outputs := []string{
		"flash_hdf5_chk_0001",
		"flash_hdf5_plt_cnt_0001",
		"flash_hdf5_plt_crn_0001",
	}
	diffAcrossStores(t, outputs, func(store posix.FS) {
		err := mpi.Run(4, 1, func(r *mpi.Rank) {
			drv, pathFor, err := harness.DriverFor("ldplfs", store, r.Rank())
			if err != nil {
				panic(err)
			}
			res, err := RunFlashIO(r, drv, pathFor("flash"), cfg)
			if err != nil {
				panic(err)
			}
			for i, f := range res.Files {
				if err := VerifyFlashFile(r, drv, f, cfg, i); err != nil {
					panic(fmt.Sprintf("verify %s: %v", f, err))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
