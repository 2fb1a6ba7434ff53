package ldplfs_test

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ldplfs/internal/core"
	"ldplfs/internal/harness"
	"ldplfs/internal/mpi"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
	"ldplfs/internal/unixtools"
	"ldplfs/internal/workload"
)

// TestEndToEndOnRealDisk walks the full user journey on the actual OS
// file system — the flows cmd/ldrun and cmd/plfsctl wrap:
//
//  1. an MPI job checkpoints through LDPLFS onto a real directory,
//  2. unmodified UNIX tools read the container back via the shim,
//  3. plfsctl-style flatten produces a byte-identical plain file,
//  4. the backend really contains a container directory.
func TestEndToEndOnRealDisk(t *testing.T) {
	root := t.TempDir()
	for _, d := range []string{"backend", "scratch"} {
		if err := os.Mkdir(filepath.Join(root, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	osfs, err := posix.NewOSFS(root)
	if err != nil {
		t.Fatal(err)
	}

	// 1. Parallel write through LDPLFS onto real disk.
	const (
		ranks = 4
		block = 128 << 10
	)
	err = mpi.Run(ranks, 2, func(r *mpi.Rank) {
		d, err := core.New(osfs, core.Config{
			Mounts: []core.Mount{{Point: "/mnt/plfs", Backend: "/backend"}},
			Pid:    uint32(r.Rank()),
		})
		if err != nil {
			panic(err)
		}
		fh, err := mpiio.Open(r, mpiio.NewUFS(d), "/mnt/plfs/ckpt", mpiio.ModeCreate|mpiio.ModeRdwr, mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		buf := bytes.Repeat([]byte{byte('A' + r.Rank())}, block)
		if _, err := fh.WriteAtAll(buf, int64(r.Rank())*block); err != nil {
			panic(err)
		}
		if err := fh.Close(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// 4 (checked early). The backend holds a real container directory.
	info, err := os.Stat(filepath.Join(root, "backend", "ckpt"))
	if err != nil || !info.IsDir() {
		t.Fatalf("backend/ckpt on disk: %v, dir=%v", err, info != nil && info.IsDir())
	}
	if _, err := os.Stat(filepath.Join(root, "backend", "ckpt", ".plfsaccess")); err != nil {
		t.Fatalf("container marker missing on disk: %v", err)
	}

	// 2. A "login shell" with the shim loaded runs the tools.
	shell, err := core.New(osfs, core.Config{
		Mounts: []core.Mount{{Point: "/mnt/plfs", Backend: "/backend"}},
		Pid:    999,
	})
	if err != nil {
		t.Fatal(err)
	}
	sumContainer, err := unixtools.Md5sum(shell, "/mnt/plfs/ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unixtools.Cp(shell, "/mnt/plfs/ckpt", "/scratch/ckpt.flat"); err != nil {
		t.Fatal(err)
	}

	// 3. plfsctl-style flatten agrees with cp through the shim.
	p := plfs.New(osfs)
	if err := p.Flatten("/backend/ckpt", "/scratch/ckpt.flat2"); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{'A'}, block)
	want = append(want, bytes.Repeat([]byte{'B'}, block)...)
	want = append(want, bytes.Repeat([]byte{'C'}, block)...)
	want = append(want, bytes.Repeat([]byte{'D'}, block)...)
	wantSum := md5.Sum(want)
	if sumContainer != hex.EncodeToString(wantSum[:]) {
		t.Fatal("container digest differs from expected logical content")
	}
	for _, name := range []string{"ckpt.flat", "ckpt.flat2"} {
		got, err := os.ReadFile(filepath.Join(root, "scratch", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs from logical content", name)
		}
	}
}

// TestPaperScaleFlashOnNullFS replays the paper's actual FLASH-IO
// configuration (24^3 blocks, ~212 MB per process) through LDPLFS on the
// dataless backend — the op stream of a Fig. 5 point, for real.
func TestPaperScaleFlashOnNullFS(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale replay skipped in -short mode")
	}
	null := posix.NewNullFS()
	for _, d := range []string{"/scratch", "/backend"} {
		if err := null.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// 4 ranks of the paper's per-process volume: ~850 MB of logical
	// payload, zero bytes stored.
	cfg := workload.FlashIOConfig{NXB: 24, NBlocks: 80, NVars: 24, Hints: mpiio.DefaultHints()}
	var wrote int64
	err := mpi.Run(4, 2, func(r *mpi.Rank) {
		d, err := core.New(null, core.Config{
			Mounts: []core.Mount{{Point: "/mnt/plfs", Backend: "/backend"}},
			Pid:    uint32(r.Rank()),
		})
		if err != nil {
			panic(err)
		}
		res, err := workload.RunFlashIO(r, mpiio.NewUFS(d), "/mnt/plfs/flash", cfg)
		if err != nil {
			panic(err)
		}
		if r.Rank() == 0 {
			wrote = res.BytesWritten * 4
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	perProc := cfg.BytesPerProcess()
	if wrote < 4*perProc {
		t.Fatalf("wrote %d, want >= %d", wrote, 4*perProc)
	}
	// The checkpoint container's logical size matches the layout.
	p := plfs.New(null)
	st, err := p.Stat("/backend/flash_hdf5_chk_0001")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size < 4*perProc {
		t.Fatalf("checkpoint logical size %d below payload %d", st.Size, 4*perProc)
	}
}

// TestMethodsAgreeOnRealDisk is the cross-method transparency check on
// OSFS: romio-written containers read back through ldplfs on real disk.
func TestMethodsAgreeOnRealDisk(t *testing.T) {
	root := t.TempDir()
	for _, d := range []string{"backend", "scratch"} {
		if err := os.Mkdir(filepath.Join(root, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	osfs, err := posix.NewOSFS(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := harness.PrepareStore(osfs); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	payload := make([]byte, 512<<10)
	rng.Read(payload)

	err = mpi.Run(2, 1, func(r *mpi.Rank) {
		drv, pathFor, err := harness.DriverFor("romio", osfs, r.Rank())
		if err != nil {
			panic(err)
		}
		fh, err := mpiio.Open(r, drv, pathFor("x"), mpiio.ModeCreate|mpiio.ModeWronly, mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		half := len(payload) / 2
		chunk := payload[r.Rank()*half : (r.Rank()+1)*half]
		if _, err := fh.WriteAtAll(chunk, int64(r.Rank()*half)); err != nil {
			panic(err)
		}
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}

	err = mpi.Run(1, 1, func(r *mpi.Rank) {
		drv, pathFor, err := harness.DriverFor("ldplfs", osfs, 7)
		if err != nil {
			panic(err)
		}
		fh, err := mpiio.Open(r, drv, pathFor("x"), mpiio.ModeRdonly, mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		got := make([]byte, len(payload))
		if n, err := fh.ReadAtAll(got, 0); err != nil || n != len(payload) {
			panic(err)
		}
		if !bytes.Equal(got, payload) {
			panic("cross-method bytes differ on real disk")
		}
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}
