package harness

import (
	"bytes"
	"testing"

	"ldplfs/internal/iostats"
	"ldplfs/internal/mpi"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/posix"
)

// TestNewStoreLayout checks the standard directories and that a striped
// store counts its replica reads on the plane it was handed.
func TestNewStoreLayout(t *testing.T) {
	store := NewStore()
	for _, d := range []string{ScratchDir, BackendDir} {
		st, err := store.Stat(d)
		if err != nil || !st.IsDir() {
			t.Fatalf("%s: %+v, %v", d, st, err)
		}
	}

	plane := iostats.NewPlane()
	striped := NewStoreN(3, plane)
	fd, err := striped.Open(BackendDir+"/f", posix.O_CREAT|posix.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := striped.Pwrite(fd, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := striped.Pread(fd, make([]byte, 1), 0); err != nil {
		t.Fatal(err)
	}
	striped.Close(fd)
	if got := plane.Layer("posix").Counter("replica_read_primary").Load(); got != 1 {
		t.Fatalf("replica_read_primary = %d on the plane handed to NewStoreN, want 1", got)
	}
}

func TestNewStoreNStripes(t *testing.T) {
	store := NewStoreN(3, nil)
	striped, ok := store.(*posix.StripedFS)
	if !ok {
		t.Fatalf("NewStoreN(3, nil) = %T, want *posix.StripedFS", store)
	}
	if striped.NumBackends() != 3 {
		t.Fatalf("NumBackends = %d, want 3", striped.NumBackends())
	}
	for _, d := range []string{ScratchDir, BackendDir} {
		st, err := store.Stat(d)
		if err != nil || !st.IsDir() {
			t.Fatalf("%s: %+v, %v", d, st, err)
		}
	}
	// Every method must run unchanged over a striped store.
	err := mpi.Run(4, 2, func(r *mpi.Rank) {
		drv, pathFor, err := DriverFor("ldplfs", store, r.Rank())
		if err != nil {
			panic(err)
		}
		fh, err := mpiio.Open(r, drv, pathFor("t"), mpiio.ModeCreate|mpiio.ModeRdwr, mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		buf := bytes.Repeat([]byte{byte(r.Rank() + 1)}, 512)
		if _, err := fh.WriteAtAll(buf, int64(r.Rank())*512); err != nil {
			panic(err)
		}
		got := make([]byte, 512)
		peer := (r.Rank() + 1) % 4
		if _, err := fh.ReadAtAll(got, int64(peer)*512); err != nil {
			panic(err)
		}
		if got[0] != byte(peer+1) {
			panic("wrong bytes through striped store")
		}
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if NewStoreN(1, nil).(*posix.MemFS) == nil {
		t.Fatal("NewStoreN(1, nil) should degenerate to a plain MemFS")
	}
}

func TestPrepareStoreIdempotent(t *testing.T) {
	mem := posix.NewMemFS()
	if err := PrepareStore(mem); err != nil {
		t.Fatal(err)
	}
	if err := PrepareStore(mem); err != nil {
		t.Fatalf("second PrepareStore: %v", err)
	}
}

func TestDriverForAllMethods(t *testing.T) {
	for _, method := range Methods {
		method := method
		t.Run(method, func(t *testing.T) {
			store := NewStore()
			err := mpi.Run(4, 2, func(r *mpi.Rank) {
				drv, pathFor, err := DriverFor(method, store, r.Rank())
				if err != nil {
					panic(err)
				}
				fh, err := mpiio.Open(r, drv, pathFor("t"), mpiio.ModeCreate|mpiio.ModeRdwr, mpiio.DefaultHints())
				if err != nil {
					panic(err)
				}
				buf := bytes.Repeat([]byte{byte(r.Rank() + 1)}, 512)
				if _, err := fh.WriteAtAll(buf, int64(r.Rank())*512); err != nil {
					panic(err)
				}
				got := make([]byte, 512)
				peer := (r.Rank() + 1) % 4
				if _, err := fh.ReadAtAll(got, int64(peer)*512); err != nil {
					panic(err)
				}
				if got[0] != byte(peer+1) {
					panic("wrong bytes through harness driver")
				}
				fh.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDriverForUnknownMethod(t *testing.T) {
	if _, _, err := DriverFor("nfs", NewStore(), 0); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestPLFSMethodsShareContainers(t *testing.T) {
	// A container written via romio must be readable via ldplfs: both
	// route to the same backend layout.
	store := NewStore()
	err := mpi.Run(1, 1, func(r *mpi.Rank) {
		drv, pathFor, _ := DriverFor("romio", store, 0)
		fh, err := mpiio.Open(r, drv, pathFor("shared"), mpiio.ModeCreate|mpiio.ModeWronly, mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		fh.WriteAtAll([]byte("cross-method"), 0)
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(1, 1, func(r *mpi.Rank) {
		drv, pathFor, _ := DriverFor("ldplfs", store, 0)
		fh, err := mpiio.Open(r, drv, pathFor("shared"), mpiio.ModeRdonly, mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		got := make([]byte, 12)
		if n, err := fh.ReadAtAll(got, 0); err != nil || string(got[:n]) != "cross-method" {
			panic("container not shared across methods")
		}
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}
