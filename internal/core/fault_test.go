package core

import (
	"bytes"
	"errors"
	"testing"

	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// faultEnv builds a shimmed process over a fault-injecting backend.
func faultEnv(t *testing.T) (*posix.Dispatch, *posix.FaultFS) {
	t.Helper()
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	ffs := posix.NewFaultFS(mem)
	d := posix.NewDispatch(ffs)
	if _, err := Preload(d, Config{
		Mounts:      []Mount{{Point: "/mnt/plfs", Backend: "/backend"}},
		Pid:         1,
		PlfsOptions: plfs.Config{Engine: plfs.EngineOptions{NumHostdirs: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	return d, ffs
}

func TestWriteFailurePropagatesThroughShim(t *testing.T) {
	d, ffs := faultEnv(t)
	fd, err := d.Open("/mnt/plfs/f", posix.O_CREAT|posix.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// First write succeeds, then the device fills up.
	if _, err := d.Write(fd, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(&posix.FaultRule{Op: posix.FaultWrite, Err: posix.ENOSPC})
	if _, err := d.Write(fd, []byte("doomed")); !errors.Is(err, posix.ENOSPC) {
		t.Fatalf("write under ENOSPC = %v, want ENOSPC", err)
	}
	ffs.Clear()
	// The handle survives the failure; the successful data is intact.
	buf := make([]byte, 2)
	if _, err := d.Pread(fd, buf, 0); err != nil || !bytes.Equal(buf, []byte("ok")) {
		t.Fatalf("data after failed write: %q, %v", buf, err)
	}
	if err := d.Close(fd); err != nil {
		t.Fatal(err)
	}
}

func TestOpenFailureDoesNotLeakShadowFds(t *testing.T) {
	mem := posix.NewMemFS()
	mem.Mkdir("/backend", 0o755)
	ffs := posix.NewFaultFS(mem)
	d := posix.NewDispatch(ffs)
	if _, err := Preload(d, Config{
		Mounts: []Mount{{Point: "/mnt/plfs", Backend: "/backend"}},
		Pid:    1,
	}); err != nil {
		t.Fatal(err)
	}
	// Fail the creation of the container's version file and beyond: the
	// fifth matching open under the backend fails.
	ffs.Inject(&posix.FaultRule{Op: posix.FaultOpen, PathContains: "/backend/x", After: 0, Err: posix.EACCES})
	if _, err := d.Open("/mnt/plfs/x", posix.O_CREAT|posix.O_WRONLY, 0o644); err == nil {
		t.Fatal("open should fail when the backend refuses")
	}
	ffs.Clear()
	if got := mem.OpenFDs(); got != 0 {
		t.Fatalf("%d backend fds leaked after failed open", got)
	}
}

func TestReadFailureSurfaces(t *testing.T) {
	d, ffs := faultEnv(t)
	fd, _ := d.Open("/mnt/plfs/r", posix.O_CREAT|posix.O_RDWR, 0o644)
	d.Write(fd, make([]byte, 4096))
	d.Close(fd)

	fd, err := d.Open("/mnt/plfs/r", posix.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	ffs.Inject(&posix.FaultRule{Op: posix.FaultRead, Err: posix.EIO})
	if _, err := d.Read(fd, make([]byte, 128)); err == nil {
		t.Fatal("read under injected EIO succeeded")
	}
	ffs.Clear()
	if n, err := d.Read(fd, make([]byte, 128)); err != nil || n != 128 {
		t.Fatalf("read after fault cleared = %d, %v", n, err)
	}
	d.Close(fd)
}

func TestMetaFailureDuringStat(t *testing.T) {
	d, ffs := faultEnv(t)
	fd, _ := d.Open("/mnt/plfs/s", posix.O_CREAT|posix.O_WRONLY, 0o644)
	d.Write(fd, []byte("abc"))
	d.Close(fd)

	// The shim stats twice per application stat: the IsContainer probe
	// (whose failure it tolerates, degrading to a plain stat — what the
	// real shim's container check does) and the fallback stat itself.
	// Failing both surfaces the error to the application.
	ffs.Inject(&posix.FaultRule{Op: posix.FaultMeta, PathContains: "/backend/s", Times: 2, Err: posix.EACCES})
	if _, err := d.Stat("/mnt/plfs/s"); err == nil {
		t.Fatal("stat under injected EACCES succeeded")
	}
	// Once the flake passes, stat works again.
	if st, err := d.Stat("/mnt/plfs/s"); err != nil || st.Size != 3 {
		t.Fatalf("stat after flake = %+v, %v", st, err)
	}
	if ffs.Fired() != 2 {
		t.Fatalf("rule fired %d times, want 2", ffs.Fired())
	}
}

func TestTransientSyncFailure(t *testing.T) {
	d, ffs := faultEnv(t)
	fd, _ := d.Open("/mnt/plfs/sync", posix.O_CREAT|posix.O_WRONLY, 0o644)
	d.Write(fd, []byte("x"))
	ffs.Inject(&posix.FaultRule{Op: posix.FaultSync, Times: 1, Err: posix.EIO})
	if err := d.Fsync(fd); err == nil {
		t.Fatal("fsync under injected fault succeeded")
	}
	if err := d.Fsync(fd); err != nil {
		t.Fatalf("fsync retry failed: %v", err)
	}
	d.Close(fd)
}
