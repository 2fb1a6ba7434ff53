package posix

import (
	"testing"

	"ldplfs/internal/iostats"
)

func TestInstrumentFSCounts(t *testing.T) {
	plane := iostats.NewPlane()
	fs := NewInstrumentFS(NewMemFS(), plane)

	fd, err := fs.Open("/f", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(fd, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Pwrite(fd, make([]byte, 50), 200); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := fs.Pread(fd, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Fstat(fd); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/missing", O_RDONLY, 0); err == nil {
		t.Fatal("open of missing path succeeded")
	}

	ls := plane.Layer("posix")
	if got := ls.OpCount(iostats.Open); got != 2 {
		t.Errorf("open count = %d, want 2", got)
	}
	if got := ls.OpErrors(iostats.Open); got != 1 {
		t.Errorf("open errors = %d, want 1", got)
	}
	if got := ls.OpBytes(iostats.Write); got != 150 {
		t.Errorf("write bytes = %d, want 150", got)
	}
	if got := ls.OpBytes(iostats.Read); got != 64 {
		t.Errorf("read bytes = %d, want 64", got)
	}
	if got := ls.OpCount(iostats.Sync); got != 1 {
		t.Errorf("sync count = %d, want 1", got)
	}
	// Fstat + Close are meta.
	if got := ls.OpCount(iostats.Meta); got != 2 {
		t.Errorf("meta count = %d, want 2", got)
	}
}

// TestInstrumentFSMetaSurface sweeps the long tail of wrapped calls so
// the whole FS surface is known to count (and forward) correctly.
func TestInstrumentFSMetaSurface(t *testing.T) {
	plane := iostats.NewPlane()
	fs := NewInstrumentFS(NewMemFS(), plane)

	fd, err := fs.Open("/f", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fs.Write(fd, []byte("hello"))
	if _, err := fs.Lseek(fd, 0, SEEK_SET); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if n, _ := fs.Read(fd, buf); n != 5 || string(buf) != "hello" {
		t.Fatalf("sequential read through instrument = %q (%d)", buf, n)
	}
	if err := fs.Ftruncate(fd, 2); err != nil {
		t.Fatal(err)
	}
	fs.Close(fd)
	fs.Mkdir("/d", 0o755)
	if _, err := fs.Readdir("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Access("/f", F_OK); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate("/f", 1); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/f", "/g"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/g"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}

	ls := plane.Layer("posix")
	if got := ls.OpBytes(iostats.Read); got != 5 {
		t.Errorf("read bytes = %d, want 5", got)
	}
	// Close, Ftruncate, Mkdir, Readdir, Access, Truncate, Rename,
	// Unlink and Rmdir all land in meta.
	if got := ls.OpCount(iostats.Meta); got != 9 {
		t.Errorf("meta count = %d, want 9", got)
	}
}

func TestInstrumentFSLayerName(t *testing.T) {
	plane := iostats.NewPlane()
	fs := NewInstrumentFS(NewMemFS(), plane, WithLayerName("backend0"))
	fs.Stat("/")
	if got := plane.Layer("backend0").OpCount(iostats.Meta); got != 1 {
		t.Fatalf("named layer meta count = %d, want 1", got)
	}
	if fs.Stats() != plane.Layer("backend0") {
		t.Fatal("Stats() is not the registered layer handle")
	}
}

func TestFaultFSUnderInstrument(t *testing.T) {
	// The per-class tallies FaultFS used to expose via OpCount now come
	// from wrapping it in an InstrumentFS on a telemetry plane.
	plane := iostats.NewPlane()
	fs := NewInstrumentFS(NewFaultFS(NewMemFS()), plane, WithLayerName("fault"))
	fd, err := fs.Open("/f", O_CREAT|O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fs.Write(fd, make([]byte, 8))
	fs.Close(fd)
	fs.Stat("/f")
	ls := plane.Layer("fault")
	if got := ls.OpCount(iostats.Open); got != 1 {
		t.Errorf("open count = %d, want 1", got)
	}
	if got := ls.OpCount(iostats.Write); got != 1 {
		t.Errorf("write count = %d, want 1", got)
	}
	if got := ls.OpCount(iostats.Meta); got < 1 {
		t.Errorf("meta count = %d, want >= 1", got)
	}
}
