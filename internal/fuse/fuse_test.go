package fuse

import (
	"bytes"
	"errors"
	"testing"

	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

func newMount(t *testing.T) (*FS, *posix.MemFS) {
	t.Helper()
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	return Mount(mem, "/mnt/plfs", "/backend", plfs.EngineOptions{NumHostdirs: 4}), mem
}

func TestFuseRoundTrip(t *testing.T) {
	fs, _ := newMount(t)
	fd, err := fs.Open("/mnt/plfs/f", posix.O_CREAT|posix.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("through the kernel twice")
	if n, err := fs.Write(fd, payload); err != nil || n != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if _, err := fs.Lseek(fd, 0, posix.SEEK_SET); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if n, err := fs.Read(fd, got); err != nil || n != len(payload) {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("content = %q", got)
	}
	fs.Close(fd)
}

func TestFuseOutsideMountENOENT(t *testing.T) {
	fs, _ := newMount(t)
	if _, err := fs.Open("/elsewhere/f", posix.O_CREAT|posix.O_WRONLY, 0o644); !errors.Is(err, posix.ENOENT) {
		t.Fatalf("open outside mount = %v", err)
	}
	if _, err := fs.Stat("/other"); !errors.Is(err, posix.ENOENT) {
		t.Fatalf("stat outside mount = %v", err)
	}
}

func TestFuseTransparency(t *testing.T) {
	fs, _ := newMount(t)
	fd, _ := fs.Open("/mnt/plfs/chk", posix.O_CREAT|posix.O_WRONLY, 0o644)
	fs.Write(fd, make([]byte, 5000))
	fs.Close(fd)

	st, err := fs.Stat("/mnt/plfs/chk")
	if err != nil || st.IsDir() || st.Size != 5000 {
		t.Fatalf("container via FUSE: %+v, %v", st, err)
	}
	entries, err := fs.Readdir("/mnt/plfs")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name == "chk" && e.IsDir {
			t.Fatal("container listed as directory through FUSE")
		}
	}
}

func TestFuseCrossingAccounting(t *testing.T) {
	fs, _ := newMount(t)
	fd, _ := fs.Open("/mnt/plfs/acct", posix.O_CREAT|posix.O_WRONLY, 0o644)

	fs.Metrics.Crossings.Store(0)
	fs.Metrics.BytesCopied.Store(0)

	small := make([]byte, 1000)
	fs.Write(fd, small)
	if got := fs.Metrics.Crossings.Load(); got != 2 {
		t.Fatalf("small write crossings = %d, want 2", got)
	}
	if got := fs.Metrics.BytesCopied.Load(); got != 2000 {
		t.Fatalf("bytes copied = %d, want 2000 (double copy)", got)
	}

	// A large write is segmented at MaxTransfer per round trip.
	fs.Metrics.Crossings.Store(0)
	big := make([]byte, 3*MaxTransfer+1)
	fs.Write(fd, big)
	if got := fs.Metrics.Crossings.Load(); got != 8 {
		t.Fatalf("large write crossings = %d, want 8 (4 segments x 2)", got)
	}
	fs.Close(fd)
}

func TestFuseVsLDPLFSSameBytes(t *testing.T) {
	// The two PLFS transports must produce interchangeable containers: a
	// file written through FUSE reads identically via direct PLFS.
	fs, mem := newMount(t)
	fd, _ := fs.Open("/mnt/plfs/x", posix.O_CREAT|posix.O_WRONLY, 0o644)
	want := []byte("written by the fuse daemon")
	fs.Write(fd, want)
	fs.Close(fd)

	p := plfs.New(mem, plfs.EngineOptions{NumHostdirs: 4})
	pf, err := p.Open("/backend/x", posix.O_RDONLY, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := pf.Read(got, 0); err != nil || n != len(want) {
		t.Fatalf("direct read = %d, %v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bytes differ: %q", got)
	}
	pf.Close(0)
}

func TestFuseDirOps(t *testing.T) {
	fs, _ := newMount(t)
	if err := fs.Mkdir("/mnt/plfs/d", 0o755); err != nil {
		t.Fatal(err)
	}
	fd, err := fs.Open("/mnt/plfs/d", posix.O_RDONLY, 0)
	if err != nil {
		t.Fatalf("open dir: %v", err)
	}
	if _, err := fs.Read(fd, make([]byte, 4)); !errors.Is(err, posix.EISDIR) {
		t.Fatalf("read dir = %v", err)
	}
	fs.Close(fd)
	if err := fs.Rmdir("/mnt/plfs/d"); err != nil {
		t.Fatal(err)
	}
}

func TestFuseAppendAndSeekEnd(t *testing.T) {
	fs, _ := newMount(t)
	fd, _ := fs.Open("/mnt/plfs/log", posix.O_CREAT|posix.O_WRONLY|posix.O_APPEND, 0o644)
	fs.Write(fd, []byte("aa"))
	fs.Write(fd, []byte("bb"))
	fs.Close(fd)
	fd, _ = fs.Open("/mnt/plfs/log", posix.O_RDWR, 0)
	if pos, err := fs.Lseek(fd, 0, posix.SEEK_END); err != nil || pos != 4 {
		t.Fatalf("SEEK_END = %d, %v", pos, err)
	}
	fs.Close(fd)
}
