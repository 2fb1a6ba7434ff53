package fuse

import (
	"bytes"
	"errors"
	"fmt"
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
	return Mount(mem, "/mnt/plfs", "/backend"), mem
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

// TestFuseCrossingAccounting pins what every kind of op costs at the
// kernel boundary: round-trip crossings, FUSE ops, payload bytes copied,
// and the errno the caller sees. Each row runs on a fresh mount holding
// a file f of big bytes (open read-write at offset 0 as fd), a second
// file g and a directory d.
func TestFuseCrossingAccounting(t *testing.T) {
	const big = 3*MaxTransfer + 1
	type row struct {
		name  string
		op    func(fs *FS, fd int) (n int, err error)
		cross int64
		ops   int64
		bytes int64
		err   error // nil, an errno, or errMount for the mount's own error
	}
	errMount := errors.New("the mount's error")
	void := func(err error) (int, error) { return 0, err }
	stat := func(_ posix.Stat, err error) (int, error) { return 0, err }
	seek := func(_ int64, err error) (int, error) { return 0, err }
	buf := func(n int) []byte { return make([]byte, n) }

	rows := []row{
		{name: "open", op: func(fs *FS, _ int) (int, error) {
			_, err := fs.Open("/mnt/plfs/g", posix.O_RDONLY, 0)
			return 0, err
		}, cross: 2, ops: 1},
		{name: "stat", op: func(fs *FS, _ int) (int, error) { return stat(fs.Stat("/mnt/plfs/f")) }, cross: 2, ops: 1},
		{name: "stat missing", op: func(fs *FS, _ int) (int, error) { return stat(fs.Stat("/mnt/plfs/none")) }, cross: 2, ops: 1, err: posix.ENOENT},
		{name: "truncate", op: func(fs *FS, _ int) (int, error) { return void(fs.Truncate("/mnt/plfs/g", 10)) }, cross: 2, ops: 1},
		{name: "unlink", op: func(fs *FS, _ int) (int, error) { return void(fs.Unlink("/mnt/plfs/g")) }, cross: 2, ops: 1},
		{name: "mkdir", op: func(fs *FS, _ int) (int, error) { return void(fs.Mkdir("/mnt/plfs/e", 0o755)) }, cross: 2, ops: 1},
		{name: "rmdir", op: func(fs *FS, _ int) (int, error) { return void(fs.Rmdir("/mnt/plfs/d")) }, cross: 2, ops: 1},
		{name: "readdir", op: func(fs *FS, _ int) (int, error) {
			_, err := fs.Readdir("/mnt/plfs")
			return 0, err
		}, cross: 2, ops: 1},
		{name: "access", op: func(fs *FS, _ int) (int, error) { return void(fs.Access("/mnt/plfs/f", 0)) }, cross: 2, ops: 1},
		{name: "rename", op: func(fs *FS, _ int) (int, error) { return void(fs.Rename("/mnt/plfs/g", "/mnt/plfs/h")) }, cross: 2, ops: 1},

		{name: "open outside", op: func(fs *FS, _ int) (int, error) {
			_, err := fs.Open("/elsewhere/f", posix.O_CREAT|posix.O_WRONLY, 0o644)
			return 0, err
		}, cross: 2, ops: 1, err: posix.ENOENT},
		{name: "stat outside", op: func(fs *FS, _ int) (int, error) { return stat(fs.Stat("/other")) }, cross: 2, ops: 1, err: posix.ENOENT},
		{name: "stat sibling prefix", op: func(fs *FS, _ int) (int, error) { return stat(fs.Stat("/mnt/plfsx")) }, cross: 2, ops: 1, err: posix.ENOENT},
		{name: "truncate outside", op: func(fs *FS, _ int) (int, error) { return void(fs.Truncate("/other", 0)) }, cross: 2, ops: 1, err: posix.ENOENT},
		{name: "unlink outside", op: func(fs *FS, _ int) (int, error) { return void(fs.Unlink("/other")) }, cross: 2, ops: 1, err: posix.ENOENT},
		{name: "mkdir outside", op: func(fs *FS, _ int) (int, error) { return void(fs.Mkdir("/other", 0o755)) }, cross: 2, ops: 1, err: posix.ENOENT},
		{name: "rmdir outside", op: func(fs *FS, _ int) (int, error) { return void(fs.Rmdir("/backend")) }, cross: 2, ops: 1, err: posix.ENOENT},
		{name: "readdir outside", op: func(fs *FS, _ int) (int, error) {
			_, err := fs.Readdir("/")
			return 0, err
		}, cross: 2, ops: 1, err: posix.ENOENT},
		{name: "access outside", op: func(fs *FS, _ int) (int, error) { return void(fs.Access("/backend", 0)) }, cross: 2, ops: 1, err: posix.ENOENT},
		{name: "rename to outside", op: func(fs *FS, _ int) (int, error) { return void(fs.Rename("/mnt/plfs/g", "/other")) }, cross: 2, ops: 1, err: posix.ENOENT},
		{name: "rename from outside", op: func(fs *FS, _ int) (int, error) { return void(fs.Rename("/other", "/mnt/plfs/h")) }, cross: 2, ops: 1, err: posix.ENOENT},

		{name: "fsync", op: func(fs *FS, fd int) (int, error) { return void(fs.Fsync(fd)) }, cross: 2, ops: 1},
		{name: "ftruncate", op: func(fs *FS, fd int) (int, error) { return void(fs.Ftruncate(fd, 10)) }, cross: 2, ops: 1},
		{name: "fstat", op: func(fs *FS, fd int) (int, error) { return stat(fs.Fstat(fd)) }, cross: 2, ops: 1},
		{name: "close", op: func(fs *FS, fd int) (int, error) { return void(fs.Close(fd)) }, cross: 2, ops: 1},
		{name: "lseek set", op: func(fs *FS, fd int) (int, error) { return seek(fs.Lseek(fd, 5, posix.SEEK_SET)) }},
		{name: "lseek cur", op: func(fs *FS, fd int) (int, error) { return seek(fs.Lseek(fd, 5, posix.SEEK_CUR)) }},
		{name: "lseek end", op: func(fs *FS, fd int) (int, error) { return seek(fs.Lseek(fd, 0, posix.SEEK_END)) }, cross: 2, ops: 1},

		{name: "failed mount stat", op: func(fs *FS, _ int) (int, error) { return stat(fs.Stat("/mnt/plfs/f")) }, cross: 2, ops: 1, err: errMount},
		{name: "failed mount open", op: func(fs *FS, _ int) (int, error) {
			_, err := fs.Open("/mnt/plfs/f", posix.O_CREAT|posix.O_RDWR, 0o644)
			return 0, err
		}, cross: 2, ops: 1, err: errMount},
		{name: "failed mount rename", op: func(fs *FS, _ int) (int, error) { return void(fs.Rename("/mnt/plfs/f", "/other")) }, cross: 2, ops: 1, err: errMount},
	}
	// Every data call is one op of ceil(req/MaxTransfer) round trips
	// (at least one), and its payload is copied twice.
	for _, size := range []int{0, 1000, big} {
		segs := int64(max(1, (size+MaxTransfer-1)/MaxTransfer))
		data := []struct {
			name string
			op   func(fs *FS, fd int) (int, error)
		}{
			{"read", func(fs *FS, fd int) (int, error) { return fs.Read(fd, buf(size)) }},
			{"pread", func(fs *FS, fd int) (int, error) { return fs.Pread(fd, buf(size), 0) }},
			{"write", func(fs *FS, fd int) (int, error) { return fs.Write(fd, buf(size)) }},
			{"pwrite", func(fs *FS, fd int) (int, error) { return fs.Pwrite(fd, buf(size), 0) }},
		}
		for _, d := range data {
			rows = append(rows, row{name: fmt.Sprintf("%s %d", d.name, size), op: d.op,
				cross: 2 * segs, ops: 1, bytes: 2 * int64(size)})
		}
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			point := "/mnt/plfs"
			if r.err == errMount {
				point = "" // an invalid mount point fails the mount
			}
			mem := posix.NewMemFS()
			if err := mem.Mkdir("/backend", 0o755); err != nil {
				t.Fatal(err)
			}
			fs := Mount(mem, point, "/backend")
			fd := -1
			if fs.err == nil {
				for _, name := range []string{"g", "f"} {
					var err error
					if fd, err = fs.Open("/mnt/plfs/"+name, posix.O_CREAT|posix.O_RDWR, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := fs.Write(fd, buf(big)); err != nil {
					t.Fatal(err)
				}
				if _, err := fs.Lseek(fd, 0, posix.SEEK_SET); err != nil {
					t.Fatal(err)
				}
				if err := fs.Mkdir("/mnt/plfs/d", 0o755); err != nil {
					t.Fatal(err)
				}
			} else if r.err != errMount {
				t.Fatalf("mount: %v", fs.err)
			}
			fs.Metrics.Crossings.Store(0)
			fs.Metrics.Ops.Store(0)
			fs.Metrics.BytesCopied.Store(0)

			_, err := r.op(fs, fd)
			switch {
			case r.err == errMount:
				if fs.err == nil || err != fs.err {
					t.Errorf("err = %v, want the mount's error %v", err, fs.err)
				}
			case r.err == nil && err != nil, r.err != nil && !errors.Is(err, r.err):
				t.Errorf("err = %v, want %v", err, r.err)
			}
			m := &fs.Metrics
			if got := m.Crossings.Load(); got != r.cross {
				t.Errorf("crossings = %d, want %d", got, r.cross)
			}
			if got := m.Ops.Load(); got != r.ops {
				t.Errorf("ops = %d, want %d", got, r.ops)
			}
			if got := m.BytesCopied.Load(); got != r.bytes {
				t.Errorf("bytes copied = %d, want %d", got, r.bytes)
			}
		})
	}
}

func TestFuseVsLDPLFSSameBytes(t *testing.T) {
	// The two PLFS transports must produce interchangeable containers: a
	// file written through FUSE reads identically via direct PLFS.
	fs, mem := newMount(t)
	fd, _ := fs.Open("/mnt/plfs/x", posix.O_CREAT|posix.O_WRONLY, 0o644)
	want := []byte("written by the fuse daemon")
	fs.Write(fd, want)
	fs.Close(fd)

	p := plfs.New(mem)
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
