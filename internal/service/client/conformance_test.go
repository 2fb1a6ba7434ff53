package client_test

import (
	"bytes"
	"errors"
	"testing"

	"ldplfs/internal/core"
	"ldplfs/internal/fuse"
	"ldplfs/internal/mpi"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/posix"
	"ldplfs/internal/service/client"
)

// face is one way an application reaches PLFS through the POSIX surface.
// All of them are the one translation in internal/core behind a
// different boundary, so one table holds for all; the two fields say
// where a boundary legitimately shows.
type face struct {
	name string
	new  func(t *testing.T) posix.FS
	// outside is what creating a file outside the mount answers: a FUSE
	// mount exposes only its own tree, the shim passes through (nil).
	outside error
	// dirOps is what mkdir, readdir and rename answer: the wire has no
	// frame for them (nil: they work).
	dirOps error
}

const (
	facePoint   = "/mnt/plfs"
	faceBackend = "/backend"
)

var faceConfig = core.Config{Mounts: []core.Mount{{Point: facePoint, Backend: faceBackend}}, Pid: 7}

func shimOver(t *testing.T, inner posix.FS) posix.FS {
	t.Helper()
	if err := inner.Mkdir(faceBackend, 0o755); err != nil {
		t.Fatal(err)
	}
	shim, err := core.New(inner, faceConfig)
	if err != nil {
		t.Fatal(err)
	}
	return shim
}

// preloadedOver is the shim bound into a symbol table over inner, the
// construction core.Preload keeps for callers that hold a table.
func preloadedOver(t *testing.T, inner posix.FS) posix.FS {
	t.Helper()
	if err := inner.Mkdir(faceBackend, 0o755); err != nil {
		t.Fatal(err)
	}
	d := posix.NewDispatch(inner)
	if _, err := core.Preload(d, faceConfig); err != nil {
		t.Fatal(err)
	}
	return d
}

var faces = []face{
	{name: "shim/MemFS", new: func(t *testing.T) posix.FS { return shimOver(t, posix.NewMemFS()) }},
	{name: "shim/OSFS", new: func(t *testing.T) posix.FS {
		osfs, err := posix.NewOSFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return shimOver(t, osfs)
	}},
	{name: "shim/Preload", new: func(t *testing.T) posix.FS { return preloadedOver(t, posix.NewMemFS()) }},
	{name: "fuse.FS", outside: posix.ENOENT, new: func(t *testing.T) posix.FS {
		mem := posix.NewMemFS()
		if err := mem.Mkdir(faceBackend, 0o755); err != nil {
			t.Fatal(err)
		}
		return fuse.Mount(mem, facePoint, faceBackend)
	}},
	{name: "conn.Dispatch", dirOps: posix.ENOSYS, new: func(t *testing.T) posix.FS { return dialFS(t) }},
}

func dialFS(t *testing.T) posix.FS {
	t.Helper()
	c, err := client.Dial(startGateway(t), "gold")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c.FS()
}

// script is a row's body over one face: helpers that fail the test on
// any error or short transfer, so rows read as the syscalls they make.
type script struct {
	t  *testing.T
	fs posix.FS
}

func (s script) open(path string, flags int) int {
	s.t.Helper()
	fd, err := s.fs.Open(path, flags, 0o644)
	if err != nil {
		s.t.Fatalf("open(%s, %#x): %v", path, flags, err)
	}
	return fd
}

func (s script) close(fd int) {
	s.t.Helper()
	if err := s.fs.Close(fd); err != nil {
		s.t.Fatalf("close: %v", err)
	}
}

func (s script) write(fd int, data string) {
	s.t.Helper()
	if n, err := s.fs.Write(fd, []byte(data)); err != nil || n != len(data) {
		s.t.Fatalf("write(%q) = %d, %v", data, n, err)
	}
}

func (s script) pwrite(fd int, data string, off int64) {
	s.t.Helper()
	if n, err := s.fs.Pwrite(fd, []byte(data), off); err != nil || n != len(data) {
		s.t.Fatalf("pwrite(%q, %d) = %d, %v", data, off, n, err)
	}
}

// read asks the file pointer for n bytes.
func (s script) read(fd, n int, want string) {
	s.t.Helper()
	got := make([]byte, n)
	if n, err := s.fs.Read(fd, got); err != nil || string(got[:n]) != want {
		s.t.Fatalf("read = %q, %v; want %q", got[:n], err, want)
	}
}

// pread asks for n bytes at off.
func (s script) pread(fd int, off int64, n int, want string) {
	s.t.Helper()
	got := make([]byte, n)
	if n, err := s.fs.Pread(fd, got, off); err != nil || string(got[:n]) != want {
		s.t.Fatalf("pread(%d) = %q, %v; want %q", off, got[:n], err, want)
	}
}

func (s script) lseek(fd int, off int64, whence int, want int64) {
	s.t.Helper()
	if pos, err := s.fs.Lseek(fd, off, whence); err != nil || pos != want {
		s.t.Fatalf("lseek(%d, %d) = %d, %v; want %d", off, whence, pos, err, want)
	}
}

// sizes checks the size both ways a program asks for it.
func (s script) sizes(fd int, path string, want int64) {
	s.t.Helper()
	if st, err := s.fs.Fstat(fd); err != nil || st.Size != want || st.IsDir() {
		s.t.Fatalf("fstat = %+v, %v; want a file of %d bytes", st, err, want)
	}
	if st, err := s.fs.Stat(path); err != nil || st.Size != want || st.IsDir() {
		s.t.Fatalf("stat(%s) = %+v, %v; want a file of %d bytes", path, st, err, want)
	}
}

// contents checks the whole file through a fresh descriptor.
func (s script) contents(path, want string) {
	s.t.Helper()
	fd := s.open(path, posix.O_RDONLY)
	s.pread(fd, 0, len(want)+4, want) // and not a byte more
	s.close(fd)
}

// pattern fills n bytes so that no two frame-sized pieces are alike.
func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i>>16) ^ byte(i>>8) ^ byte(i)
	}
	return p
}

// nineMiB is one transfer above the wire's 8 MiB frame ceiling.
const nineMiB = 9 << 20

// conformanceRows is the behaviour every face owes an application that
// believes it is talking to a POSIX file system.
var conformanceRows = []struct {
	name string
	run  func(s script, path string)
}{
	{"create-excl-trunc", func(s script, path string) {
		fd := s.open(path, posix.O_CREAT|posix.O_EXCL|posix.O_WRONLY)
		s.write(fd, "first")
		s.close(fd)
		if _, err := s.fs.Open(path, posix.O_CREAT|posix.O_EXCL|posix.O_WRONLY, 0o644); !errors.Is(err, posix.EEXIST) {
			s.t.Fatalf("second O_EXCL create = %v, want EEXIST", err)
		}
		if _, err := s.fs.Open(path+".absent", posix.O_RDONLY, 0); !errors.Is(err, posix.ENOENT) {
			s.t.Fatalf("open of an absent file = %v, want ENOENT", err)
		}
		fd = s.open(path, posix.O_CREAT|posix.O_WRONLY) // plain O_CREAT keeps the bytes
		s.sizes(fd, path, 5)
		s.close(fd)
		fd = s.open(path, posix.O_WRONLY|posix.O_TRUNC)
		s.sizes(fd, path, 0)
		s.close(fd)
	}},
	{"file-pointer", func(s script, path string) {
		fd := s.open(path, posix.O_CREAT|posix.O_RDWR)
		s.write(fd, "hello")
		s.write(fd, "world")
		s.lseek(fd, 0, posix.SEEK_SET, 0)
		s.read(fd, 6, "hellow")
		s.read(fd, 6, "orld") // short at EOF
		s.read(fd, 6, "")
		s.close(fd)
	}},
	{"pread-pwrite", func(s script, path string) {
		fd := s.open(path, posix.O_CREAT|posix.O_RDWR)
		s.pwrite(fd, "tail", 100)
		s.pwrite(fd, "head", 0)
		s.pread(fd, 100, 4, "tail")
		s.pread(fd, 2, 8, "ad"+string(make([]byte, 6))) // the hole reads zeros
		s.lseek(fd, 0, posix.SEEK_CUR, 0)               // positional I/O leaves the pointer alone
		s.sizes(fd, path, 104)
		s.close(fd)
	}},
	{"lseek", func(s script, path string) {
		fd := s.open(path, posix.O_CREAT|posix.O_RDWR)
		s.write(fd, "0123456789")
		s.lseek(fd, 4, posix.SEEK_SET, 4)
		s.lseek(fd, 2, posix.SEEK_CUR, 6)
		s.read(fd, 2, "67")
		s.lseek(fd, -1, posix.SEEK_END, 9)
		s.read(fd, 4, "9")
		s.lseek(fd, 0, posix.SEEK_END, 10)
		if _, err := s.fs.Lseek(fd, -11, posix.SEEK_END); !errors.Is(err, posix.EINVAL) {
			s.t.Fatalf("seek before the start = %v, want EINVAL", err)
		}
		s.close(fd)
	}},
	{"append", func(s script, path string) {
		fd := s.open(path, posix.O_CREAT|posix.O_WRONLY)
		s.write(fd, "aaaa")
		s.close(fd)
		fd = s.open(path, posix.O_WRONLY|posix.O_APPEND)
		s.write(fd, "bb")
		s.lseek(fd, 0, posix.SEEK_SET, 0)
		s.write(fd, "cc") // O_APPEND outranks the pointer
		s.close(fd)
		s.contents(path, "aaaabbcc")
	}},
	{"append-cursor", func(s script, path string) {
		fd := s.open(path, posix.O_CREAT|posix.O_WRONLY)
		s.write(fd, "0123456789")
		s.close(fd)
		fd = s.open(path, posix.O_RDWR|posix.O_APPEND)
		s.lseek(fd, 0, posix.SEEK_CUR, 0) // the open leaves the pointer at 0
		s.read(fd, 4, "0123")
		s.write(fd, "ab") // the write lands at EOF and moves the pointer there
		s.lseek(fd, 0, posix.SEEK_CUR, 12)
		s.close(fd)
		s.contents(path, "0123456789ab")
	}},
	{"rdonly-trunc", func(s script, path string) {
		fd := s.open(path, posix.O_CREAT|posix.O_WRONLY)
		s.write(fd, "hello")
		s.close(fd)
		fd = s.open(path, posix.O_RDONLY|posix.O_TRUNC) // truncates, as Linux does
		s.sizes(fd, path, 0)
		s.read(fd, 4, "")
		s.close(fd)
		s.contents(path, "")
	}},
	{"truncate", func(s script, path string) {
		fd := s.open(path, posix.O_CREAT|posix.O_RDWR)
		s.write(fd, "0123456789abcdef")
		if err := s.fs.Ftruncate(fd, 10); err != nil {
			s.t.Fatalf("ftruncate: %v", err)
		}
		s.sizes(fd, path, 10)
		if err := s.fs.Truncate(path, 4); err != nil {
			s.t.Fatalf("truncate: %v", err)
		}
		s.sizes(fd, path, 4)
		s.pwrite(fd, "XY", 4) // the descriptor survives both
		s.close(fd)
		s.contents(path, "0123XY")
	}},
	{"unlink", func(s script, path string) {
		s.close(s.open(path, posix.O_CREAT|posix.O_WRONLY))
		if err := s.fs.Unlink(path); err != nil {
			s.t.Fatalf("unlink: %v", err)
		}
		if _, err := s.fs.Stat(path); !errors.Is(err, posix.ENOENT) {
			s.t.Fatalf("stat after unlink = %v, want ENOENT", err)
		}
		if err := s.fs.Unlink(path); !errors.Is(err, posix.ENOENT) {
			s.t.Fatalf("second unlink = %v, want ENOENT", err)
		}
	}},
	{"large-transfer", func(s script, path string) {
		want := pattern(nineMiB)
		fd := s.open(path, posix.O_CREAT|posix.O_RDWR)
		if n, err := s.fs.Pwrite(fd, want, 0); err != nil || n != len(want) {
			s.t.Fatalf("9 MiB pwrite = %d, %v", n, err)
		}
		got := make([]byte, len(want)+100) // ask past EOF: short, not an error
		if n, err := s.fs.Pread(fd, got, 0); err != nil || n != len(want) || !bytes.Equal(got[:n], want) {
			s.t.Fatalf("9 MiB pread = %d, %v (bytes equal: %v)", n, err, bytes.Equal(got[:len(want)], want))
		}
		s.close(fd)
	}},
	{"two-descriptors", func(s script, path string) {
		fd1 := s.open(path, posix.O_CREAT|posix.O_RDWR)
		fd2 := s.open(path, posix.O_RDWR)
		s.pwrite(fd1, "AAAA", 0)
		s.pwrite(fd2, "BBBB", 4)
		s.pread(fd1, 0, 12, "AAAABBBB")
		s.write(fd2, "CC") // fd2's own pointer is still at 0
		s.pread(fd1, 0, 12, "CCAABBBB")
		s.close(fd1)
		s.close(fd2)
	}},
}

// TestPOSIXFaceConformance runs one table against every POSIX face of
// the tree — the shim over an in-memory and a real directory store, the
// FUSE view, and a gateway connection's posix.FS view — then the rows where
// a face's boundary is allowed to show.
func TestPOSIXFaceConformance(t *testing.T) {
	for _, f := range faces {
		t.Run(f.name, func(t *testing.T) {
			for _, row := range conformanceRows {
				t.Run(row.name, func(t *testing.T) {
					row.run(script{t, f.new(t)}, facePoint+"/f")
				})
			}
			t.Run("outside-the-mount", func(t *testing.T) {
				s := script{t, f.new(t)}
				fd, err := s.fs.Open("/elsewhere", posix.O_CREAT|posix.O_RDWR, 0o644)
				if f.outside != nil {
					if !errors.Is(err, f.outside) {
						t.Fatalf("create outside the mount = %v, want %v", err, f.outside)
					}
					if _, err := s.fs.Stat("/elsewhere"); !errors.Is(err, f.outside) {
						t.Fatalf("stat outside the mount = %v, want %v", err, f.outside)
					}
					return
				}
				if err != nil {
					t.Fatalf("create outside the mount: %v", err)
				}
				s.write(fd, "plain")
				s.sizes(fd, "/elsewhere", 5)
				s.close(fd)
			})
			t.Run("directory-ops", func(t *testing.T) {
				s := script{t, f.new(t)}
				const dir = facePoint + "/d"
				err := s.fs.Mkdir(dir, 0o755)
				if f.dirOps != nil {
					if !errors.Is(err, f.dirOps) {
						t.Fatalf("mkdir = %v, want %v", err, f.dirOps)
					}
					if _, err := s.fs.Readdir(facePoint); !errors.Is(err, f.dirOps) {
						t.Fatalf("readdir = %v, want %v", err, f.dirOps)
					}
					if err := s.fs.Rename(dir+"/a", dir+"/b"); !errors.Is(err, f.dirOps) {
						t.Fatalf("rename = %v, want %v", err, f.dirOps)
					}
					return
				}
				if err != nil {
					t.Fatalf("mkdir: %v", err)
				}
				fd := s.open(dir+"/a", posix.O_CREAT|posix.O_WRONLY)
				s.write(fd, "moved")
				s.close(fd)
				if err := s.fs.Rename(dir+"/a", dir+"/b"); err != nil {
					t.Fatalf("rename: %v", err)
				}
				entries, err := s.fs.Readdir(dir)
				if err != nil || len(entries) != 1 || entries[0].Name != "b" || entries[0].IsDir {
					t.Fatalf("readdir = %+v, %v; want the one file b", entries, err)
				}
				s.contents(dir+"/b", "moved")
			})
		})
	}
}

// TestRemoteModeThroughUFS drives what harness.RankDriver returns in
// remote mode — the ufs ADIO driver over a connection's posix.FS view — past
// the two things only a wire-aware driver used to get right: a transfer
// above the frame ceiling, and MPI_File_set_size.
func TestRemoteModeThroughUFS(t *testing.T) {
	drv := mpiio.NewUFS(dialFS(t))
	want := pattern(nineMiB)
	err := mpi.Run(1, 1, func(r *mpi.Rank) {
		f, err := mpiio.Open(r, drv, facePoint+"/ckpt", mpiio.ModeCreate|mpiio.ModeRdwr, mpiio.DefaultHints())
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		if n, err := f.WriteAt(want, 0); err != nil || n != len(want) {
			t.Errorf("WriteAt = %d, %v", n, err)
		}
		got := make([]byte, len(want))
		if n, err := f.ReadAt(got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
			t.Errorf("ReadAt = %d, %v", n, err)
		}
		if err := f.SetSize(1000); err != nil {
			t.Errorf("SetSize: %v", err)
		}
		if size, err := f.Size(); err != nil || size != 1000 {
			t.Errorf("Size after SetSize = %d, %v; want 1000", size, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
