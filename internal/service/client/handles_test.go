package client_test

import (
	"testing"

	"ldplfs/internal/core"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
	"ldplfs/internal/service/client"
)

// handleRig is one way a single process comes to hold several handles
// on one PLFS container, presented as a posix.FS so one script drives
// them all.
type handleRig struct {
	name string
	path string
	new  func(t *testing.T) posix.FS
}

// handleRigs are the three entry points of the paper's layer: the plfs
// API opened twice with one pid, two fds through the preloaded shim, and
// two fds on one gateway connection.
var handleRigs = []handleRig{
	{"plfs.Open", "/backend/f", func(t *testing.T) posix.FS {
		mem := posix.NewMemFS()
		if err := mem.Mkdir("/backend", 0o755); err != nil {
			t.Fatal(err)
		}
		p := plfs.New(mem)
		var files []*plfs.File // fd = index; scripts are sequential
		return &posix.Dispatch{
			OpenFn: func(path string, flags int, mode uint32) (int, error) {
				f, err := p.Open(path, flags, 7, mode)
				if err != nil {
					return -1, err
				}
				files = append(files, f)
				return len(files) - 1, nil
			},
			CloseFn:  func(fd int) error { return files[fd].Close(7) },
			PreadFn:  func(fd int, b []byte, off int64) (int, error) { return files[fd].Read(b, off) },
			PwriteFn: func(fd int, b []byte, off int64) (int, error) { return files[fd].Write(b, off, 7) },
		}
	}},
	{"core.Preload", "/mnt/plfs/f", func(t *testing.T) posix.FS {
		mem := posix.NewMemFS()
		if err := mem.Mkdir("/backend", 0o755); err != nil {
			t.Fatal(err)
		}
		d := posix.NewDispatch(mem)
		if _, err := core.Preload(d, core.Config{Mounts: []core.Mount{{Point: "/mnt/plfs", Backend: "/backend"}}, Pid: 7}); err != nil {
			t.Fatal(err)
		}
		return d
	}},
	{"client.Conn", "/mnt/plfs/f", func(t *testing.T) posix.FS {
		c, err := client.Dial(startGateway(t), "gold")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c.FS()
	}},
}

// handleScript is a test body over one rig: two descriptors on one
// fresh file, plus helpers that fail the test on any short transfer.
type handleScript struct {
	t        *testing.T
	d        posix.FS
	path     string
	fd1, fd2 int
}

func newHandleScript(t *testing.T, rig handleRig) *handleScript {
	s := &handleScript{t: t, d: rig.new(t), path: rig.path}
	s.fd1 = s.open(posix.O_CREAT | posix.O_RDWR)
	s.fd2 = s.open(posix.O_RDWR)
	return s
}

func (s *handleScript) open(flags int) int {
	s.t.Helper()
	fd, err := s.d.Open(s.path, flags, 0o644)
	if err != nil {
		s.t.Fatal(err)
	}
	return fd
}

func (s *handleScript) pwrite(fd int, data string, off int64) {
	s.t.Helper()
	if n, err := s.d.Pwrite(fd, []byte(data), off); err != nil || n != len(data) {
		s.t.Fatalf("pwrite(%q, %d) = %d, %v", data, off, n, err)
	}
}

func (s *handleScript) pread(fd int, want string) {
	s.t.Helper()
	got := make([]byte, len(want)+4)
	n, err := s.d.Pread(fd, got, 0)
	if err != nil || string(got[:n]) != want {
		s.t.Fatalf("pread = %q, %v; want %q", got[:n], err, want)
	}
}

func (s *handleScript) close(fd int) {
	s.t.Helper()
	if err := s.d.Close(fd); err != nil {
		s.t.Fatal(err)
	}
}

// reopened checks the file's contents through a fresh descriptor.
func (s *handleScript) reopened(want string) {
	s.t.Helper()
	fd := s.open(posix.O_RDONLY)
	s.pread(fd, want)
	s.close(fd)
}

// TestTwoHandlesOneWriter: two descriptors of one process on one file
// append through one writer, so interleaved pwrites keep every byte. A
// cursor per handle would land the third write on the second's physical
// range, and the file would read back AAAACCCCCCCC.
func TestTwoHandlesOneWriter(t *testing.T) {
	for _, rig := range handleRigs {
		t.Run(rig.name, func(t *testing.T) {
			s := newHandleScript(t, rig)
			s.pwrite(s.fd1, "AAAA", 0)
			s.pwrite(s.fd2, "BBBB", 4)
			s.pwrite(s.fd1, "CCCC", 8)
			s.close(s.fd1)
			s.close(s.fd2)
			s.reopened("AAAABBBBCCCC")
		})
	}
}

// TestTwoHandlesReadYourWrites: a read through one descriptor sees what
// the process wrote through the other before any sync or close (ROMIO's
// data-sieving read-modify-write depends on it), and closing one
// descriptor leaves the other fully usable — its next write re-opens the
// shared writer at the dropping's end.
func TestTwoHandlesReadYourWrites(t *testing.T) {
	for _, rig := range handleRigs {
		t.Run(rig.name, func(t *testing.T) {
			s := newHandleScript(t, rig)
			s.pwrite(s.fd1, "AAAA", 0)
			s.pwrite(s.fd2, "BBBB", 4)
			s.pread(s.fd1, "AAAABBBB")
			s.pwrite(s.fd1, "CCCC", 8)
			s.close(s.fd1)
			s.pread(s.fd2, "AAAABBBBCCCC")
			s.pwrite(s.fd2, "DDDD", 12)
			s.close(s.fd2)
			s.reopened("AAAABBBBCCCCDDDD")
		})
	}
}
