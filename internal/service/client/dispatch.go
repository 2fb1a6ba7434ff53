package client

import (
	"sync"

	"ldplfs/internal/posix"
)

// Dispatch presents the connection as a process symbol table, so the
// bundled UNIX tools, the ufs ADIO driver (remote mode is
// mpiio.NewUFS(conn.Dispatch())) and anything else written against
// *posix.Dispatch run against a remote gateway. The wire carries
// open/pread/pwrite/sync/close, stat/fstat, path truncate and unlink;
// the rest is made up client-side where it can be and refused where it
// cannot:
//
//   - the file pointer (read, write, lseek, O_APPEND) is tracked here,
//     the way libc tracks it for a kernel that only really has
//     pread/pwrite underneath;
//   - ftruncate is a path truncate of the name the fd was opened under;
//   - access is a stat (existence only, no permission check);
//   - mkdir, rmdir, readdir and rename have no frame: ENOSYS.
func (c *Conn) Dispatch() *posix.Dispatch {
	fds := &fdTable{m: make(map[int]*openFD)}
	return &posix.Dispatch{
		OpenFn: func(path string, flags int, mode uint32) (int, error) {
			fd, err := c.Open(path, flags, mode)
			if err == nil {
				fds.add(fd, &openFD{path: path, flags: flags})
			}
			return fd, err
		},
		CloseFn: func(fd int) error {
			fds.drop(fd)
			return c.CloseFd(fd)
		},
		ReadFn: func(fd int, p []byte) (int, error) {
			h, ok := fds.get(fd)
			if !ok {
				return 0, posix.EBADF
			}
			n, err := c.Pread(fd, p, h.off)
			h.off += int64(n)
			return n, err
		},
		WriteFn: func(fd int, p []byte) (int, error) {
			h, ok := fds.get(fd)
			if !ok {
				return 0, posix.EBADF
			}
			if h.flags&posix.O_APPEND != 0 {
				st, err := c.Fstat(fd)
				if err != nil {
					return 0, err
				}
				h.off = st.Size
			}
			n, err := c.Pwrite(fd, p, h.off)
			h.off += int64(n)
			return n, err
		},
		PreadFn:  c.Pread,
		PwriteFn: c.Pwrite,
		LseekFn: func(fd int, offset int64, whence int) (int64, error) {
			h, ok := fds.get(fd)
			if !ok {
				return 0, posix.EBADF
			}
			var base int64
			switch whence {
			case posix.SEEK_SET:
				base = 0
			case posix.SEEK_CUR:
				base = h.off
			case posix.SEEK_END:
				st, err := c.Fstat(fd)
				if err != nil {
					return 0, err
				}
				base = st.Size
			default:
				return 0, posix.EINVAL
			}
			pos := base + offset
			if pos < 0 {
				return 0, posix.EINVAL
			}
			h.off = pos
			return pos, nil
		},
		FsyncFn: c.Sync,
		FtruncateFn: func(fd int, size int64) error {
			h, ok := fds.get(fd)
			if !ok {
				return posix.EBADF
			}
			return c.Truncate(h.path, size)
		},
		FstatFn:    c.Fstat,
		StatFn:     c.Stat,
		TruncateFn: c.Truncate,
		UnlinkFn:   c.Unlink,
		MkdirFn:    func(path string, mode uint32) error { return posix.ENOSYS },
		RmdirFn:    func(path string) error { return posix.ENOSYS },
		ReaddirFn:  func(path string) ([]posix.DirEntry, error) { return nil, posix.ENOSYS },
		RenameFn:   func(oldpath, newpath string) error { return posix.ENOSYS },
		AccessFn: func(path string, mode int) error {
			_, err := c.Stat(path)
			return err
		},
	}
}

// fdTable is the client's per-fd state: what the wire does not carry
// for an open descriptor. One goroutine per fd is the expected pattern
// (it is what the tools do); the table itself is safe for concurrent fds.
type fdTable struct {
	mu sync.Mutex
	m  map[int]*openFD
}

type openFD struct {
	path  string // the name it was opened under, for ftruncate
	flags int
	off   int64 // the sequential file pointer
}

func (t *fdTable) add(fd int, h *openFD) {
	t.mu.Lock()
	t.m[fd] = h
	t.mu.Unlock()
}

func (t *fdTable) drop(fd int) {
	t.mu.Lock()
	delete(t.m, fd)
	t.mu.Unlock()
}

func (t *fdTable) get(fd int) (*openFD, bool) {
	t.mu.Lock()
	h, ok := t.m[fd]
	t.mu.Unlock()
	return h, ok
}
