package posix

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	gopath "path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"ldplfs/internal/iostats"
)

// OSFS exposes a directory of the real operating-system file system through
// the FS interface. Paths are interpreted relative to the root directory
// passed to NewOSFS, chroot-style, so experiments cannot escape their
// scratch area.
type OSFS struct {
	root string

	mu     sync.Mutex
	fds    map[int]*osFD
	nextFD int
}

type osFD struct {
	f     *os.File
	flags int
}

// NewOSFS returns an FS rooted at dir, which must exist.
func NewOSFS(dir string) (*OSFS, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(abs)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, ENOTDIR
	}
	return &OSFS{root: abs, fds: make(map[int]*osFD), nextFD: 3}, nil
}

// Root returns the host directory backing this FS.
func (o *OSFS) Root() string { return o.root }

// NewStripedRoots composes the canonical backend with OSFS shadow
// backends opened from a comma-separated list of host directories, under
// a named placement layout ("" or "mod-n" for classic striping,
// "replica-R" for R-way replicated droppings). It is the parser behind
// the CLIs' -backends and -layout flags, shared so every tool interprets
// a backend list identically (the list is part of a striped container's
// identity). The composite's replica counters register on stats (nil
// keeps them standalone). An empty spec returns canonical unchanged; a
// replica layout then has nowhere to put a second copy and is refused,
// as is a spec with an empty entry.
func NewStripedRoots(canonical FS, shadowSpec, layoutDesc string, stats *iostats.Plane) (FS, error) {
	if shadowSpec == "" {
		if _, err := LayoutFor(layoutDesc, 1); err != nil {
			return nil, err
		}
		return canonical, nil
	}
	all := []FS{canonical}
	for _, dir := range strings.Split(shadowSpec, ",") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			// NewOSFS("") would root a backend at the working directory.
			return nil, fmt.Errorf("shadow backends %q: empty entry", shadowSpec)
		}
		shadow, err := NewOSFS(dir)
		if err != nil {
			return nil, fmt.Errorf("shadow backend %s: %w", dir, err)
		}
		all = append(all, shadow)
	}
	layout, err := LayoutFor(layoutDesc, len(all))
	if err != nil {
		return nil, err
	}
	return NewLayoutFS(layout, stats, all...), nil
}

func (o *OSFS) host(path string) string {
	return filepath.Join(o.root, filepath.FromSlash(gopath.Clean("/"+path)))
}

func mapOSError(err error) error {
	if err == nil {
		return nil
	}
	// Specific conditions first: Go's syscall.Errno matches ENOTEMPTY
	// against fs.ErrExist, so the generic classes must come second.
	var pe *os.PathError
	if errors.As(err, &pe) {
		switch pe.Err.Error() {
		case "not a directory":
			return ENOTDIR
		case "is a directory":
			return EISDIR
		case "directory not empty":
			return ENOTEMPTY
		}
	}
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return ENOENT
	case errors.Is(err, fs.ErrExist):
		return EEXIST
	case errors.Is(err, fs.ErrPermission):
		return EACCES
	case errors.Is(err, syscall.EMFILE):
		// Recoverable, and the read-fd cache recovers from it by giving
		// descriptors back — which it can only do if it can tell.
		return EMFILE
	}
	return err
}

// Open implements FS.
func (o *OSFS) Open(path string, flags int, mode uint32) (int, error) {
	osFlags := 0
	switch flags & O_ACCMODE {
	case O_RDONLY:
		osFlags = os.O_RDONLY
	case O_WRONLY:
		osFlags = os.O_WRONLY
	case O_RDWR:
		osFlags = os.O_RDWR
	}
	if flags&O_CREAT != 0 {
		osFlags |= os.O_CREATE
	}
	if flags&O_EXCL != 0 {
		osFlags |= os.O_EXCL
	}
	if flags&O_TRUNC != 0 {
		osFlags |= os.O_TRUNC
	}
	if flags&O_APPEND != 0 {
		osFlags |= os.O_APPEND
	}
	f, err := os.OpenFile(o.host(path), osFlags, os.FileMode(mode&ModePerm))
	if err != nil {
		return -1, mapOSError(err)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	fd := o.nextFD
	o.nextFD++
	o.fds[fd] = &osFD{f: f, flags: flags}
	return fd, nil
}

// emptyIO answers a zero-length transfer, which os.File returns from
// without asking the kernel: with the access-mode check Linux makes
// before it looks at the length.
func (h *osFD) emptyIO(write bool) error {
	if mode := h.flags & O_ACCMODE; write && mode == O_RDONLY || !write && mode == O_WRONLY {
		return EBADF
	}
	return nil
}

func (o *OSFS) fd(fd int) (*osFD, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.fds[fd]
	if !ok {
		return nil, EBADF
	}
	return h, nil
}

// Close implements FS.
func (o *OSFS) Close(fd int) error {
	o.mu.Lock()
	h, ok := o.fds[fd]
	if ok {
		delete(o.fds, fd)
	}
	o.mu.Unlock()
	if !ok {
		return EBADF
	}
	return mapOSError(h.f.Close())
}

// Read implements FS.
func (o *OSFS) Read(fd int, p []byte) (int, error) {
	h, err := o.fd(fd)
	if err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, h.emptyIO(false)
	}
	n, rerr := h.f.Read(p)
	if rerr == io.EOF {
		rerr = nil
	}
	return n, mapOSError(rerr)
}

// Write implements FS.
func (o *OSFS) Write(fd int, p []byte) (int, error) {
	h, err := o.fd(fd)
	if err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, h.emptyIO(true)
	}
	n, werr := h.f.Write(p)
	return n, mapOSError(werr)
}

// Pread implements FS. os.File.ReadAt maps to pread(2), which is safe
// and genuinely parallel across goroutines sharing one descriptor — the
// backend the read engine's concurrency actually pays off on.
func (o *OSFS) Pread(fd int, p []byte, off int64) (int, error) {
	h, err := o.fd(fd)
	if err != nil {
		return 0, err
	}
	if len(p) == 0 && off >= 0 {
		return 0, h.emptyIO(false)
	}
	n, rerr := h.f.ReadAt(p, off)
	if rerr == io.EOF {
		rerr = nil
	}
	return n, mapOSError(rerr)
}

// Pwrite implements FS.
func (o *OSFS) Pwrite(fd int, p []byte, off int64) (int, error) {
	h, err := o.fd(fd)
	if err != nil {
		return 0, err
	}
	if len(p) == 0 && off >= 0 {
		return 0, h.emptyIO(true)
	}
	n, werr := h.f.WriteAt(p, off)
	return n, mapOSError(werr)
}

// Lseek implements FS.
func (o *OSFS) Lseek(fd int, offset int64, whence int) (int64, error) {
	h, err := o.fd(fd)
	if err != nil {
		return 0, err
	}
	pos, serr := h.f.Seek(offset, whence)
	return pos, mapOSError(serr)
}

// Fsync implements FS.
func (o *OSFS) Fsync(fd int) error {
	h, err := o.fd(fd)
	if err != nil {
		return err
	}
	return mapOSError(h.f.Sync())
}

// Ftruncate implements FS.
func (o *OSFS) Ftruncate(fd int, size int64) error {
	h, err := o.fd(fd)
	if err != nil {
		return err
	}
	return mapOSError(h.f.Truncate(size))
}

func statFromInfo(info os.FileInfo) Stat {
	s := Stat{Size: info.Size(), Mtime: info.ModTime().UnixNano(), Nlink: 1}
	if info.IsDir() {
		s.Mode = ModeDir | uint32(info.Mode().Perm())
		s.Nlink = 2
	} else {
		s.Mode = uint32(info.Mode().Perm())
	}
	return s
}

// Fstat implements FS.
func (o *OSFS) Fstat(fd int) (Stat, error) {
	h, err := o.fd(fd)
	if err != nil {
		return Stat{}, err
	}
	info, serr := h.f.Stat()
	if serr != nil {
		return Stat{}, mapOSError(serr)
	}
	return statFromInfo(info), nil
}

// Stat implements FS.
func (o *OSFS) Stat(path string) (Stat, error) {
	info, err := os.Stat(o.host(path))
	if err != nil {
		return Stat{}, mapOSError(err)
	}
	return statFromInfo(info), nil
}

// Truncate implements FS.
func (o *OSFS) Truncate(path string, size int64) error {
	return mapOSError(os.Truncate(o.host(path), size))
}

// Unlink implements FS.
func (o *OSFS) Unlink(path string) error {
	info, err := os.Stat(o.host(path))
	if err != nil {
		return mapOSError(err)
	}
	if info.IsDir() {
		return EISDIR
	}
	return mapOSError(os.Remove(o.host(path)))
}

// Mkdir implements FS.
func (o *OSFS) Mkdir(path string, mode uint32) error {
	return mapOSError(os.Mkdir(o.host(path), os.FileMode(mode&ModePerm)))
}

// Rmdir implements FS.
func (o *OSFS) Rmdir(path string) error {
	info, err := os.Stat(o.host(path))
	if err != nil {
		return mapOSError(err)
	}
	if !info.IsDir() {
		return ENOTDIR
	}
	return mapOSError(os.Remove(o.host(path)))
}

// Readdir implements FS.
func (o *OSFS) Readdir(path string) ([]DirEntry, error) {
	entries, err := os.ReadDir(o.host(path))
	if err != nil {
		return nil, mapOSError(err)
	}
	out := make([]DirEntry, 0, len(entries))
	for _, e := range entries {
		out = append(out, DirEntry{Name: e.Name(), IsDir: e.IsDir()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Rename implements FS.
func (o *OSFS) Rename(oldpath, newpath string) error {
	return mapOSError(os.Rename(o.host(oldpath), o.host(newpath)))
}

// Access implements FS.
func (o *OSFS) Access(path string, mode int) error {
	_, err := os.Stat(o.host(path))
	return mapOSError(err)
}

var _ FS = (*OSFS)(nil)
var _ StatDirFS = (*OSFS)(nil)
