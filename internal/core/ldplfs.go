// Package core implements LDPLFS — the paper's contribution: a dynamically
// loadable shim that interposes the POSIX file API and retargets
// operations on paths under a PLFS mount point to the PLFS library,
// without modifying the application, the MPI stack, or the system
// environment.
//
// The mechanics mirror the paper's Section III-A exactly:
//
//   - New builds the shim as a posix.FS over the system it is given:
//     the previous bindings, what dlsym(RTLD_NEXT, "open") returns to a
//     shim. A tracer below it, or another shim, is just another
//     posix.FS underneath, and the shim composes under interposers
//     (posix.Interpose) like any other FS. Preload binds one into a
//     posix.Dispatch symbol table for callers that still hold one.
//   - When an application opens a file under a configured mount point, the
//     shim calls plfs_open and ALSO opens a shadow POSIX file (the paper
//     uses /dev/random) so the application receives a genuine file
//     descriptor. The descriptor is stored in a lookup table mapping
//     fd -> Plfs_fd.
//   - Because the PLFS API wants explicit offsets while POSIX fds carry an
//     implicit file pointer, the current offset is maintained by lseek()
//     calls on the shadow descriptor: established with
//     lseek(fd, 0, SEEK_CUR) before each PLFS call and advanced with
//     lseek(fd, off+n, SEEK_SET) after it.
//   - Operations on descriptors or paths with no lookup entry fall through
//     to the system below untouched.
//
// Every open() gets its own table entry and its own Plfs_fd, so a process
// may hold several descriptors on one file. The table allows it and PLFS
// makes it safe: all of them share the process's one writer on that
// container (see "Handles" in internal/plfs), so their writes append to
// one dropping in order and each sees what the others wrote.
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// Mount maps a mount point visible to the application onto a backend
// directory where PLFS containers physically live (in real PLFS this is
// the plfsrc mount_point/backends pair).
type Mount struct {
	Point   string // application-visible prefix, e.g. "/mnt/plfs"
	Backend string // backing directory, e.g. "/lustre/plfs-store"
}

// NewMount returns the mount of backend at point with both prefixes
// cleaned — rooted, no trailing slash — the form Resolve matches against.
func NewMount(point, backend string) Mount {
	return Mount{Point: cleanPrefix(point), Backend: cleanPrefix(backend)}
}

// Resolve translates path to its backend location if it falls under the
// mount point — the one prefix rewrite behind the shim, the FUSE
// emulation, the ROMIO driver and the gateway. ok reports whether the
// path is PLFS-managed.
func (m Mount) Resolve(path string) (backend string, ok bool) {
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	if rest, under := strings.CutPrefix(path, m.Point); under && (rest == "" || rest[0] == '/') {
		return m.Backend + rest, true
	}
	return "", false
}

// Config configures a shim.
type Config struct {
	Mounts []Mount
	// Pid identifies this "process" to PLFS (selects droppings); the paper
	// passes getpid(). MPI ranks use their rank id.
	Pid uint32
	// Plfs supplies the PLFS library instance: built by the caller over
	// the store it composed, and shared when several ranks in one
	// simulated node share state. Nil means a default instance over the
	// system the shim wraps.
	Plfs *plfs.FS
}

// shadowPath is the file opened to obtain shadow descriptors — the
// paper uses /dev/random — created on demand on the underlying FS.
const shadowPath = "/.ldplfs.shadow"

// Stats counts shim activity; exercised by tests and the overhead benches.
type Stats struct {
	Interposed  atomic.Int64 // calls retargeted to PLFS
	PassedThru  atomic.Int64 // calls forwarded to the real symbols
	ShadowSeeks atomic.Int64 // lseek bookkeeping calls on shadow fds
}

// LDPLFS is a loaded instance of the shim, a posix.FS. One instance
// corresponds to one process having LD_PRELOAD=libldplfs.so in its
// environment.
type LDPLFS struct {
	real   posix.FS // the system below: previous bindings (RTLD_NEXT)
	plfs   *plfs.FS
	cfg    Config
	unbind func() // set by Preload: restores the table it rebound

	// mu guards files. Lookups (the hot path of every read/write) take
	// it shared, so concurrent preads and pwrites through the shim reach
	// the PLFS read and write engines in parallel instead of serializing
	// here — the table mutates only at open/close.
	mu    sync.RWMutex
	files map[int]*openFile // the paper's fd -> Plfs_fd lookup table

	Stats Stats
}

type openFile struct {
	file  *plfs.File
	flags int
	pid   uint32
}

// New loads the shim over system: calls on paths under cfg's mounts
// (and on the descriptors they open) are retargeted to PLFS, and every
// other call falls through to system untouched.
func New(system posix.FS, cfg Config) (*LDPLFS, error) {
	if len(cfg.Mounts) == 0 {
		return nil, errors.New("ldplfs: no mount points configured (set PLFS_MNT)")
	}
	mounts := make([]Mount, len(cfg.Mounts))
	for i, m := range cfg.Mounts {
		mounts[i] = NewMount(m.Point, m.Backend)
		if mounts[i].Point == "" || mounts[i].Backend == "" {
			return nil, fmt.Errorf("ldplfs: invalid mount %+v", m)
		}
	}
	cfg.Mounts = mounts
	l := &LDPLFS{
		real:  system,
		cfg:   cfg,
		files: make(map[int]*openFile),
	}
	if cfg.Plfs != nil {
		l.plfs = cfg.Plfs
	} else {
		l.plfs = plfs.New(system)
	}
	// Ensure the shadow file exists (the analogue of /dev/random: any
	// always-openable file works; we only need its descriptors).
	fd, err := l.real.Open(shadowPath, posix.O_CREAT|posix.O_RDWR, 0o600)
	if err != nil {
		return nil, fmt.Errorf("ldplfs: create shadow file: %w", err)
	}
	l.real.Close(fd)
	return l, nil
}

// Preload installs the shim into the process symbol table d: it loads
// New over a snapshot of d's current bindings, so previously loaded
// shims keep working underneath, and binds every entry of d to it.
// Unload restores the snapshot.
func Preload(d *posix.Dispatch, cfg Config) (*LDPLFS, error) {
	prev := d.Snapshot()
	l, err := New(&prev, cfg)
	if err != nil {
		return nil, err
	}
	d.Restore(*posix.NewDispatch(l))
	l.unbind = func() { d.Restore(prev) }
	return l, nil
}

// Unload closes any PLFS state still held by the lookup table (process
// exit) and, for a Preload, restores the previous symbol bindings.
func (l *LDPLFS) Unload() {
	if l.unbind != nil {
		l.unbind()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for fd, of := range l.files {
		of.file.Close(of.pid)
		l.real.Close(fd)
		delete(l.files, fd)
	}
}

// Plfs exposes the underlying PLFS library instance (tools use it).
func (l *LDPLFS) Plfs() *plfs.FS { return l.plfs }

func cleanPrefix(p string) string {
	p = strings.TrimRight(p, "/")
	if p == "" {
		return ""
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return p
}

// Resolve translates path to its backend location under the first mount
// that covers it. ok reports whether the path is PLFS-managed.
func (l *LDPLFS) Resolve(path string) (backend string, ok bool) {
	for _, m := range l.cfg.Mounts {
		if backend, ok = m.Resolve(path); ok {
			return backend, true
		}
	}
	return "", false
}

func (l *LDPLFS) lookup(fd int) (*openFile, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	of, ok := l.files[fd]
	return of, ok
}

// --- interposed symbols: posix.FS -----------------------------------------

// Open implements posix.FS.
func (l *LDPLFS) Open(path string, flags int, mode uint32) (int, error) {
	bpath, ok := l.Resolve(path)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Open(path, flags, mode)
	}
	l.Stats.Interposed.Add(1)

	// Directories under the mount (including the mount root) stay POSIX:
	// opendir et al. must keep working.
	if st, err := l.real.Stat(bpath); err == nil && st.IsDir() && !l.plfs.IsContainer(bpath) {
		return l.real.Open(bpath, flags, mode)
	}

	pf, err := l.plfs.Open(bpath, flags, l.cfg.Pid, mode)
	if err != nil {
		return -1, err
	}
	// Obtain a genuine descriptor for the application by opening the
	// shadow file — the paper's /dev/random trick.
	fd, err := l.real.Open(shadowPath, posix.O_RDONLY, 0)
	if err != nil {
		pf.Close(l.cfg.Pid)
		return -1, fmt.Errorf("ldplfs: open shadow fd: %w", err)
	}
	l.mu.Lock()
	l.files[fd] = &openFile{file: pf, flags: flags, pid: l.cfg.Pid}
	l.mu.Unlock()
	return fd, nil
}

// Close implements posix.FS.
func (l *LDPLFS) Close(fd int) error {
	of, ok := l.lookup(fd)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Close(fd)
	}
	l.Stats.Interposed.Add(1)
	l.mu.Lock()
	delete(l.files, fd)
	l.mu.Unlock()
	if err := of.file.Close(of.pid); err != nil {
		l.real.Close(fd)
		return err
	}
	return l.real.Close(fd)
}

// offset reads the current file pointer off the shadow descriptor.
func (l *LDPLFS) offset(fd int) (int64, error) {
	l.Stats.ShadowSeeks.Add(1)
	return l.real.Lseek(fd, 0, posix.SEEK_CUR)
}

// advance moves the shadow file pointer after a PLFS transfer.
func (l *LDPLFS) advance(fd int, pos int64) error {
	l.Stats.ShadowSeeks.Add(1)
	_, err := l.real.Lseek(fd, pos, posix.SEEK_SET)
	return err
}

// Read implements posix.FS.
func (l *LDPLFS) Read(fd int, p []byte) (int, error) {
	of, ok := l.lookup(fd)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Read(fd, p)
	}
	l.Stats.Interposed.Add(1)
	off, err := l.offset(fd)
	if err != nil {
		return 0, err
	}
	n, err := of.file.Read(p, off)
	if err != nil {
		return n, err
	}
	if err := l.advance(fd, off+int64(n)); err != nil {
		return n, err
	}
	return n, nil
}

// Write implements posix.FS.
func (l *LDPLFS) Write(fd int, p []byte) (int, error) {
	of, ok := l.lookup(fd)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Write(fd, p)
	}
	l.Stats.Interposed.Add(1)
	var off int64
	var err error
	if of.flags&posix.O_APPEND != 0 {
		if off, err = of.file.Size(); err != nil {
			return 0, err
		}
	} else if off, err = l.offset(fd); err != nil {
		return 0, err
	}
	n, err := of.file.Write(p, off, of.pid)
	if err != nil {
		return n, err
	}
	if err := l.advance(fd, off+int64(n)); err != nil {
		return n, err
	}
	return n, nil
}

// Pread is the shim's read fast path: no shadow-offset bookkeeping, one
// shared-lock table lookup, then straight into plfs.File.Read — whose
// scatter-gather runs concurrently with every other reader of the
// container (the File serializes only writers).
func (l *LDPLFS) Pread(fd int, p []byte, off int64) (int, error) {
	of, ok := l.lookup(fd)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Pread(fd, p, off)
	}
	l.Stats.Interposed.Add(1)
	return of.file.Read(p, off)
}

// Pwrite is the shim's write fast path, the twin of Pread: no
// shadow-offset bookkeeping, one shared-lock table lookup, then straight
// into plfs.File.Write — which serializes only against same-pid writes,
// so concurrent pwrites through the shim stream their droppings in
// parallel (the File takes its container's lock shared).
func (l *LDPLFS) Pwrite(fd int, p []byte, off int64) (int, error) {
	of, ok := l.lookup(fd)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Pwrite(fd, p, off)
	}
	l.Stats.Interposed.Add(1)
	return of.file.Write(p, off, of.pid)
}

// Lseek implements posix.FS.
func (l *LDPLFS) Lseek(fd int, offset int64, whence int) (int64, error) {
	of, ok := l.lookup(fd)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Lseek(fd, offset, whence)
	}
	l.Stats.Interposed.Add(1)
	// SEEK_SET and SEEK_CUR ride directly on the shadow descriptor, which
	// is the whole point of keeping it. SEEK_END needs the logical size
	// from PLFS first.
	if whence == posix.SEEK_END {
		size, err := of.file.Size()
		if err != nil {
			return 0, err
		}
		pos := size + offset
		if pos < 0 {
			return 0, posix.EINVAL
		}
		l.Stats.ShadowSeeks.Add(1)
		return l.real.Lseek(fd, pos, posix.SEEK_SET)
	}
	l.Stats.ShadowSeeks.Add(1)
	return l.real.Lseek(fd, offset, whence)
}

// Fsync implements posix.FS.
func (l *LDPLFS) Fsync(fd int) error {
	of, ok := l.lookup(fd)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Fsync(fd)
	}
	l.Stats.Interposed.Add(1)
	return of.file.Sync(of.pid)
}

// Ftruncate implements posix.FS.
func (l *LDPLFS) Ftruncate(fd int, size int64) error {
	of, ok := l.lookup(fd)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Ftruncate(fd, size)
	}
	l.Stats.Interposed.Add(1)
	return of.file.Trunc(size)
}

// Fstat implements posix.FS.
func (l *LDPLFS) Fstat(fd int) (posix.Stat, error) {
	of, ok := l.lookup(fd)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Fstat(fd)
	}
	l.Stats.Interposed.Add(1)
	size, err := of.file.Size()
	if err != nil {
		return posix.Stat{}, err
	}
	return posix.Stat{Size: size, Mode: 0o644, Nlink: 1}, nil
}

// Stat implements posix.FS.
func (l *LDPLFS) Stat(path string) (posix.Stat, error) {
	bpath, ok := l.Resolve(path)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Stat(path)
	}
	l.Stats.Interposed.Add(1)
	if l.plfs.IsContainer(bpath) {
		return l.plfs.Stat(bpath)
	}
	return l.real.Stat(bpath)
}

// Truncate implements posix.FS.
func (l *LDPLFS) Truncate(path string, size int64) error {
	bpath, ok := l.Resolve(path)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Truncate(path, size)
	}
	l.Stats.Interposed.Add(1)
	if l.plfs.IsContainer(bpath) {
		return l.plfs.Truncate(bpath, size)
	}
	return l.real.Truncate(bpath, size)
}

// Unlink implements posix.FS.
func (l *LDPLFS) Unlink(path string) error {
	bpath, ok := l.Resolve(path)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Unlink(path)
	}
	l.Stats.Interposed.Add(1)
	if l.plfs.IsContainer(bpath) {
		return l.plfs.Unlink(bpath)
	}
	return l.real.Unlink(bpath)
}

// Mkdir implements posix.FS.
func (l *LDPLFS) Mkdir(path string, mode uint32) error {
	bpath, ok := l.Resolve(path)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Mkdir(path, mode)
	}
	l.Stats.Interposed.Add(1)
	return l.real.Mkdir(bpath, mode)
}

// Rmdir implements posix.FS.
func (l *LDPLFS) Rmdir(path string) error {
	bpath, ok := l.Resolve(path)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Rmdir(path)
	}
	l.Stats.Interposed.Add(1)
	if l.plfs.IsContainer(bpath) {
		// Containers present as files; rmdir on a file is ENOTDIR.
		return posix.ENOTDIR
	}
	return l.real.Rmdir(bpath)
}

// Readdir implements posix.FS.
func (l *LDPLFS) Readdir(path string) ([]posix.DirEntry, error) {
	bpath, ok := l.Resolve(path)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Readdir(path)
	}
	l.Stats.Interposed.Add(1)
	entries, err := l.real.Readdir(bpath)
	if err != nil {
		return nil, err
	}
	// Containers appear as single files — the transparency FUSE provides,
	// recreated at the readdir level. The shadow file stays hidden.
	out := entries[:0]
	for _, e := range entries {
		if e.IsDir && l.plfs.IsContainer(bpath+"/"+e.Name) {
			e.IsDir = false
		}
		out = append(out, e)
	}
	return out, nil
}

// Rename implements posix.FS.
func (l *LDPLFS) Rename(oldpath, newpath string) error {
	bold, ok1 := l.Resolve(oldpath)
	bnew, ok2 := l.Resolve(newpath)
	switch {
	case !ok1 && !ok2:
		l.Stats.PassedThru.Add(1)
		return l.real.Rename(oldpath, newpath)
	case ok1 != ok2:
		// Cross-device rename between PLFS and non-PLFS space: EXDEV, on
		// which the paper's tools fall back to copy.
		return posix.EXDEV
	}
	l.Stats.Interposed.Add(1)
	if l.plfs.IsContainer(bold) {
		return l.plfs.Rename(bold, bnew)
	}
	return l.real.Rename(bold, bnew)
}

// Access implements posix.FS.
func (l *LDPLFS) Access(path string, mode int) error {
	bpath, ok := l.Resolve(path)
	if !ok {
		l.Stats.PassedThru.Add(1)
		return l.real.Access(path, mode)
	}
	l.Stats.Interposed.Add(1)
	return l.real.Access(bpath, mode)
}

var _ posix.FS = (*LDPLFS)(nil)
