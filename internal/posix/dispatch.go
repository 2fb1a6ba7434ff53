package posix

// Dispatch is a dynamic symbol table: 18 function fields, one per FS
// method, that a shim rebinds to install itself — the in-process image
// of a dynamically linked binary calling open(2) through the PLT.
//
// Applications do not need one: the LDPLFS shim is itself an FS
// (core.New), composed over the system below it like any other, and
// tracing or accounting layers are hooks on Interpose. A Dispatch is
// built only where core.Preload binds a shim into one: the benchmark
// rig in cmd/plfsbench.
//
// A shim binding into a Dispatch captures the current entries first
// (the "real" symbols, what dlsym RTLD_NEXT would return) with Snapshot,
// and the shim's Unload puts them back with Restore.
//
// A Dispatch is configured at "load time" and must not be mutated while
// calls are in flight; this mirrors the loader, which resolves symbols
// before main runs.
type Dispatch struct {
	OpenFn      func(path string, flags int, mode uint32) (int, error)
	CloseFn     func(fd int) error
	ReadFn      func(fd int, p []byte) (int, error)
	WriteFn     func(fd int, p []byte) (int, error)
	PreadFn     func(fd int, p []byte, off int64) (int, error)
	PwriteFn    func(fd int, p []byte, off int64) (int, error)
	LseekFn     func(fd int, offset int64, whence int) (int64, error)
	FsyncFn     func(fd int) error
	FtruncateFn func(fd int, size int64) error
	FstatFn     func(fd int) (Stat, error)
	StatFn      func(path string) (Stat, error)
	TruncateFn  func(path string, size int64) error
	UnlinkFn    func(path string) error
	MkdirFn     func(path string, mode uint32) error
	RmdirFn     func(path string) error
	ReaddirFn   func(path string) ([]DirEntry, error)
	RenameFn    func(oldpath, newpath string) error
	AccessFn    func(path string, mode int) error
}

// NewDispatch returns a symbol table with every entry bound to fs — the
// state of a process before any preload library has been loaded.
func NewDispatch(fs FS) *Dispatch {
	return &Dispatch{
		OpenFn:      fs.Open,
		CloseFn:     fs.Close,
		ReadFn:      fs.Read,
		WriteFn:     fs.Write,
		PreadFn:     fs.Pread,
		PwriteFn:    fs.Pwrite,
		LseekFn:     fs.Lseek,
		FsyncFn:     fs.Fsync,
		FtruncateFn: fs.Ftruncate,
		FstatFn:     fs.Fstat,
		StatFn:      fs.Stat,
		TruncateFn:  fs.Truncate,
		UnlinkFn:    fs.Unlink,
		MkdirFn:     fs.Mkdir,
		RmdirFn:     fs.Rmdir,
		ReaddirFn:   fs.Readdir,
		RenameFn:    fs.Rename,
		AccessFn:    fs.Access,
	}
}

// Snapshot returns a copy of the current symbol bindings. A shim captures a
// snapshot before installing itself so it can chain to the previous
// implementations (the dlsym(RTLD_NEXT, ...) idiom).
func (d *Dispatch) Snapshot() Dispatch { return *d }

// Restore rebinds every symbol from a snapshot, unloading any shims
// installed since the snapshot was taken.
func (d *Dispatch) Restore(s Dispatch) { *d = s }

// Dispatch itself satisfies FS, so already-interposed tables can be treated
// as a backend (and even stacked).

// Open implements FS.
func (d *Dispatch) Open(path string, flags int, mode uint32) (int, error) {
	return d.OpenFn(path, flags, mode)
}

// Close implements FS.
func (d *Dispatch) Close(fd int) error { return d.CloseFn(fd) }

// Read implements FS.
func (d *Dispatch) Read(fd int, p []byte) (int, error) { return d.ReadFn(fd, p) }

// Write implements FS.
func (d *Dispatch) Write(fd int, p []byte) (int, error) { return d.WriteFn(fd, p) }

// Pread implements FS.
func (d *Dispatch) Pread(fd int, p []byte, off int64) (int, error) { return d.PreadFn(fd, p, off) }

// Pwrite implements FS.
func (d *Dispatch) Pwrite(fd int, p []byte, off int64) (int, error) { return d.PwriteFn(fd, p, off) }

// Lseek implements FS.
func (d *Dispatch) Lseek(fd int, offset int64, whence int) (int64, error) {
	return d.LseekFn(fd, offset, whence)
}

// Fsync implements FS.
func (d *Dispatch) Fsync(fd int) error { return d.FsyncFn(fd) }

// Ftruncate implements FS.
func (d *Dispatch) Ftruncate(fd int, size int64) error { return d.FtruncateFn(fd, size) }

// Fstat implements FS.
func (d *Dispatch) Fstat(fd int) (Stat, error) { return d.FstatFn(fd) }

// Stat implements FS.
func (d *Dispatch) Stat(path string) (Stat, error) { return d.StatFn(path) }

// Truncate implements FS.
func (d *Dispatch) Truncate(path string, size int64) error { return d.TruncateFn(path, size) }

// Unlink implements FS.
func (d *Dispatch) Unlink(path string) error { return d.UnlinkFn(path) }

// Mkdir implements FS.
func (d *Dispatch) Mkdir(path string, mode uint32) error { return d.MkdirFn(path, mode) }

// Rmdir implements FS.
func (d *Dispatch) Rmdir(path string) error { return d.RmdirFn(path) }

// Readdir implements FS.
func (d *Dispatch) Readdir(path string) ([]DirEntry, error) { return d.ReaddirFn(path) }

// Rename implements FS.
func (d *Dispatch) Rename(oldpath, newpath string) error { return d.RenameFn(oldpath, newpath) }

// Access implements FS.
func (d *Dispatch) Access(path string, mode int) error { return d.AccessFn(path, mode) }

var _ FS = (*Dispatch)(nil)
