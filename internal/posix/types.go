package posix

import "fmt"

// Open flags. Values mirror Linux so that traces read naturally; only the
// flags PLFS and the paper's tools require are defined.
const (
	O_RDONLY  = 0x0
	O_WRONLY  = 0x1
	O_RDWR    = 0x2
	O_ACCMODE = 0x3

	O_CREAT  = 0x40
	O_EXCL   = 0x80
	O_TRUNC  = 0x200
	O_APPEND = 0x400
)

// Whence values for Lseek.
const (
	SEEK_SET = 0
	SEEK_CUR = 1
	SEEK_END = 2
)

// Access modes for Access.
const (
	F_OK = 0
	R_OK = 4
	W_OK = 2
	X_OK = 1
)

// Errno is a POSIX-style error number. The zero value is "no error" and is
// never returned as an error.
type Errno int

// Error numbers used by the backends. Values match Linux for familiarity.
const (
	EPERM     Errno = 1
	ENOENT    Errno = 2
	EIO       Errno = 5
	EBADF     Errno = 9
	EACCES    Errno = 13
	EEXIST    Errno = 17
	ENOTDIR   Errno = 20
	EXDEV     Errno = 18
	EISDIR    Errno = 21
	EINVAL    Errno = 22
	EMFILE    Errno = 24
	ENOSPC    Errno = 28
	ESPIPE    Errno = 29
	ENOSYS    Errno = 38
	ENOTEMPTY Errno = 39
	EOVERFLOW Errno = 75
)

var errnoNames = map[Errno]string{
	EPERM:     "EPERM: operation not permitted",
	ENOENT:    "ENOENT: no such file or directory",
	EIO:       "EIO: input/output error",
	EBADF:     "EBADF: bad file descriptor",
	EACCES:    "EACCES: permission denied",
	EEXIST:    "EEXIST: file exists",
	EXDEV:     "EXDEV: invalid cross-device link",
	ENOTDIR:   "ENOTDIR: not a directory",
	EISDIR:    "EISDIR: is a directory",
	EINVAL:    "EINVAL: invalid argument",
	EMFILE:    "EMFILE: too many open files",
	ENOSPC:    "ENOSPC: no space left on device",
	ESPIPE:    "ESPIPE: illegal seek",
	ENOSYS:    "ENOSYS: function not implemented",
	ENOTEMPTY: "ENOTEMPTY: directory not empty",
	EOVERFLOW: "EOVERFLOW: value too large",
}

func (e Errno) Error() string {
	if s, ok := errnoNames[e]; ok {
		return s
	}
	return fmt.Sprintf("errno %d", int(e))
}

// Is reports whether target is the same Errno, letting errors.Is work across
// wrapped errors.
func (e Errno) Is(target error) bool {
	t, ok := target.(Errno)
	return ok && t == e
}

// Mode bits. Only the file-type distinction and permission bits matter to
// this layer.
const (
	ModeDir  uint32 = 0o40000
	ModePerm uint32 = 0o7777
)

// Stat describes a file, directory, or PLFS container as seen through a
// backend.
type Stat struct {
	Size  int64  // logical size in bytes
	Mode  uint32 // ModeDir for directories, plus permission bits
	Nlink int    // link count (1 for files, 2+ for directories)
	Ino   uint64 // backend-unique identity
	Mtime int64  // modification time, nanoseconds (logical time for MemFS)
	Atime int64  // access time, nanoseconds
	Ctime int64  // change time, nanoseconds
}

// IsDir reports whether the stat describes a directory.
func (s Stat) IsDir() bool { return s.Mode&ModeDir != 0 }

// DirEntry is a single directory entry returned by Readdir.
type DirEntry struct {
	Name  string
	IsDir bool
}

// FS is the POSIX-like interface every backend implements. File descriptors
// are small non-negative integers scoped to the FS instance. All methods
// are safe for concurrent use.
//
// Concurrent positional-I/O contract: Pread and Pwrite take explicit
// offsets and MUST be safe to issue concurrently on the same descriptor
// — they carry no file-pointer state, exactly like pread(2)/pwrite(2).
// The PLFS read engine relies on this to scatter-gather one logical read
// across many goroutines sharing cached descriptors, and the write
// engine relies on it to fan one vectored write's segments out across
// disjoint, pre-reserved ranges of a data dropping (which is also why
// droppings are written at explicit offsets rather than under O_APPEND —
// pwrite(2) on an O_APPEND descriptor ignores its offset on Linux).
// Pwrite past EOF MUST extend the file, zero-filling any gap. MemFS
// satisfies all of this by serializing internally; OSFS delegates to the
// kernel's positional I/O, which is concurrent by specification.
// Read/Write/Lseek, by contrast, share the descriptor's file pointer:
// concurrent use on one fd races benignly (some interleaving wins) but
// is not coordinated.
//
// Backends may additionally implement the optional VectorFS capability
// (Preadv/Pwritev): one contiguous range moved against a buffer list in
// a single operation. Callers batch through the package helpers Preadv
// and Pwritev, which fall back to a scalar loop, so the capability is
// purely a syscall-count optimisation — the bytes are identical either
// way.
//
// Beside it sits the optional StatDirFS capability (ReaddirStat): a
// directory's entries with their sizes, mtimes and modes in one
// operation, the readdirplus shape. Callers list through the package
// helper ReaddirStat, which falls back to Readdir plus one Stat per
// entry, so it too changes only the operation count. MemFS answers
// under one lock, StripedFS with one concurrent listing per backend,
// and an Interposer forwards it as one op. OSFS answers with a
// directory read plus one fstatat(2) per entry: one op at this layer,
// but its system calls do not drop.
type FS interface {
	// Open opens path, honouring O_CREAT, O_EXCL, O_TRUNC, O_APPEND and the
	// access mode, and returns a new file descriptor.
	Open(path string, flags int, mode uint32) (int, error)
	// Close releases fd.
	Close(fd int) error
	// Read reads from the current offset, advancing it.
	Read(fd int, p []byte) (int, error)
	// Write writes at the current offset (or EOF under O_APPEND), advancing it.
	Write(fd int, p []byte) (int, error)
	// Pread reads at an explicit offset without moving the file pointer.
	Pread(fd int, p []byte, off int64) (int, error)
	// Pwrite writes at an explicit offset without moving the file pointer.
	Pwrite(fd int, p []byte, off int64) (int, error)
	// Lseek repositions the file pointer and returns the new offset.
	Lseek(fd int, offset int64, whence int) (int64, error)
	// Fsync flushes fd's data to the backing store.
	Fsync(fd int) error
	// Ftruncate sets the file length.
	Ftruncate(fd int, size int64) error
	// Fstat describes an open file.
	Fstat(fd int) (Stat, error)
	// Stat describes a path.
	Stat(path string) (Stat, error)
	// Truncate sets the length of the file at path.
	Truncate(path string, size int64) error
	// Unlink removes a file.
	Unlink(path string) error
	// Mkdir creates a directory.
	Mkdir(path string, mode uint32) error
	// Rmdir removes an empty directory.
	Rmdir(path string) error
	// Readdir lists a directory in name order.
	Readdir(path string) ([]DirEntry, error)
	// Rename atomically moves oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Access checks whether path exists (and, loosely, is accessible).
	Access(path string, mode int) error
}

// ReadFull reads exactly len(p) bytes at off via Pread, or fails.
func ReadFull(fs FS, fd int, p []byte, off int64) error {
	got := 0
	for got < len(p) {
		n, err := fs.Pread(fd, p[got:], off+int64(got))
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("short read: want %d got %d", len(p), got)
		}
		got += n
	}
	return nil
}

// WriteFull writes all of p at off via Pwrite and returns how many
// bytes reached the file: the durable prefix, even on error. A Pwrite
// that makes no progress without an error fails the call rather than
// being retried forever.
func WriteFull(fs FS, fd int, p []byte, off int64) (int, error) {
	put := 0
	for put < len(p) {
		n, err := fs.Pwrite(fd, p[put:], off+int64(put))
		if n > 0 {
			put += n
		}
		if err != nil {
			return put, err
		}
		if n <= 0 {
			return put, fmt.Errorf("pwrite returned %d", n)
		}
	}
	return put, nil
}
