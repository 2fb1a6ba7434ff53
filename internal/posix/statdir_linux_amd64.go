package posix

import (
	"errors"
	"os"
	"slices"
	"strings"
	"syscall"
	"unsafe"
)

// ReaddirStat implements StatDirFS: one directory read, then one
// fstatat(2) per entry against the open directory. The per-entry stat
// builds no path and allocates nothing, so the listing allocates what
// Readdir's does; the system calls are Readdir's plus one per entry.
func (o *OSFS) ReaddirStat(path string) ([]DirEntryStat, error) {
	d, err := os.Open(o.host(path))
	if err != nil {
		return nil, mapOSError(err)
	}
	defer d.Close()
	ents, err := d.ReadDir(-1)
	if err != nil {
		return nil, mapOSError(err)
	}
	dirfd := d.Fd()
	out := make([]DirEntryStat, 0, len(ents))
	for _, e := range ents {
		var st syscall.Stat_t
		if err := fstatat(dirfd, e.Name(), &st); err != nil {
			if errors.Is(err, syscall.ENOENT) {
				continue // gone since the listing
			}
			return nil, mapOSError(&os.PathError{Op: "fstatat", Path: e.Name(), Err: err})
		}
		out = append(out, DirEntryStat{Name: e.Name(), Stat: statFromSys(&st)})
	}
	slices.SortFunc(out, func(a, b DirEntryStat) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}

// fstatat stats name in the directory dirfd, following a final
// symlink as Stat does. The name is NUL-terminated in a stack buffer:
// a directory entry's name is at most NAME_MAX (255) bytes.
func fstatat(dirfd uintptr, name string, st *syscall.Stat_t) error {
	var buf [256]byte
	if len(name) >= len(buf) {
		return syscall.ENAMETOOLONG
	}
	copy(buf[:], name)
	_, _, e := syscall.Syscall6(syscall.SYS_NEWFSTATAT, dirfd,
		uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(st)), 0, 0, 0)
	if e != 0 {
		return e
	}
	return nil
}

// statFromSys converts a raw stat the way statFromInfo converts the
// os.FileInfo of the same file.
func statFromSys(st *syscall.Stat_t) Stat {
	s := Stat{Size: st.Size, Mtime: st.Mtim.Sec*1e9 + st.Mtim.Nsec, Nlink: 1, Mode: st.Mode & 0o777}
	if st.Mode&syscall.S_IFMT == syscall.S_IFDIR {
		s.Mode |= ModeDir
		s.Nlink = 2
	}
	return s
}
