package posix

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestZeroLengthIOChecksModeFirst: a zero-length read through a
// write-only descriptor, or write through a read-only one, fails with
// EBADF on Linux — the kernel checks the access mode before the length
// — and MemFS and OSFS answer as a raw pread/pwrite on the same file
// does, through Read, Write, Pread and Pwrite alike.
func TestZeroLengthIOChecksModeFirst(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	osfs, err := NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemFS()
	if _, err := WriteFull(mem, mustOpen(t, mem, "/f", O_CREAT|O_WRONLY), []byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	empty := []byte{}
	for _, mode := range []int{O_RDONLY, O_WRONLY, O_RDWR} {
		raw, err := syscall.Open(filepath.Join(dir, "f"), mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer syscall.Close(raw)
		_, rerr := syscall.Pread(raw, empty, 0)
		_, werr := syscall.Pwrite(raw, empty, 0)
		want := map[string]error{"read": rerr, "write": werr}
		for _, fs := range []struct {
			name string
			fs   FS
		}{{"memfs", mem}, {"osfs", osfs}} {
			fd := mustOpen(t, fs.fs, "/f", mode)
			got := map[string][2]error{}
			_, e1 := fs.fs.Read(fd, empty)
			_, e2 := fs.fs.Pread(fd, empty, 0)
			got["read"] = [2]error{e1, e2}
			_, e1 = fs.fs.Write(fd, empty)
			_, e2 = fs.fs.Pwrite(fd, empty, 0)
			got["write"] = [2]error{e1, e2}
			for op, errs := range got {
				for i, e := range errs {
					if !sameErrno(e, want[op]) {
						t.Errorf("%s: zero-length %s (%s) with mode %d = %v; raw p%s = %v",
							fs.name, op, [2]string{"fd offset", "positional"}[i], mode, e, op, want[op])
					}
				}
			}
			fs.fs.Close(fd)
		}
	}
}

// sameErrno reports whether a backend's error and a raw syscall's name
// the same errno (both nil for success).
func sameErrno(got, raw error) bool {
	if raw == nil || got == nil {
		return raw == nil && got == nil
	}
	var errno syscall.Errno
	return errors.As(raw, &errno) && errors.Is(got, Errno(errno))
}
