package posix

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func newOS(t *testing.T) *OSFS {
	t.Helper()
	fs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestOSFSBasicRoundTrip(t *testing.T) {
	fs := newOS(t)
	fd, err := fs.Open("/f.txt", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(fd, []byte("on real disk")); err != nil {
		t.Fatal(err)
	}
	if pos, err := fs.Lseek(fd, 0, SEEK_SET); err != nil || pos != 0 {
		t.Fatalf("lseek = %d, %v", pos, err)
	}
	buf := make([]byte, 32)
	n, err := fs.Read(fd, buf)
	if err != nil || string(buf[:n]) != "on real disk" {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(fd); !errors.Is(err, EBADF) {
		t.Fatalf("double close = %v", err)
	}
}

func TestOSFSChrootConfinement(t *testing.T) {
	root := t.TempDir()
	fs, err := NewOSFS(root)
	if err != nil {
		t.Fatal(err)
	}
	// Escaping paths are cleaned back inside the root.
	fd, err := fs.Open("/../../../../escape-attempt", O_CREAT|O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fs.Close(fd)
	// The file must have landed under the root, not four levels up.
	if _, err := os.Stat(filepath.Join(root, "escape-attempt")); err != nil {
		t.Fatalf("escape attempt did not stay under root: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "..", "escape-attempt")); err == nil {
		t.Fatal("file escaped the root")
	}
	if fs.Root() != root {
		t.Fatalf("Root() = %s", fs.Root())
	}
}

func TestOSFSErrnoMapping(t *testing.T) {
	fs := newOS(t)
	if _, err := fs.Open("/missing", O_RDONLY, 0); !errors.Is(err, ENOENT) {
		t.Fatalf("missing open = %v", err)
	}
	fd, _ := fs.Open("/x", O_CREAT|O_WRONLY, 0o644)
	fs.Close(fd)
	if _, err := fs.Open("/x", O_CREAT|O_EXCL|O_WRONLY, 0o644); !errors.Is(err, EEXIST) {
		t.Fatalf("EXCL = %v", err)
	}
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/d"); !errors.Is(err, EISDIR) {
		t.Fatalf("unlink dir = %v", err)
	}
	if err := fs.Rmdir("/x"); !errors.Is(err, ENOTDIR) {
		t.Fatalf("rmdir file = %v", err)
	}
	fd, _ = fs.Open("/d/child", O_CREAT|O_WRONLY, 0o644)
	fs.Close(fd)
	if err := fs.Rmdir("/d"); !errors.Is(err, ENOTEMPTY) {
		t.Fatalf("rmdir nonempty = %v", err)
	}
	// Out of descriptors is not provoked here (it would starve the test
	// binary); what the OS would hand back must map.
	if err := mapOSError(&os.PathError{Op: "open", Path: "/x", Err: syscall.EMFILE}); !errors.Is(err, EMFILE) {
		t.Fatalf("EMFILE = %v", err)
	}
}

func TestOSFSReaddirSorted(t *testing.T) {
	fs := newOS(t)
	for _, name := range []string{"/c", "/a", "/b"} {
		fd, _ := fs.Open(name, O_CREAT|O_WRONLY, 0o644)
		fs.Close(fd)
	}
	fs.Mkdir("/dir", 0o755)
	entries, err := fs.Readdir("/")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, e := range entries {
		names = append(names, e.Name)
	}
	want := []string{"a", "b", "c", "dir"}
	if len(names) != len(want) {
		t.Fatalf("entries = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("entries[%d] = %s, want %s", i, names[i], want[i])
		}
	}
	if !entries[3].IsDir {
		t.Fatal("dir bit lost")
	}
}

func TestOSFSStatAndTruncate(t *testing.T) {
	fs := newOS(t)
	fd, _ := fs.Open("/t", O_CREAT|O_RDWR, 0o644)
	fs.Write(fd, make([]byte, 100))
	st, err := fs.Fstat(fd)
	if err != nil || st.Size != 100 || st.IsDir() {
		t.Fatalf("fstat = %+v, %v", st, err)
	}
	if err := fs.Ftruncate(fd, 10); err != nil {
		t.Fatal(err)
	}
	if st, _ := fs.Stat("/t"); st.Size != 10 {
		t.Fatalf("size after ftruncate = %d", st.Size)
	}
	if err := fs.Truncate("/t", 60); err != nil {
		t.Fatal(err)
	}
	if pos, _ := fs.Lseek(fd, 0, SEEK_END); pos != 60 {
		t.Fatalf("SEEK_END = %d", pos)
	}
	fs.Close(fd)
}

func TestOSFSRejectsNonDirRoot(t *testing.T) {
	f := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewOSFS(f); err == nil {
		t.Fatal("file accepted as root")
	}
	if _, err := NewOSFS(filepath.Join(f, "missing")); err == nil {
		t.Fatal("missing dir accepted as root")
	}
}

func TestPLFSOnOSFS(t *testing.T) {
	// The dedicated OSFS test for the stack that e2e exercises: a quick
	// sanity that Fsync and Pread/Pwrite hit the real kernel paths.
	fs := newOS(t)
	fd, err := fs.Open("/direct", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Pwrite(fd, []byte("abcdef"), 3); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if n, err := fs.Pread(fd, buf, 3); err != nil || n != 6 || string(buf) != "abcdef" {
		t.Fatalf("pread = %q (%d), %v", buf[:n], n, err)
	}
	// Hole at the front.
	if n, err := fs.Pread(fd, buf[:3], 0); err != nil || n != 3 || buf[0] != 0 {
		t.Fatalf("hole = %v (%d), %v", buf[:n], n, err)
	}
	fs.Close(fd)
}
