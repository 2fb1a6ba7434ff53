package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// newEnv builds a process image: a MemFS "system", a dispatch table, and
// the shim preloaded over mount /mnt/plfs -> /backend.
func newEnv(t *testing.T) (*posix.Dispatch, *LDPLFS, *posix.MemFS) {
	t.Helper()
	mem := posix.NewMemFS()
	for _, dir := range []string{"/backend", "/home", "/mnt"} {
		if err := mem.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	d := posix.NewDispatch(mem)
	l, err := Preload(d, Config{
		Mounts: []Mount{{Point: "/mnt/plfs", Backend: "/backend"}},
		Pid:    42,
		Plfs:   plfs.New(mem),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, l, mem
}

// TestConfigSurface pins what a preload can be given: where the mounts
// are, who the process is, and the PLFS instance to retarget onto. How
// that instance is built — over which store, with which options — is
// the caller's one decision, not a second copy of it here.
func TestConfigSurface(t *testing.T) {
	var got []string
	cfg := reflect.TypeOf(Config{})
	for i := 0; i < cfg.NumField(); i++ {
		got = append(got, cfg.Field(i).Name)
	}
	if want := []string{"Mounts", "Pid", "Plfs"}; !slices.Equal(got, want) {
		t.Fatalf("core.Config fields = %v, want %v", got, want)
	}
}

func TestOpenUnderMountCreatesContainer(t *testing.T) {
	d, l, mem := newEnv(t)
	fd, err := d.Open("/mnt/plfs/out.dat", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(fd, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(fd); err != nil {
		t.Fatal(err)
	}
	// The application never sees it, but /backend/out.dat is a container.
	if !l.Plfs().IsContainer("/backend/out.dat") {
		t.Fatal("no container materialised in the backend")
	}
	if st, err := mem.Stat("/backend/out.dat"); err != nil || !st.IsDir() {
		t.Fatalf("backend entry: %+v, %v", st, err)
	}
	// And the application-visible stat presents a 5-byte plain file.
	st, err := d.Stat("/mnt/plfs/out.dat")
	if err != nil || st.Size != 5 || st.IsDir() {
		t.Fatalf("Stat through shim = %+v, %v", st, err)
	}
}

func TestReadWriteRoundTripThroughShim(t *testing.T) {
	d, _, _ := newEnv(t)
	payload := []byte("interposed bytes travel through plfs")
	fd, err := d.Open("/mnt/plfs/rt", posix.O_CREAT|posix.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := d.Write(fd, payload); err != nil || n != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	// The implicit file pointer must have advanced (shadow-fd lseek).
	if pos, err := d.Lseek(fd, 0, posix.SEEK_CUR); err != nil || pos != int64(len(payload)) {
		t.Fatalf("pointer after write = %d, %v", pos, err)
	}
	if _, err := d.Lseek(fd, 0, posix.SEEK_SET); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if n, err := d.Read(fd, got); err != nil || n != len(payload) {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Read = %q", got)
	}
	// Sequential reads continue from the pointer.
	d.Lseek(fd, 0, posix.SEEK_SET)
	half := len(payload) / 2
	d.Read(fd, got[:half])
	n, err := d.Read(fd, got[half:])
	if err != nil || n != len(payload)-half {
		t.Fatalf("second Read = %d, %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("piecewise Read = %q", got)
	}
	d.Close(fd)
}

func TestPassthroughOutsideMount(t *testing.T) {
	d, l, mem := newEnv(t)
	fd, err := d.Open("/home/notes.txt", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	d.Write(fd, []byte("plain"))
	d.Close(fd)
	// The file is a plain file on the underlying FS, not a container.
	st, err := mem.Stat("/home/notes.txt")
	if err != nil || st.IsDir() || st.Size != 5 {
		t.Fatalf("passthrough file: %+v, %v", st, err)
	}
	if l.Stats.Interposed.Load() != 0 {
		t.Fatalf("interposed %d calls for non-PLFS path", l.Stats.Interposed.Load())
	}
	if l.Stats.PassedThru.Load() == 0 {
		t.Fatal("passthrough counter never moved")
	}
}

func TestLseekSemantics(t *testing.T) {
	d, _, _ := newEnv(t)
	fd, _ := d.Open("/mnt/plfs/seek", posix.O_CREAT|posix.O_RDWR, 0o644)
	d.Write(fd, make([]byte, 100))

	if pos, err := d.Lseek(fd, 0, posix.SEEK_END); err != nil || pos != 100 {
		t.Fatalf("SEEK_END = %d, %v", pos, err)
	}
	if pos, err := d.Lseek(fd, -40, posix.SEEK_END); err != nil || pos != 60 {
		t.Fatalf("SEEK_END-40 = %d, %v", pos, err)
	}
	if pos, err := d.Lseek(fd, 10, posix.SEEK_CUR); err != nil || pos != 70 {
		t.Fatalf("SEEK_CUR+10 = %d, %v", pos, err)
	}
	// Seek beyond EOF then write: hole + data.
	if _, err := d.Lseek(fd, 200, posix.SEEK_SET); err != nil {
		t.Fatal(err)
	}
	d.Write(fd, []byte("z"))
	st, _ := d.Fstat(fd)
	if st.Size != 201 {
		t.Fatalf("size after sparse write = %d", st.Size)
	}
	buf := make([]byte, 1)
	d.Lseek(fd, 150, posix.SEEK_SET)
	d.Read(fd, buf)
	if buf[0] != 0 {
		t.Fatalf("hole read %d", buf[0])
	}
	d.Close(fd)
}

func TestAppendMode(t *testing.T) {
	d, _, _ := newEnv(t)
	fd, _ := d.Open("/mnt/plfs/log", posix.O_CREAT|posix.O_WRONLY|posix.O_APPEND, 0o644)
	d.Write(fd, []byte("one."))
	d.Close(fd)
	fd, _ = d.Open("/mnt/plfs/log", posix.O_WRONLY|posix.O_APPEND, 0o644)
	// Even after an explicit rewind, O_APPEND writes land at EOF.
	d.Lseek(fd, 0, posix.SEEK_SET)
	d.Write(fd, []byte("two."))
	d.Close(fd)

	fd, _ = d.Open("/mnt/plfs/log", posix.O_RDONLY, 0)
	got := make([]byte, 8)
	n, err := d.Read(fd, got)
	if err != nil || n != 8 {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if string(got) != "one.two." {
		t.Fatalf("append content = %q", got)
	}
	d.Close(fd)
}

func TestPreadPwriteDoNotMovePointer(t *testing.T) {
	d, _, _ := newEnv(t)
	fd, _ := d.Open("/mnt/plfs/pp", posix.O_CREAT|posix.O_RDWR, 0o644)
	d.Pwrite(fd, []byte("abcdef"), 0)
	if pos, _ := d.Lseek(fd, 0, posix.SEEK_CUR); pos != 0 {
		t.Fatalf("pointer moved by pwrite: %d", pos)
	}
	buf := make([]byte, 3)
	if n, err := d.Pread(fd, buf, 3); err != nil || n != 3 || string(buf) != "def" {
		t.Fatalf("Pread = %q, %d, %v", buf, n, err)
	}
	if pos, _ := d.Lseek(fd, 0, posix.SEEK_CUR); pos != 0 {
		t.Fatalf("pointer moved by pread: %d", pos)
	}
	d.Close(fd)
}

func TestReaddirPresentsContainersAsFiles(t *testing.T) {
	d, _, _ := newEnv(t)
	for _, name := range []string{"a.chk", "b.chk"} {
		fd, _ := d.Open("/mnt/plfs/"+name, posix.O_CREAT|posix.O_WRONLY, 0o644)
		d.Write(fd, []byte("x"))
		d.Close(fd)
	}
	d.Mkdir("/mnt/plfs/subdir", 0o755)
	entries, err := d.Readdir("/mnt/plfs")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]posix.DirEntry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	if e := byName["a.chk"]; e.IsDir {
		t.Fatal("container listed as directory")
	}
	if e := byName["subdir"]; !e.IsDir {
		t.Fatal("plain directory lost its dir bit")
	}
}

func TestUnlinkAndRename(t *testing.T) {
	d, l, _ := newEnv(t)
	fd, _ := d.Open("/mnt/plfs/victim", posix.O_CREAT|posix.O_WRONLY, 0o644)
	d.Write(fd, []byte("data"))
	d.Close(fd)
	if err := d.Rename("/mnt/plfs/victim", "/mnt/plfs/renamed"); err != nil {
		t.Fatal(err)
	}
	if l.Plfs().IsContainer("/backend/victim") {
		t.Fatal("old container survives rename")
	}
	st, err := d.Stat("/mnt/plfs/renamed")
	if err != nil || st.Size != 4 {
		t.Fatalf("renamed stat = %+v, %v", st, err)
	}
	if err := d.Unlink("/mnt/plfs/renamed"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Stat("/mnt/plfs/renamed"); !errors.Is(err, posix.ENOENT) {
		t.Fatalf("stat after unlink = %v", err)
	}
	// Cross-mount rename is refused (copy fallback expected).
	fd, _ = d.Open("/home/x", posix.O_CREAT|posix.O_WRONLY, 0o644)
	d.Close(fd)
	if err := d.Rename("/home/x", "/mnt/plfs/x"); err == nil {
		t.Fatal("cross-device rename succeeded; want error")
	}
	// ... with EXDEV, in both directions.
	if err := d.Rename("/home/x", "/mnt/plfs/x"); !errors.Is(err, posix.EXDEV) {
		t.Fatalf("rename into the mount = %v, want EXDEV", err)
	}
	fd, _ = d.Open("/mnt/plfs/y", posix.O_CREAT|posix.O_WRONLY, 0o644)
	d.Close(fd)
	if err := d.Rename("/mnt/plfs/y", "/home/y"); !errors.Is(err, posix.EXDEV) {
		t.Fatalf("rename out of the mount = %v, want EXDEV", err)
	}
}

func TestTruncateThroughShim(t *testing.T) {
	d, _, _ := newEnv(t)
	fd, _ := d.Open("/mnt/plfs/t", posix.O_CREAT|posix.O_RDWR, 0o644)
	d.Write(fd, make([]byte, 1000))
	if err := d.Ftruncate(fd, 100); err != nil {
		t.Fatal(err)
	}
	st, _ := d.Fstat(fd)
	if st.Size != 100 {
		t.Fatalf("size after ftruncate = %d", st.Size)
	}
	d.Close(fd)
	if err := d.Truncate("/mnt/plfs/t", 0); err != nil {
		t.Fatal(err)
	}
	st, _ = d.Stat("/mnt/plfs/t")
	if st.Size != 0 {
		t.Fatalf("size after truncate = %d", st.Size)
	}
}

func TestMkdirUnderMountStaysPosix(t *testing.T) {
	d, _, mem := newEnv(t)
	if err := d.Mkdir("/mnt/plfs/vis", 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := mem.Stat("/backend/vis")
	if err != nil || !st.IsDir() {
		t.Fatalf("backend dir = %+v, %v", st, err)
	}
	// Files within the subdirectory become containers.
	fd, err := d.Open("/mnt/plfs/vis/dump.h5", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	d.Write(fd, []byte("hdf"))
	d.Close(fd)
	st2, err := mem.Stat("/backend/vis/dump.h5")
	if err != nil || !st2.IsDir() {
		t.Fatalf("nested container: %+v, %v", st2, err)
	}
	if err := d.Rmdir("/mnt/plfs/vis"); !errors.Is(err, posix.ENOTEMPTY) {
		t.Fatalf("rmdir nonempty = %v", err)
	}
	d.Unlink("/mnt/plfs/vis/dump.h5")
	if err := d.Rmdir("/mnt/plfs/vis"); err != nil {
		t.Fatal(err)
	}
}

func TestUnloadRestoresSymbols(t *testing.T) {
	d, l, mem := newEnv(t)
	l.Unload()
	// After unload, opens under the mount hit the raw path (ENOENT since
	// /mnt/plfs does not exist on the underlying FS).
	if _, err := d.Open("/mnt/plfs/after", posix.O_CREAT|posix.O_WRONLY, 0o644); !errors.Is(err, posix.ENOENT) {
		t.Fatalf("open after unload = %v, want raw ENOENT", err)
	}
	_ = mem
}

func TestUnloadClosesOpenHandles(t *testing.T) {
	d, l, mem := newEnv(t)
	fd, _ := d.Open("/mnt/plfs/open", posix.O_CREAT|posix.O_WRONLY, 0o644)
	d.Write(fd, []byte("dangling"))
	l.Unload() // process exit with the fd still open
	if got := mem.OpenFDs(); got != 0 {
		t.Fatalf("%d fds leak after unload", got)
	}
}

func TestShadowFdBookkeeping(t *testing.T) {
	d, l, _ := newEnv(t)
	fd, _ := d.Open("/mnt/plfs/sb", posix.O_CREAT|posix.O_RDWR, 0o644)
	before := l.Stats.ShadowSeeks.Load()
	d.Write(fd, []byte("abc")) // offset fetch + advance = 2 lseeks
	after := l.Stats.ShadowSeeks.Load()
	if after-before != 2 {
		t.Fatalf("write cost %d shadow seeks, want 2", after-before)
	}
	d.Close(fd)
}

func TestStackedShims(t *testing.T) {
	// A tracing shim loaded before LDPLFS keeps seeing the calls LDPLFS
	// passes down — the paper's footnote about composing with tracers.
	mem := posix.NewMemFS()
	mem.Mkdir("/backend", 0o755)
	d := posix.NewDispatch(mem)

	traced := 0
	prev := d.Snapshot()
	d.OpenFn = func(path string, flags int, mode uint32) (int, error) {
		traced++
		return prev.OpenFn(path, flags, mode)
	}

	l, err := Preload(d, Config{
		Mounts: []Mount{{Point: "/mnt/plfs", Backend: "/backend"}},
		Pid:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	traced = 0
	fd, err := d.Open("/mnt/plfs/x", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	d.Write(fd, []byte("y"))
	d.Close(fd)
	// The tracer saw the shim's internal opens (droppings, shadow), proving
	// LDPLFS chained to the previous symbols rather than the raw FS.
	if traced == 0 {
		t.Fatal("tracer below LDPLFS saw nothing")
	}
	l.Unload()
}

func TestMultipleMounts(t *testing.T) {
	mem := posix.NewMemFS()
	mem.Mkdir("/b1", 0o755)
	mem.Mkdir("/b2", 0o755)
	d := posix.NewDispatch(mem)
	l, err := Preload(d, Config{
		Mounts: []Mount{
			{Point: "/mnt/one", Backend: "/b1"},
			{Point: "/mnt/two", Backend: "/b2"},
		},
		Pid: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"/mnt/one/f", "/mnt/two/f"} {
		fd, err := d.Open(m, posix.O_CREAT|posix.O_WRONLY, 0o644)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		d.Write(fd, []byte(m))
		d.Close(fd)
	}
	if !l.Plfs().IsContainer("/b1/f") || !l.Plfs().IsContainer("/b2/f") {
		t.Fatal("containers missing in one of the backends")
	}
}

func TestParseMounts(t *testing.T) {
	mounts, err := ParseMounts("/mnt/plfs=/backend,/scratch=/lustre/plfs")
	if err != nil {
		t.Fatal(err)
	}
	if len(mounts) != 2 || mounts[1].Backend != "/lustre/plfs" {
		t.Fatalf("mounts = %+v", mounts)
	}
	for _, bad := range []string{"", "nonsense", "a=,b", "=x"} {
		if _, err := ParseMounts(bad); err == nil {
			t.Fatalf("ParseMounts(%q) accepted", bad)
		}
	}
}

// TestShimMatchesPlainPosix drives an identical random workload through
// (a) the shim onto PLFS and (b) plain POSIX, and requires identical
// observable file content — the application cannot tell it was rerouted.
func TestShimMatchesPlainPosix(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))

		d, _, _ := newEnv(t)
		plainFS := posix.NewMemFS()
		plain := posix.NewDispatch(plainFS)

		pfd, err := d.Open("/mnt/plfs/w", posix.O_CREAT|posix.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		qfd, err := plain.Open("/w", posix.O_CREAT|posix.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}

		for op := 0; op < 200; op++ {
			switch rng.Intn(5) {
			case 0, 1: // write
				buf := make([]byte, 1+rng.Intn(256))
				rng.Read(buf)
				pn, perr := d.Write(pfd, buf)
				qn, qerr := plain.Write(qfd, buf)
				if pn != qn || (perr == nil) != (qerr == nil) {
					t.Fatalf("seed %d: write diverged: %d/%v vs %d/%v", seed, pn, perr, qn, qerr)
				}
			case 2: // read
				pb := make([]byte, 1+rng.Intn(256))
				qb := make([]byte, len(pb))
				pn, _ := d.Read(pfd, pb)
				qn, _ := plain.Read(qfd, qb)
				if pn != qn || !bytes.Equal(pb[:pn], qb[:qn]) {
					t.Fatalf("seed %d op %d: read diverged (%d vs %d)", seed, op, pn, qn)
				}
			case 3: // seek
				off := int64(rng.Intn(4096))
				whence := []int{posix.SEEK_SET, posix.SEEK_CUR, posix.SEEK_END}[rng.Intn(3)]
				pp, perr := d.Lseek(pfd, off, whence)
				qp, qerr := plain.Lseek(qfd, off, whence)
				if pp != qp || (perr == nil) != (qerr == nil) {
					t.Fatalf("seed %d: lseek diverged: %d/%v vs %d/%v", seed, pp, perr, qp, qerr)
				}
			case 4: // fstat
				pst, _ := d.Fstat(pfd)
				qst, _ := plain.Fstat(qfd)
				if pst.Size != qst.Size {
					t.Fatalf("seed %d: size diverged: %d vs %d", seed, pst.Size, qst.Size)
				}
			}
		}
		d.Close(pfd)
		plain.Close(qfd)
	}
}
