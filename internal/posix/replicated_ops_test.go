package posix

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldplfs/internal/iostats"
)

// opsSurface drives the full FS interface through one composite — the
// op sequence every layout must serve identically. Returns the final
// streamed bytes so callers can differential-compare configurations.
func opsSurface(t *testing.T, s *StripedFS) []byte {
	t.Helper()
	if err := s.Mkdir("/c", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Mkdir("/c/hostdir.1", 0o755); err != nil {
		t.Fatal(err)
	}

	// Streaming write: Open, Write (pointer advances), Lseek back,
	// Fsync, Fstat, Ftruncate.
	fd, err := s.Open("/c/hostdir.1/d", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []string{"alpha-", "beta-", "gamma"} {
		if n, err := s.Write(fd, []byte(chunk)); err != nil || n != len(chunk) {
			t.Fatalf("stream write: n=%d err=%v", n, err)
		}
	}
	if err := s.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	st, err := s.Fstat(fd)
	if err != nil || st.Size != int64(len("alpha-beta-gamma")) {
		t.Fatalf("Fstat = %+v, %v", st, err)
	}
	if err := s.Ftruncate(fd, 11); err != nil { // "alpha-beta-"
		t.Fatal(err)
	}
	if off, err := s.Lseek(fd, 0, SEEK_SET); err != nil || off != 0 {
		t.Fatalf("Lseek = %d, %v", off, err)
	}
	got := make([]byte, 64)
	n, err := s.Read(fd, got)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(fd); err != nil {
		t.Fatal(err)
	}

	// Path-level ops: Stat, Access, Truncate, Rename (within the
	// hostdir's replica set), Readdir, Unlink, Rmdir.
	if err := s.Access("/c/hostdir.1/d", 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate("/c/hostdir.1/d", 6); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Stat("/c/hostdir.1/d"); err != nil || st.Size != 6 {
		t.Fatalf("Stat after Truncate = %+v, %v", st, err)
	}
	if err := s.Rename("/c/hostdir.1/d", "/c/hostdir.1/d2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Access("/c/hostdir.1/d", 4); !errors.Is(err, ENOENT) {
		t.Fatalf("renamed-away path Access = %v, want ENOENT", err)
	}
	entries, err := s.Readdir("/c/hostdir.1")
	if err != nil || len(entries) != 1 || entries[0].Name != "d2" {
		t.Fatalf("Readdir = %v, %v", entries, err)
	}
	if err := s.Unlink("/c/hostdir.1/d2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rmdir("/c/hostdir.1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rmdir("/c"); err != nil {
		t.Fatal(err)
	}
	return got[:n]
}

// TestReplicatedOpsSurface runs the whole FS surface under mod-n,
// replica-2 and replica-3 and demands identical application-visible
// results — the ops-level differential over every layout, including
// the streaming (pointer) variants and directory mutations.
func TestReplicatedOpsSurface(t *testing.T) {
	var want []byte
	for i, r := range []int{1, 2, 3} {
		s, _ := newReplicaFS(t, 3, r, nil)
		if got := s.NumBackends(); got != 3 {
			t.Fatalf("replica-%d: NumBackends = %d", r, got)
		}
		if w := s.LayoutWidth(); w != r {
			t.Fatalf("replica-%d: LayoutWidth = %d", r, w)
		}
		out := opsSurface(t, s)
		if i == 0 {
			want = out
			if string(want) != "alpha-beta-" {
				t.Fatalf("mod-n surface read = %q", want)
			}
			continue
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("replica-%d surface read %q != mod-n %q", r, out, want)
		}
	}
}

// TestReplicatedOpsSurfaceDegraded re-runs the surface with one replica
// of every pair dead from the start: every op must still succeed on the
// survivors (writes degrade, reads fail over, directory ops tolerate
// the dark mirror).
func TestReplicatedOpsSurfaceDegraded(t *testing.T) {
	s, faults := newReplicaFS(t, 3, 2, nil)
	faults[1].Kill()
	if got := opsSurface(t, s); string(got) != "alpha-beta-" {
		t.Fatalf("degraded surface read = %q", got)
	}
}

// TestLiveVerdictOutranksDeadEIO walks the read-side path ops over a
// canonical directory (owners b0,b1 under replica-2 of 3) and a routed
// one (hostdir.1: owners b1,b2) through every degraded window: an
// owner dead, a non-owner dead, and the directory missing on the
// surviving owner. A survivor that holds the directory must serve it; a
// survivor that looked and found nothing must answer ENOENT — never
// the dead owner's EIO.
func TestLiveVerdictOutranksDeadEIO(t *testing.T) {
	ops := []struct {
		name string
		do   func(s *StripedFS, path string) error
	}{
		{"Readdir", func(s *StripedFS, path string) error { _, err := s.Readdir(path); return err }},
		{"Stat", func(s *StripedFS, path string) error { _, err := s.Stat(path); return err }},
		{"Access", func(s *StripedFS, path string) error { return s.Access(path, 0) }},
	}
	dirs := []struct {
		path            string
		owner, nonOwner int // the owner to kill, and a backend outside the owner set
		survivor        int // the owner left standing
	}{
		{"/c/openhosts", 0, 2, 1},
		{"/c/hostdir.1", 1, 0, 2},
	}
	scenarios := []struct {
		name      string
		killOwner bool // kill dir.owner rather than dir.nonOwner
		missing   bool // remove the directory from the surviving owner
		want      error
	}{
		{"owner dead", true, false, nil},
		{"non-owner dead", false, false, nil},
		{"owner dead, dir missing on the survivor", true, true, ENOENT},
	}
	for _, dir := range dirs {
		for _, sc := range scenarios {
			for _, op := range ops {
				t.Run(dir.path[3:]+"/"+sc.name+"/"+op.name, func(t *testing.T) {
					s, faults := newReplicaFS(t, 3, 2, nil)
					if err := s.Mkdir("/c", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := s.Mkdir(dir.path, 0o755); err != nil {
						t.Fatal(err)
					}
					if sc.missing {
						if err := faults[dir.survivor].Rmdir(dir.path); err != nil {
							t.Fatal(err)
						}
					}
					dead := dir.nonOwner
					if sc.killOwner {
						dead = dir.owner
					}
					faults[dead].Kill()
					if err := op.do(s, dir.path); !errors.Is(err, sc.want) {
						t.Fatalf("%s(%s) = %v, want %v", op.name, dir.path, err, sc.want)
					}
				})
			}
		}
	}
}

// TestNewStripedRootsLayout pins the CLI composition root: host
// directory trees composed under a replica layout serve replicated
// droppings and count them on the collector handed over, the empty spec
// returns the canonical backend, and spec and layout errors surface
// before any I/O.
func TestNewStripedRootsLayout(t *testing.T) {
	roots := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	canonical, err := NewOSFS(roots[0])
	if err != nil {
		t.Fatal(err)
	}
	plane := iostats.NewPlane()
	fs, err := NewStripedRoots(canonical, roots[1]+","+roots[2], "replica-2", plane)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := fs.(*StripedFS)
	if !ok {
		t.Fatalf("composed store is %T, not *StripedFS", fs)
	}
	if s.LayoutWidth() != 2 {
		t.Fatalf("LayoutWidth = %d", s.LayoutWidth())
	}
	if err := s.Mkdir("/hostdir.1", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, s, "/hostdir.1/d", []byte("payload"))
	// hostdir.1's owners are backends 1 and 2 — the copies live in those
	// host trees and nowhere else.
	for i, root := range roots {
		_, err := os.Stat(filepath.Join(root, "hostdir.1", "d"))
		if want := i != 0; (err == nil) != want {
			t.Fatalf("root %d copy presence: %v (want present=%v)", i, err, want)
		}
	}
	if got := mustReadFile(t, s, "/hostdir.1/d"); string(got) != "payload" {
		t.Fatalf("read back %q", got)
	}
	if got := plane.Layer("posix").Counter("replica_read_primary").Load(); got == 0 {
		t.Fatal("primary read not counted on the collector handed to NewStripedRoots")
	}

	// The full ops surface must hold over real directory trees too —
	// same sequence, same observable results as the MemFS rigs.
	if got := opsSurface(t, s); string(got) != "alpha-beta-" {
		t.Fatalf("OSFS replica surface read = %q", got)
	}

	// Empty shadow spec: the canonical backend itself, valid layouts only.
	plain, err := NewStripedRoots(canonical, "", "", nil)
	if err != nil || plain != canonical {
		t.Fatalf("empty spec = %T, %v", plain, err)
	}
	if _, err := NewStripedRoots(canonical, "", "replica-2", nil); err == nil {
		t.Fatal("replica layout with no shadow backends accepted")
	}
	if _, err := NewStripedRoots(canonical, roots[1], "bogus", nil); err == nil {
		t.Fatal("bogus layout accepted")
	}

	// An empty entry would open the working directory as a backend:
	// droppings would land there and a later run without it would read
	// an empty file. Every such spec is refused, naming the spec.
	t.Chdir(t.TempDir())
	for _, spec := range []string{"b1,", ",b1", "b1,,b2", " "} {
		for _, b := range []string{"b1", "b2"} {
			if err := os.MkdirAll(b, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		_, err := NewStripedRoots(canonical, spec, "", nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", spec)) {
			t.Fatalf("spec %q: err = %v, want a refusal naming the spec", spec, err)
		}
	}
}

// TestDispatchOverReplicatedStore binds the LD_PRELOAD-style dispatch
// table to a replicated store and drives every symbol through it: the
// interposition layer must be layout-oblivious, and a snapshot/restore
// cycle must unload a shim cleanly.
func TestDispatchOverReplicatedStore(t *testing.T) {
	s, _ := newReplicaFS(t, 3, 2, nil)
	d := NewDispatch(s)

	// Interpose a counting shim on Open, the dlsym(RTLD_NEXT) idiom.
	snap := d.Snapshot()
	opens := 0
	d.OpenFn = func(path string, flags int, mode uint32) (int, error) {
		opens++
		return snap.OpenFn(path, flags, mode)
	}

	if err := d.Mkdir("/c", 0o755); err != nil {
		t.Fatal(err)
	}
	fd, err := d.Open("/c/f", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := d.Write(fd, []byte("hello-")); err != nil || n != 6 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if n, err := d.Pwrite(fd, []byte("world"), 6); err != nil || n != 5 {
		t.Fatalf("Pwrite = %d, %v", n, err)
	}
	if err := d.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	if st, err := d.Fstat(fd); err != nil || st.Size != 11 {
		t.Fatalf("Fstat = %+v, %v", st, err)
	}
	if off, err := d.Lseek(fd, 0, SEEK_SET); err != nil || off != 0 {
		t.Fatalf("Lseek = %d, %v", off, err)
	}
	buf := make([]byte, 5)
	if n, err := d.Read(fd, buf); err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	if n, err := d.Pread(fd, buf, 6); err != nil || string(buf[:n]) != "world" {
		t.Fatalf("Pread = %q, %v", buf[:n], err)
	}
	if err := d.Ftruncate(fd, 6); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := d.Access("/c/f", R_OK); err != nil {
		t.Fatal(err)
	}
	if st, err := d.Stat("/c/f"); err != nil || st.Size != 6 {
		t.Fatalf("Stat = %+v, %v", st, err)
	}
	if err := d.Truncate("/c/f", 5); err != nil {
		t.Fatal(err)
	}
	if err := d.Rename("/c/f", "/c/g"); err != nil {
		t.Fatal(err)
	}
	if ents, err := d.Readdir("/c"); err != nil || len(ents) != 1 || ents[0].Name != "g" {
		t.Fatalf("Readdir = %v, %v", ents, err)
	}
	if err := d.Unlink("/c/g"); err != nil {
		t.Fatal(err)
	}
	if err := d.Rmdir("/c"); err != nil {
		t.Fatal(err)
	}
	if opens != 1 {
		t.Fatalf("shim saw %d opens, want 1", opens)
	}

	// Restore unloads the shim: further opens bypass the counter.
	d.Restore(snap)
	if err := d.Mkdir("/c2", 0o755); err != nil {
		t.Fatal(err)
	}
	fd, err = d.Open("/c2/f", O_CREAT|O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(fd); err != nil {
		t.Fatal(err)
	}
	if opens != 1 {
		t.Fatalf("shim fired after Restore: %d opens", opens)
	}
}

// TestMkdirMissingParent: a Mkdir under a parent no backend holds
// fails with ENOENT and creates nothing anywhere, under every layout
// width, as MemFS does — a canonical directory and a routed (hostdir)
// one alike; and under a parent that only the parent's primary holds —
// replicas and shadows lagging the skeleton — it succeeds, rebuilding
// the parent on every backend the new directory lives on.
func TestMkdirMissingParent(t *testing.T) {
	for _, child := range []string{"child", "hostdir.1"} {
		for r := 1; r <= 3; r++ {
			name := replicaDesc(r)
			if child != "child" {
				name = "routed-" + name
			}
			t.Run(name, func(t *testing.T) {
				s, faults := newReplicaFS(t, 3, r, nil)
				if err := s.Mkdir("/missing/"+child, 0o755); !errors.Is(err, ENOENT) {
					t.Fatalf("Mkdir under a missing parent = %v, want ENOENT", err)
				}
				for i, f := range faults {
					if _, err := f.Stat("/missing"); !errors.Is(err, ENOENT) {
						t.Fatalf("backend %d: Stat(/missing) = %v, want ENOENT", i, err)
					}
				}

				if err := s.Mkdir("/p", 0o755); err != nil {
					t.Fatal(err)
				}
				primary := s.ownersOf("/p")[0]
				for i, f := range faults {
					if i != primary {
						if err := f.Rmdir("/p"); err != nil {
							t.Fatal(err)
						}
					}
				}
				path := "/p/" + child
				if err := s.Mkdir(path, 0o755); err != nil {
					t.Fatalf("Mkdir with the parent on the primary alone = %v", err)
				}
				holders := []int{0, 1, 2}
				if routed(path) {
					holders = s.ownersOf(path)
				}
				for _, i := range holders {
					if st, err := faults[i].Stat(path); err != nil || !st.IsDir() {
						t.Fatalf("backend %d: Stat(%s) = %+v, %v; want the directory", i, path, st, err)
					}
				}
			})
		}
	}
}
