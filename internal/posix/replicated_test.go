package posix

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ldplfs/internal/iostats"
)

// newReplicaFS builds a replica-r composite over n MemFS backends, each
// wrapped in a FaultFS so tests can kill or stall individual backends.
func newReplicaFS(t *testing.T, n, r int, stats *iostats.Plane) (*StripedFS, []*FaultFS) {
	t.Helper()
	faults := make([]*FaultFS, n)
	backends := make([]FS, n)
	for i := range backends {
		faults[i] = NewFaultFS(NewMemFS())
		backends[i] = faults[i]
	}
	layout, err := LayoutFor(replicaDesc(r), n)
	if err != nil {
		t.Fatal(err)
	}
	return NewLayoutFS(layout, stats, backends...), faults
}

func replicaDesc(r int) string {
	if r == 1 {
		return "mod-n"
	}
	return "replica-" + string(rune('0'+r))
}

// mustWriteFile writes content to path via fs at offset 0.
func mustWriteFile(t *testing.T, fs FS, path string, content []byte) {
	t.Helper()
	fd, err := fs.Open(path, O_CREAT|O_WRONLY|O_TRUNC, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if _, err := WriteFull(fs, fd, content, 0); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

// mustReadFile reads the whole file at path via fs.
func mustReadFile(t *testing.T, fs FS, path string) []byte {
	t.Helper()
	fd, err := fs.Open(path, O_RDONLY, 0)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer fs.Close(fd)
	st, err := fs.Fstat(fd)
	if err != nil {
		t.Fatalf("fstat %s: %v", path, err)
	}
	buf := make([]byte, st.Size)
	if err := ReadFull(fs, fd, buf, 0); err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return buf
}

// TestReplicaWriteFansOut pins the core replica invariant: a routed
// write lands byte-identically on every owner backend, and a canonical
// write lands on backends 0..R-1.
func TestReplicaWriteFansOut(t *testing.T) {
	s, _ := newReplicaFS(t, 3, 2, nil)
	if err := MkdirAll(s, "/c/hostdir.1", 0o755); err != nil {
		t.Fatal(err)
	}
	payload := []byte("replicated dropping bytes")
	mustWriteFile(t, s, "/c/hostdir.1/dropping.data.7", payload)
	mustWriteFile(t, s, "/c/canonical.file", []byte("canonical"))

	owners := s.ownersOf("/c/hostdir.1/dropping.data.7")
	if len(owners) != 2 || owners[0] != 1 || owners[1] != 2 {
		t.Fatalf("owners = %v, want [1 2]", owners)
	}
	for _, b := range owners {
		got := mustReadFile(t, s.backends[b], "/c/hostdir.1/dropping.data.7")
		if !bytes.Equal(got, payload) {
			t.Fatalf("backend %d copy diverges: %q", b, got)
		}
	}
	for _, b := range []int{0, 1} {
		got := mustReadFile(t, s.backends[b], "/c/canonical.file")
		if !bytes.Equal(got, []byte("canonical")) {
			t.Fatalf("backend %d canonical copy diverges: %q", b, got)
		}
	}
	// The non-owner backend holds no copy.
	if _, err := s.backends[0].Stat("/c/hostdir.1/dropping.data.7"); !errors.Is(err, ENOENT) {
		t.Fatalf("non-owner backend 0 has a copy (err=%v)", err)
	}
}

// TestReplicaReadFailover pins the failover read path: after the
// primary owner dies, reads are served byte-correct from the surviving
// replica and the failover counter ticks.
func TestReplicaReadFailover(t *testing.T) {
	plane := iostats.NewPlane()
	s, faults := newReplicaFS(t, 3, 2, plane)
	if err := MkdirAll(s, "/c/hostdir.1", 0o755); err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives a backend dying")
	mustWriteFile(t, s, "/c/hostdir.1/dropping.data.1", payload)

	faults[1].Kill() // primary owner of hostdir.1
	got := mustReadFile(t, s, "/c/hostdir.1/dropping.data.1")
	if !bytes.Equal(got, payload) {
		t.Fatalf("failover read diverges: %q", got)
	}
	layer := plane.Layer("posix")
	if n := layer.Counter("replica_read_failover").Load(); n == 0 {
		t.Fatal("failover reads not counted")
	}

	// A healthy primary serves without failover.
	faults[1].Revive()
	mustWriteFile(t, s, "/c/hostdir.4/dropping.data.2", payload) // owners [1 2]
	before := layer.Counter("replica_read_primary").Load()
	_ = mustReadFile(t, s, "/c/hostdir.4/dropping.data.2")
	if layer.Counter("replica_read_primary").Load() == before {
		t.Fatal("primary reads not counted")
	}
}

// TestReplicaWriteDegraded pins the degraded-write path: with one owner
// dark, writes succeed on the survivor, the degraded counter ticks, and
// the dark backend simply misses the copy (under-replication, healed by
// the doctor) rather than failing the write.
func TestReplicaWriteDegraded(t *testing.T) {
	plane := iostats.NewPlane()
	s, faults := newReplicaFS(t, 3, 2, plane)
	if err := MkdirAll(s, "/c/hostdir.1", 0o755); err != nil {
		t.Fatal(err)
	}
	faults[2].Kill() // secondary owner of hostdir.1
	payload := []byte("written while degraded")
	mustWriteFile(t, s, "/c/hostdir.1/dropping.data.9", payload)
	faults[2].Revive()

	got := mustReadFile(t, s.backends[1], "/c/hostdir.1/dropping.data.9")
	if !bytes.Equal(got, payload) {
		t.Fatalf("surviving copy diverges: %q", got)
	}
	if _, err := s.backends[2].Stat("/c/hostdir.1/dropping.data.9"); !errors.Is(err, ENOENT) {
		t.Fatalf("dark backend unexpectedly has a copy (err=%v)", err)
	}
	if n := plane.Layer("posix").Counter("replica_write_degraded").Load(); n == 0 {
		t.Fatal("degraded writes not counted")
	}
}

// TestReplicaAllOwnersDead pins the total-loss error path: with every
// owner dark, reads and writes fail rather than hanging or lying.
func TestReplicaAllOwnersDead(t *testing.T) {
	s, faults := newReplicaFS(t, 3, 2, nil)
	if err := MkdirAll(s, "/c/hostdir.1", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, s, "/c/hostdir.1/dropping.data.1", []byte("x"))
	fd, err := s.Open("/c/hostdir.1/dropping.data.1", O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	faults[1].Kill()
	faults[2].Kill()
	if _, err := s.Pread(fd, make([]byte, 1), 0); err == nil {
		t.Fatal("pread with all owners dead succeeded")
	}
	if err := s.Close(fd); err != nil {
		t.Fatalf("close after total loss: %v", err)
	}
	if _, err := s.Open("/c/hostdir.1/dropping.data.1", O_RDONLY, 0); err == nil {
		t.Fatal("open with all owners dead succeeded")
	}
}

// TestReplicaPointerIO pins that multi-replica pointer reads/writes and
// lseek keep the replica descriptors interchangeable.
func TestReplicaPointerIO(t *testing.T) {
	s, faults := newReplicaFS(t, 3, 2, nil)
	if err := MkdirAll(s, "/c/hostdir.2", 0o755); err != nil {
		t.Fatal(err)
	}
	fd, err := s.Open("/c/hostdir.2/log", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(fd, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(fd, []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lseek(fd, 0, SEEK_SET); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	if _, err := s.Read(fd, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "alphabeta" {
		t.Fatalf("pointer read = %q", buf)
	}
	// Kill the primary owner mid-stream: the pointer ops keep working on
	// the survivor because the file pointers were kept in sync.
	faults[2].Kill() // hostdir.2 owners are [2 0]
	if _, err := s.Write(fd, []byte("gamma")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lseek(fd, 0, SEEK_SET); err != nil {
		t.Fatal(err)
	}
	buf = make([]byte, 14)
	if _, err := s.Read(fd, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "alphabetagamma" {
		t.Fatalf("post-kill pointer read = %q", buf)
	}
	if err := s.Close(fd); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaCanonicalMetaSurvivesBackend0 pins the reason canonical
// paths are replicated to backends 0..R-1: container metadata stays
// readable after the canonical backend dies.
func TestReplicaCanonicalMetaSurvivesBackend0(t *testing.T) {
	s, faults := newReplicaFS(t, 3, 2, nil)
	if err := s.Mkdir("/c", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, s, "/c/.plfsaccess", []byte("marker"))
	faults[0].Kill()
	if _, err := s.Stat("/c/.plfsaccess"); err != nil {
		t.Fatalf("canonical marker lost with backend 0: %v", err)
	}
	got := mustReadFile(t, s, "/c/.plfsaccess")
	if string(got) != "marker" {
		t.Fatalf("canonical marker diverges: %q", got)
	}
	if _, err := s.Readdir("/c"); err != nil {
		t.Fatalf("canonical listing lost with backend 0: %v", err)
	}
}

// TestModNUnchangedByLayoutFS pins that an explicit mod-n LayoutFS
// behaves exactly like the classic constructor: single copies, EXDEV
// across hostdirs, canonical files only on backend 0.
func TestModNUnchangedByLayoutFS(t *testing.T) {
	layout, err := LayoutFor("mod-n", 3)
	if err != nil {
		t.Fatal(err)
	}
	backends := []FS{NewMemFS(), NewMemFS(), NewMemFS()}
	s := NewLayoutFS(layout, nil, backends...)
	if err := MkdirAll(s, "/c/hostdir.1", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, s, "/c/hostdir.1/d", []byte("x"))
	mustWriteFile(t, s, "/c/f", []byte("y"))
	if _, err := backends[1].Stat("/c/hostdir.1/d"); err != nil {
		t.Fatalf("owner copy missing: %v", err)
	}
	for _, b := range []int{0, 2} {
		if _, err := backends[b].Stat("/c/hostdir.1/d"); !errors.Is(err, ENOENT) {
			t.Fatalf("mod-n replicated to backend %d (err=%v)", b, err)
		}
	}
	if _, err := backends[0].Stat("/c/f"); err != nil {
		t.Fatalf("canonical copy missing: %v", err)
	}
	if _, err := backends[1].Stat("/c/f"); !errors.Is(err, ENOENT) {
		t.Fatalf("mod-n canonical file mirrored (err=%v)", err)
	}
	if err := s.Rename("/c/hostdir.1/d", "/c/hostdir.2/d"); !errors.Is(err, EXDEV) {
		t.Fatalf("cross-hostdir rename = %v, want EXDEV", err)
	}
}

// TestReplicaRenameWithinSet pins that renames inside one replica set
// apply to every owner, and renames across sets are refused.
func TestReplicaRenameWithinSet(t *testing.T) {
	s, _ := newReplicaFS(t, 3, 2, nil)
	if err := MkdirAll(s, "/c/hostdir.1", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, s, "/c/hostdir.1/a", []byte("x"))
	if err := s.Rename("/c/hostdir.1/a", "/c/hostdir.1/b"); err != nil {
		t.Fatal(err)
	}
	for _, b := range s.ownersOf("/c/hostdir.1/b") {
		if _, err := s.backends[b].Stat("/c/hostdir.1/b"); err != nil {
			t.Fatalf("renamed copy missing on backend %d: %v", b, err)
		}
	}
	if err := s.Rename("/c/hostdir.1/b", "/c/hostdir.2/b"); !errors.Is(err, EXDEV) {
		t.Fatalf("cross-set rename = %v, want EXDEV", err)
	}
}

// copiesString renders Copies as "name b<i>=<size|missing>...; ...".
func copiesString(files []FileCopies) string {
	var b strings.Builder
	for i, f := range files {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(f.Name)
		for _, c := range f.Copies {
			if c.Missing {
				fmt.Fprintf(&b, " b%d=missing", c.Backend)
			} else {
				fmt.Fprintf(&b, " b%d=%d", c.Backend, c.Size)
			}
		}
	}
	return b.String()
}

// TestStripedCopiesAndHeal pins the doctor's two StripedFS steps over
// four backends. Copies lists every regular file of a directory (not
// its subdirectories) with one copy per owner of the directory, in
// replica order: a shadow backend is no owner, a missing or short copy
// shows as such, and a dead owner holds no copy. Heal rebuilds one
// owner's copy from another's byte for byte: a longer diverged copy is
// truncated first, and parents the destination lacks are created.
func TestStripedCopiesAndHeal(t *testing.T) {
	const hostdir = "/c/hostdir.1" // owners 1, 1-2 and 1-3 by width
	rows := []struct {
		name     string
		r        int
		dir      string
		stage    func(t *testing.T, s *StripedFS, faults []*FaultFS)
		want     string
		heal     string // the file Heal rebuilds ("" for none)
		from, to int
		after    string
	}{
		{name: "mod-n", r: 1, dir: hostdir, want: "a b1=5; b b1=3"},
		{name: "replica-2", r: 2, dir: hostdir, want: "a b1=5 b2=5; b b1=3 b2=3"},
		{name: "replica-3", r: 3, dir: hostdir, want: "a b1=5 b2=5 b3=5; b b1=3 b2=3 b3=3"},
		{name: "replica-2 canonical dir", r: 2, dir: "/c", want: "m b0=1 b1=1"},
		{
			name: "replica-3 dead owner", r: 3, dir: hostdir,
			stage: func(t *testing.T, s *StripedFS, faults []*FaultFS) { faults[2].Kill() },
			want:  "a b1=5 b2=missing b3=5; b b1=3 b2=missing b3=3",
		},
		{
			name: "replica-2 missing copy", r: 2, dir: hostdir,
			stage: func(t *testing.T, s *StripedFS, faults []*FaultFS) {
				if err := s.backends[2].Unlink(hostdir + "/a"); err != nil {
					t.Fatal(err)
				}
			},
			want: "a b1=5 b2=missing; b b1=3 b2=3",
			heal: "a", from: 1, to: 2,
			after: "a b1=5 b2=5; b b1=3 b2=3",
		},
		{
			name: "replica-2 diverged copy", r: 2, dir: hostdir,
			stage: func(t *testing.T, s *StripedFS, faults []*FaultFS) {
				mustWriteFile(t, s.backends[1], hostdir+"/a", []byte("hel"))
				mustWriteFile(t, s.backends[2], hostdir+"/a", []byte("hello, world"))
			},
			want: "a b1=3 b2=12; b b1=3 b2=3",
			heal: "a", from: 1, to: 2,
			after: "a b1=3 b2=3; b b1=3 b2=3",
		},
		{
			name: "replica-3 heal into a backend missing the parent", r: 3, dir: hostdir,
			stage: func(t *testing.T, s *StripedFS, faults []*FaultFS) {
				b := s.backends[3]
				for _, p := range []string{hostdir + "/a", hostdir + "/b"} {
					if err := b.Unlink(p); err != nil {
						t.Fatal(err)
					}
				}
				for _, p := range []string{hostdir + "/sub", hostdir, "/c"} {
					if err := b.Rmdir(p); err != nil {
						t.Fatal(err)
					}
				}
			},
			want: "a b1=5 b2=5 b3=missing; b b1=3 b2=3 b3=missing",
			heal: "b", from: 1, to: 3,
			after: "a b1=5 b2=5 b3=missing; b b1=3 b2=3 b3=3",
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s, faults := newReplicaFS(t, 4, row.r, nil)
			for _, d := range []string{"/c", hostdir, hostdir + "/sub"} {
				if err := s.Mkdir(d, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			mustWriteFile(t, s, hostdir+"/a", []byte("hello"))
			mustWriteFile(t, s, hostdir+"/b", []byte("xyz"))
			mustWriteFile(t, s, "/c/m", []byte("m"))
			if row.stage != nil {
				row.stage(t, s, faults)
			}
			if got := copiesString(s.Copies(row.dir)); got != row.want {
				t.Fatalf("Copies(%s) = %q, want %q", row.dir, got, row.want)
			}
			if row.heal == "" {
				return
			}
			from, to := row.from, row.to
			path := row.dir + "/" + row.heal
			if err := s.Heal(path, from, to); err != nil {
				t.Fatalf("Heal(%s, %d, %d): %v", path, from, to, err)
			}
			if got := copiesString(s.Copies(row.dir)); got != row.after {
				t.Fatalf("Copies(%s) after Heal = %q, want %q", row.dir, got, row.after)
			}
			if got, want := mustReadFile(t, s.backends[to], path), mustReadFile(t, s.backends[from], path); !bytes.Equal(got, want) {
				t.Fatalf("healed copy on b%d = %q, want b%d's %q", to, got, from, want)
			}
		})
	}
}
