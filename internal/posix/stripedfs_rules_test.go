package posix

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// TestRmdirRefusedByLiveShadow: a canonical directory whose hostdirs
// live only on non-owner backends must not come down. Under replica-2
// over 4 backends /c is owned by [0 1] and /c/hostdir.2 by [2 3]; the
// shadows' ENOTEMPTY is a live backend's refusal and aborts the Rmdir
// before any owner is touched — ignoring it orphaned the hostdir.
func TestRmdirRefusedByLiveShadow(t *testing.T) {
	s, _ := newReplicaFS(t, 4, 2, nil, 0, nil)
	if err := s.Mkdir("/c", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Mkdir("/c/hostdir.2", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Rmdir("/c"); !errors.Is(err, ENOTEMPTY) {
		t.Fatalf("Rmdir of a directory holding a hostdir = %v, want ENOTEMPTY", err)
	}
	for _, b := range s.ReplicasFor("/c") {
		if _, err := s.Backends()[b].Stat("/c"); err != nil {
			t.Fatalf("refused Rmdir still removed /c from owner %d: %v", b, err)
		}
	}
	if ents, err := s.Readdir("/c"); err != nil || len(ents) != 1 || ents[0].Name != "hostdir.2" {
		t.Fatalf("Readdir after refused Rmdir = %v, %v", ents, err)
	}
}

// TestReaddirNeverSilentlyShort: with both replicas of hostdir.2 dead
// the container walk must fail rather than list the container without
// it — unrecoverable loss is EIO, not a hole.
func TestReaddirNeverSilentlyShort(t *testing.T) {
	s, faults := newReplicaFS(t, 4, 2, nil, 0, nil)
	if err := s.Mkdir("/c", 0o755); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if err := s.Mkdir(fmt.Sprintf("/c/hostdir.%d", k), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	faults[2].Kill()
	if ents, err := s.Readdir("/c"); err != nil || len(ents) != 4 {
		t.Fatalf("Readdir with one backend dead = %v, %v; want all four hostdirs", ents, err)
	}
	faults[3].Kill()
	if ents, err := s.Readdir("/c"); !errors.Is(err, EIO) {
		t.Fatalf("Readdir with hostdir.2's whole replica set dead = %v, %v; want EIO", ents, err)
	}
}

// subsets returns every subset of {0..n-1} with at most max members.
func subsets(n, max int) [][]int {
	var out [][]int
	for mask := 0; mask < 1<<n; mask++ {
		var set []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, i)
			}
		}
		if len(set) <= max {
			out = append(out, set)
		}
	}
	return out
}

// TestFailureBudgetWindow enumerates the degraded window of every path
// op over a directory: 4 backends × width {1,2,3} × {canonical, routed}
// × six ops × every set of at most W dead backends. The one rule under
// test (see across): an op succeeds iff fewer than W of the backends it
// touches are dead — every backend for a canonical directory's Mkdir,
// Rmdir, Readdir and Rename, the owners otherwise — and fails with the
// dead backend's EIO when not. On top of that, a Readdir that succeeds
// lists every entry, and a mod-N Mkdir or Rename that failed fast on
// its dead primary has touched no shadow.
func TestFailureBudgetWindow(t *testing.T) {
	const n = 4
	type target struct {
		kind           string
		dir            string   // the directory Rmdir/Rename/Stat/Access act on
		fresh, renamed string   // Mkdir's operand; Rename's destination
		list           string   // the directory Readdir lists
		want           []string // its full listing
	}
	targets := []target{
		{"canonical", "/c/openhosts", "/c/meta", "/c/openhosts.new", "/c",
			[]string{"hostdir.0", "hostdir.1", "hostdir.2", "hostdir.3", "openhosts"}},
		// hostdir.2 and hostdir.6 share a replica set over 4 backends.
		{"routed", "/c/hostdir.2", "/c/hostdir.6", "/c/hostdir.6", "/c/hostdir.2", []string{"d"}},
	}
	ops := []struct {
		name     string
		mirrored bool // touches every backend when the path is canonical
		do       func(s *StripedFS, tg target) error
		after    func(s *StripedFS, tg target) error // must hold once do succeeded
	}{
		{"Mkdir", true,
			func(s *StripedFS, tg target) error { return s.Mkdir(tg.fresh, 0o755) },
			func(s *StripedFS, tg target) error { _, err := s.Stat(tg.fresh); return err }},
		{"Rmdir", true,
			func(s *StripedFS, tg target) error {
				if tg.kind == "routed" {
					if err := s.Unlink(tg.dir + "/d"); err != nil {
						return err
					}
				}
				return s.Rmdir(tg.dir)
			},
			func(s *StripedFS, tg target) error {
				if _, err := s.Stat(tg.dir); !errors.Is(err, ENOENT) {
					return fmt.Errorf("removed directory still stats: %v", err)
				}
				return nil
			}},
		{"Readdir", true,
			func(s *StripedFS, tg target) error {
				ents, err := s.Readdir(tg.list)
				if err != nil {
					return err
				}
				var names []string
				for _, e := range ents {
					names = append(names, e.Name)
				}
				if !slices.Equal(names, tg.want) {
					return fmt.Errorf("Readdir(%s) = %v with a nil error, want %v", tg.list, names, tg.want)
				}
				return nil
			}, nil},
		{"Rename", true,
			func(s *StripedFS, tg target) error { return s.Rename(tg.dir, tg.renamed) },
			func(s *StripedFS, tg target) error { _, err := s.Stat(tg.renamed); return err }},
		{"Stat", false,
			func(s *StripedFS, tg target) error { _, err := s.Stat(tg.dir); return err }, nil},
		{"Access", false,
			func(s *StripedFS, tg target) error { return s.Access(tg.dir, F_OK) }, nil},
	}
	for w := 1; w <= 3; w++ {
		for _, tg := range targets {
			for _, op := range ops {
				for _, dead := range subsets(n, w) {
					name := fmt.Sprintf("w=%d/%s/%s/dead=%v", w, tg.kind, op.name, dead)
					t.Run(name, func(t *testing.T) {
						s, faults := newReplicaFS(t, n, w, nil, 0, nil)
						for _, dir := range []string{"/c", "/c/openhosts", "/c/hostdir.0", "/c/hostdir.1", "/c/hostdir.2", "/c/hostdir.3"} {
							if err := s.Mkdir(dir, 0o755); err != nil {
								t.Fatal(err)
							}
						}
						mustWriteFile(t, s, "/c/hostdir.2/d", []byte("x"))

						owners := s.ReplicasFor(tg.dir)
						deadTouched := 0
						for _, b := range dead {
							faults[b].Kill()
							if (op.mirrored && tg.kind == "canonical") || slices.Contains(owners, b) {
								deadTouched++
							}
						}
						wantOK := deadTouched < w

						err := op.do(s, tg)
						if wantOK {
							if err != nil {
								t.Fatalf("%d of the touched backends dead, width %d: %v, want success", deadTouched, w, err)
							}
							if op.after != nil {
								if err := op.after(s, tg); err != nil {
									t.Fatalf("postcondition: %v", err)
								}
							}
							return
						}
						if !errors.Is(err, EIO) {
							t.Fatalf("%d of the touched backends dead, width %d: %v, want EIO", deadTouched, w, err)
						}
						primaryFirst := op.name == "Mkdir" || op.name == "Rename"
						if w == 1 && tg.kind == "canonical" && primaryFirst && slices.Contains(dead, owners[0]) {
							for b := 1; b < n; b++ {
								if _, err := faults[b].inner.Stat(tg.dir); err != nil {
									t.Fatalf("failed %s moved %s away on shadow %d: %v", op.name, tg.dir, b, err)
								}
								for _, p := range []string{tg.fresh, tg.renamed} {
									if _, err := faults[b].inner.Stat(p); !errors.Is(err, ENOENT) {
										t.Fatalf("failed %s left %s on shadow %d (err=%v)", op.name, p, b, err)
									}
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestSoleOwnerIsPassThrough pins what the width-1 case of the replica
// loop must not cost or change: no allocation on the positional data
// path, a backend's error (and short count) returned exactly, and the
// sole — hence last live — replica never disabled by a failure.
func TestSoleOwnerIsPassThrough(t *testing.T) {
	t.Run("allocs", func(t *testing.T) {
		s := NewStripedFS(NewMemFS(), NewMemFS(), NewMemFS())
		if err := MkdirAll(s, "/c/hostdir.1", 0o755); err != nil {
			t.Fatal(err)
		}
		fd, err := s.Open("/c/hostdir.1/d", O_CREAT|O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close(fd)
		buf := make([]byte, 4096)
		bufs := [][]byte{buf[:1024], buf[1024:]}
		if err := WriteFull(s, fd, buf, 0); err != nil {
			t.Fatal(err)
		}
		for name, op := range map[string]func() error{
			"Pread":   func() error { _, err := s.Pread(fd, buf, 0); return err },
			"Preadv":  func() error { _, err := s.Preadv(fd, bufs, 0); return err },
			"Pwrite":  func() error { _, err := s.Pwrite(fd, buf, 0); return err },
			"Pwritev": func() error { _, err := s.Pwritev(fd, bufs, 0); return err },
			"Fsync":   func() error { return s.Fsync(fd) },
		} {
			var opErr error
			if got := testing.AllocsPerRun(100, func() { opErr = op() }); got != 0 || opErr != nil {
				t.Errorf("%s on a mod-N descriptor: %v allocs/op (err=%v), want 0", name, got, opErr)
			}
		}
	})

	t.Run("errors", func(t *testing.T) {
		s, faults := newReplicaFS(t, 3, 1, nil, 0, nil)
		if err := MkdirAll(s, "/c/hostdir.1", 0o755); err != nil {
			t.Fatal(err)
		}
		fd, err := s.Open("/c/hostdir.1/d", O_CREAT|O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close(fd)
		payload := []byte("0123456789")
		bufs := [][]byte{payload[:4], payload[4:]}
		injected := fmt.Errorf("backend 1 says: %w", ENOSPC)
		steps := []struct {
			name  string
			rule  FaultRule
			do    func() (int64, error)
			wantN int64
		}{
			{"Pwrite", FaultRule{Op: FaultWrite, Partial: 3},
				func() (int64, error) { n, err := s.Pwrite(fd, payload, 0); return int64(n), err }, 3},
			{"Pwritev", FaultRule{Op: FaultWrite, Partial: 6},
				func() (int64, error) { return s.Pwritev(fd, bufs, 0) }, 6},
			{"Write", FaultRule{Op: FaultWrite, Partial: 2},
				func() (int64, error) { n, err := s.Write(fd, payload); return int64(n), err }, 2},
			{"Pread", FaultRule{Op: FaultRead},
				func() (int64, error) { n, err := s.Pread(fd, make([]byte, 4), 0); return int64(n), err }, 0},
			{"Preadv", FaultRule{Op: FaultRead},
				func() (int64, error) { return s.Preadv(fd, [][]byte{make([]byte, 2), make([]byte, 2)}, 0) }, 0},
			{"Fsync", FaultRule{Op: FaultSync},
				func() (int64, error) { return 0, s.Fsync(fd) }, 0},
			{"Fstat", FaultRule{Op: FaultMeta},
				func() (int64, error) { _, err := s.Fstat(fd); return 0, err }, 0},
		}
		for _, st := range steps {
			rule := st.rule
			rule.Times, rule.Err = 1, injected
			faults[1].Inject(&rule)
			if n, err := st.do(); err != injected || n != st.wantN {
				t.Fatalf("%s under an injected fault = %d, %v; want %d and the backend's own error", st.name, n, err, st.wantN)
			}
			// The rule is spent: the same descriptor must serve the retry.
			if _, err := st.do(); err != nil {
				t.Fatalf("%s retried on the same fd after one failure: %v", st.name, err)
			}
		}
	})
}
