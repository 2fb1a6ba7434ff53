package plfs

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"ldplfs/internal/posix"
)

// callCount counts the calls an Interposer forwards, and the Stats
// among them.
type callCount struct{ all, stats atomic.Int64 }

func (c *callCount) Before(op posix.Op) (posix.Op, error) { return op, nil }

func (c *callCount) After(op posix.Op, _ int64, _ error) {
	c.all.Add(1)
	if op.Call == posix.CallStat {
		c.stats.Add(1)
	}
}

// listingStore is one backend the listing tests run over: make returns
// it empty, with a hook to run once the container is written.
type listingStore struct {
	name string
	make func(t *testing.T) (posix.FS, func())
}

var listingStores = []listingStore{
	{"memfs", func(t *testing.T) (posix.FS, func()) { return posix.NewMemFS(), func() {} }},
	{"osfs", func(t *testing.T) (posix.FS, func()) {
		o, err := posix.NewOSFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return o, func() {}
	}},
	{"mod-3", func(t *testing.T) (posix.FS, func()) { return faultedLayout(t, "mod-n", -1) }},
	{"replica-2", func(t *testing.T) (posix.FS, func()) { return faultedLayout(t, "replica-2", -1) }},
	{"replica-2/dark", func(t *testing.T) (posix.FS, func()) { return faultedLayout(t, "replica-2", 1) }},
}

// faultedLayout composes three FaultFS-wrapped MemFS backends under the
// named layout; the hook it returns kills backend dark (none if < 0).
func faultedLayout(t *testing.T, desc string, dark int) (posix.FS, func()) {
	faults := make([]*posix.FaultFS, 3)
	backends := make([]posix.FS, 3)
	for i := range backends {
		faults[i] = posix.NewFaultFS(posix.NewMemFS())
		backends[i] = faults[i]
	}
	l, err := posix.LayoutFor(desc, 3)
	if err != nil {
		t.Fatal(err)
	}
	after := func() {}
	if dark >= 0 {
		after = faults[dark].Kill
	}
	return posix.NewLayoutFS(l, nil, backends...), after
}

// TestIsContainerOneStat pins IsContainer as one Stat of the access
// file: a missing path, a regular file (under which the access file is
// ENOTDIR) and a plain directory are not containers, a container is —
// and open still refuses a plain directory with EISDIR.
func TestIsContainerOneStat(t *testing.T) {
	for _, st := range listingStores[:3] {
		t.Run(st.name, func(t *testing.T) {
			store, _ := st.make(t)
			if err := store.Mkdir("/backend", 0o755); err != nil {
				t.Fatal(err)
			}
			f, err := New(store).Open("/backend/c", posix.O_CREAT|posix.O_WRONLY, 0, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Close(0); err != nil {
				t.Fatal(err)
			}
			fd, err := store.Open("/backend/file", posix.O_CREAT|posix.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			store.Close(fd)
			if err := store.Mkdir("/backend/dir", 0o755); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Stat("/backend/file/" + accessFile); !errors.Is(err, posix.ENOTDIR) {
				t.Fatalf("access file under a regular file: %v, want ENOTDIR", err)
			}

			calls := &callCount{}
			p := New(posix.Interpose(store, calls))
			for _, c := range []struct {
				path string
				want bool
			}{{"/backend/none", false}, {"/backend/file", false}, {"/backend/dir", false}, {"/backend/c", true}} {
				before := calls.all.Load()
				if got := p.IsContainer(c.path); got != c.want {
					t.Errorf("IsContainer(%s) = %v, want %v", c.path, got, c.want)
				}
				if n := calls.all.Load() - before; n != 1 {
					t.Errorf("IsContainer(%s) made %d backend calls, want 1", c.path, n)
				}
			}
			if _, err := p.Open("/backend/dir", posix.O_RDONLY, 0, 0); !errors.Is(err, posix.EISDIR) {
				t.Errorf("open of a plain directory: %v, want EISDIR", err)
			}
		})
	}
}

// TestSignatureFromListing pins that the cache Signature built from the
// hostdirs' listings with attributes is byte-identical to the one built
// from Readdir plus a Stat of every dropping, over every store the
// capability has an answer for, a replica set with a dark member
// included.
func TestSignatureFromListing(t *testing.T) {
	const path = "/backend/c"
	for _, st := range listingStores {
		t.Run(st.name, func(t *testing.T) {
			store, after := st.make(t)
			if err := store.Mkdir("/backend", 0o755); err != nil {
				t.Fatal(err)
			}
			p := New(store)
			writeN1(t, p, path, 6, 3, 100)
			after()

			var want strings.Builder
			dirs, err := store.Readdir(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range dirs {
				if !d.IsDir || !strings.HasPrefix(d.Name, "hostdir.") {
					continue
				}
				files, err := store.Readdir(path + "/" + d.Name)
				if err != nil {
					t.Fatal(err)
				}
				for _, fe := range files {
					if !strings.HasPrefix(fe.Name, "dropping.index.") {
						continue
					}
					dropping := path + "/" + d.Name + "/" + fe.Name
					dst, err := store.Stat(dropping)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&want, "%s|%d|%d\n", dropping, dst.Size, dst.Mtime)
				}
			}
			got, err := p.indexSignature(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want.String() || strings.Count(want.String(), "\n") != 6 {
				t.Fatalf("signature from the listing:\n%s\nfrom Readdir+Stat:\n%s", got, want.String())
			}
		})
	}
}
