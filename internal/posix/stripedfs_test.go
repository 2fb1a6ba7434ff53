package posix

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func striped3() (*StripedFS, []*MemFS) {
	backends := []*MemFS{NewMemFS(), NewMemFS(), NewMemFS()}
	return NewStripedFS(backends[0], backends[1], backends[2]), backends
}

// The composite must satisfy the same concurrent positional-I/O contract
// as every other backend — the read and write engines fan goroutines out
// over striped descriptors exactly as over plain ones.
func TestStripedFSConcurrentPread(t *testing.T) {
	s, _ := striped3()
	testConcurrentPread(t, s)
}

func TestStripedFSConcurrentPwrite(t *testing.T) {
	s, _ := striped3()
	testConcurrentPwrite(t, s)
}

// Routed concurrency: the same contract through a hostdir path, so the
// descriptors land on a non-canonical backend.
func TestStripedFSConcurrentPreadRouted(t *testing.T) {
	s, _ := striped3()
	if err := s.Mkdir("/c", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Mkdir("/c/hostdir.1", 0o755); err != nil {
		t.Fatal(err)
	}
	// Re-run the pwrite contract against a file inside the routed hostdir.
	const chunk, chunks = 1024, 16
	fd, err := s.Open("/c/hostdir.1/dropping.data.1", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, chunk*chunks)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := WriteFull(s, fd, data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := ReadFull(s, fd, got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("routed pread byte %d = %d want %d", i, got[i], data[i])
		}
	}
	if err := s.Close(fd); err != nil {
		t.Fatal(err)
	}
}

// A striped FS over non-hostdir paths must be observationally identical
// to a plain backend — the same differential rig that validates MemFS
// against the OS validates the composite against MemFS.
func TestStripedFSMatchesMemFS(t *testing.T) {
	rows := []struct {
		layout string
		n      int
	}{{"mod-n", 1}, {"mod-n", 3}, {"replica-2", 3}, {"replica-3", 3}}
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, row := range rows {
				t.Run(fmt.Sprintf("%sx%d", row.layout, row.n), func(t *testing.T) {
					layout, err := LayoutFor(row.layout, row.n)
					if err != nil {
						t.Fatal(err)
					}
					backends := make([]FS, row.n)
					for i := range backends {
						backends[i] = NewMemFS()
					}
					s := NewLayoutFS(layout, nil, backends...)
					runDifferential(t, rand.New(rand.NewSource(seed)), s, NewMemFS(), 400)
				})
			}
		})
	}
}

func TestStripedBackendFor(t *testing.T) {
	s, _ := striped3()
	cases := []struct {
		path string
		want int
	}{
		{"/backend/data", 0},
		{"/backend/data/.plfsaccess", 0},
		{"/backend/data/meta/size.3", 0},
		{"/backend/data/openhosts/host.7", 0},
		{"/backend/data/hostdir.0", 0},
		{"/backend/data/hostdir.1/dropping.data.1", 1},
		{"/backend/data/hostdir.2/dropping.index.2", 2},
		{"/backend/data/hostdir.3", 0},  // 3 % 3
		{"/backend/data/hostdir.31", 1}, // 31 % 3
	}
	for _, c := range cases {
		if got := s.ownersOf(c.path)[0]; got != c.want {
			t.Errorf("primary of %s = %d, want %d", c.path, got, c.want)
		}
	}
	// Non-numeric hostdir suffixes still route deterministically and
	// consistently between calls.
	a := s.ownersOf("/x/hostdir.trunc/f")[0]
	if b := s.ownersOf("/x/hostdir.trunc/f")[0]; a != b || a < 0 || a >= 3 {
		t.Fatalf("non-numeric hostdir routing unstable: %d vs %d", a, b)
	}
}

// Droppings must physically land on the backend the placement rule
// names — that is what makes the fan-out real.
func TestStripedPlacement(t *testing.T) {
	s, backends := striped3()
	if err := s.Mkdir("/c", 0o755); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		hd := fmt.Sprintf("/c/hostdir.%d", k)
		if err := s.Mkdir(hd, 0o755); err != nil {
			t.Fatal(err)
		}
		fd, err := s.Open(fmt.Sprintf("%s/dropping.data.%d", hd, k), O_CREAT|O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(fd, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
		s.Close(fd)
	}
	for k := 0; k < 6; k++ {
		want := k % 3
		path := fmt.Sprintf("/c/hostdir.%d/dropping.data.%d", k, k)
		for bi, b := range backends {
			_, err := b.Stat(path)
			if bi == want && err != nil {
				t.Errorf("dropping for hostdir.%d missing on backend %d: %v", k, bi, err)
			}
			if bi != want && err == nil {
				t.Errorf("dropping for hostdir.%d leaked onto backend %d", k, bi)
			}
		}
	}
	// The canonical container files live only on backend 0.
	fd, err := s.Open("/c/.plfsaccess", O_CREAT|O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	s.Close(fd)
	if _, err := backends[0].Stat("/c/.plfsaccess"); err != nil {
		t.Fatalf("canonical file missing on backend 0: %v", err)
	}
	for bi := 1; bi < 3; bi++ {
		if _, err := backends[bi].Stat("/c/.plfsaccess"); err == nil {
			t.Fatalf("canonical file leaked onto backend %d", bi)
		}
	}
}

// Listing a container directory must surface hostdirs from every
// backend, deduplicated and name-ordered.
func TestStripedReaddirMerge(t *testing.T) {
	s, backends := striped3()
	if err := s.Mkdir("/c", 0o755); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if err := s.Mkdir(fmt.Sprintf("/c/hostdir.%d", k), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := s.Readdir("/c")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("merged Readdir returned %d entries, want 5: %+v", len(entries), entries)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Name >= entries[i].Name {
			t.Fatalf("merged Readdir not name-ordered: %+v", entries)
		}
	}
	// Each shadow backend holds only its own hostdirs under the mirrored
	// container directory.
	for bi, b := range backends {
		es, err := b.Readdir("/c")
		if err != nil {
			t.Fatalf("container dir not mirrored on backend %d: %v", bi, err)
		}
		for _, e := range es {
			if got := s.ownersOf("/c/" + e.Name)[0]; got != bi {
				t.Fatalf("backend %d holds %s, which routes to %d", bi, e.Name, got)
			}
		}
	}
}

// Canonical directory lifecycle is mirrored: mkdir creates the skeleton
// everywhere, rename carries it along, rmdir removes it everywhere.
func TestStripedMirrorLifecycle(t *testing.T) {
	s, backends := striped3()
	if err := s.Mkdir("/c", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Mkdir("/c", 0o755); !errors.Is(err, EEXIST) {
		t.Fatalf("second mkdir = %v, want EEXIST", err)
	}
	if err := s.Mkdir("/c/hostdir.1", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Rename("/c", "/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat("/d/hostdir.1"); err != nil {
		t.Fatalf("hostdir did not follow the rename: %v", err)
	}
	if err := s.Rmdir("/d/hostdir.1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	for bi, b := range backends {
		if _, err := b.Stat("/d"); err == nil {
			t.Fatalf("directory survived rmdir on backend %d", bi)
		}
	}
	// Renaming a dropping across hostdirs on different backends is a
	// cross-device link.
	if err := s.Mkdir("/c", 0o755); err != nil {
		t.Fatal(err)
	}
	s.Mkdir("/c/hostdir.1", 0o755)
	s.Mkdir("/c/hostdir.2", 0o755)
	fd, err := s.Open("/c/hostdir.1/f", O_CREAT|O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	s.Close(fd)
	if err := s.Rename("/c/hostdir.1/f", "/c/hostdir.2/f"); !errors.Is(err, EXDEV) {
		t.Fatalf("cross-backend rename = %v, want EXDEV", err)
	}
	if err := s.Rename("/c/hostdir.1/f", "/c/hostdir.1/g"); err != nil {
		t.Fatalf("same-backend routed rename: %v", err)
	}
}

// A dropping created under a hostdir whose skeleton never reached the
// owning backend (adoption of a container written before striping, or a
// racing mirror) must be recoverable: Mkdir and O_CREAT rebuild parents.
func TestStripedSkeletonRecovery(t *testing.T) {
	s, backends := striped3()
	// Create the container directory only on the canonical backend,
	// simulating a pre-striping container being adopted.
	if err := backends[0].Mkdir("/c", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Mkdir("/c/hostdir.1", 0o755); err != nil {
		t.Fatalf("routed mkdir without shadow skeleton: %v", err)
	}
	fd, err := s.Open("/c/hostdir.1/dropping.data.1", O_CREAT|O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("routed create without shadow skeleton: %v", err)
	}
	s.Close(fd)
	if _, err := backends[1].Stat("/c/hostdir.1/dropping.data.1"); err != nil {
		t.Fatalf("recovered dropping not on owning backend: %v", err)
	}
}
