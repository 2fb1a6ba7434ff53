package posix

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ldplfs/internal/iostats"
)

// hidden hides every optional capability of the FS it embeds.
type hidden struct{ FS }

// serialReaddir is the reference a striped Readdir must match: the
// serial loop it replaced, one backend after another in scan order
// through across.
func serialReaddir(s *StripedFS, path string) ([]DirEntry, error) {
	owners := s.ownersOf(path)
	scan := owners
	if !routed(path) {
		scan = s.mirrored(owners)
	}
	var entries []DirEntry
	err := s.across(scan, owners, func(i int) error {
		list, err := s.backends[i].Readdir(path)
		entries = append(entries, list...)
		return err
	})
	if err != nil {
		return nil, err
	}
	slices.SortStableFunc(entries, func(a, b DirEntry) int { return strings.Compare(a.Name, b.Name) })
	return slices.CompactFunc(entries, func(a, b DirEntry) bool { return a.Name == b.Name }), nil
}

// serialReaddirStat is the reference of the striped listing with
// attributes: the same serial loop, each name's copy taken from the
// first of the entry's replica set that listed it (whose copy Stat
// returns), else from the first backend scanned that did.
func serialReaddirStat(s *StripedFS, path string) ([]DirEntryStat, error) {
	owners := s.ownersOf(path)
	scan := owners
	if !routed(path) {
		scan = s.mirrored(owners)
	}
	copies := map[string]map[int]DirEntryStat{}
	var names []string
	err := s.across(scan, owners, func(i int) error {
		list, err := ReaddirStat(s.backends[i], path)
		for _, e := range list {
			if copies[e.Name] == nil {
				copies[e.Name] = map[int]DirEntryStat{}
				names = append(names, e.Name)
			}
			copies[e.Name][i] = e
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(names)
	out := []DirEntryStat{}
	for _, name := range names {
		for _, b := range append(s.ownersOf(path+"/"+name), scan...) {
			if e, ok := copies[name][b]; ok {
				out = append(out, e)
				break
			}
		}
	}
	return out, nil
}

// listingTree populates a striped store: a canonical directory /c with
// a file, hostdirs 0..2 with droppings, and on backend 0 a stray
// hostdir.2 holding a file no other copy has — under mod-3 a shadow's
// stray copy, under replica-2 a diverged second replica — so which
// copy a listing keeps shows in its attributes.
func listingTree(t *testing.T, s *StripedFS, inner []FS) {
	t.Helper()
	for _, dir := range []string{"/c", "/c/hostdir.0", "/c/hostdir.1", "/c/hostdir.2"} {
		if err := s.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	mustWriteFile(t, s, "/c/f", []byte("canonical"))
	mustWriteFile(t, s, "/c/hostdir.1/d", []byte("dropping"))
	mustWriteFile(t, s, "/c/hostdir.2/e", []byte("e"))
	if err := MkdirAll(inner[0], "/c/hostdir.2", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, inner[0], "/c/hostdir.2/stray", []byte("stray"))
}

// TestListingMatchesSerialFold enumerates every per-backend outcome of a
// listing — ok, ENOENT, EIO, EACCES on each of 3 backends — under mod-3
// and replica-2, for a canonical and a routed directory: the concurrent
// Readdir and ReaddirStat return exactly the entries and the error of
// the serial reference fold.
func TestListingMatchesSerialFold(t *testing.T) {
	outcomes := []error{nil, ENOENT, EIO, EACCES}
	for _, w := range []int{1, 2} {
		for _, dir := range []string{"/c", "/c/hostdir.1"} {
			for o := 0; o < 64; o++ {
				set := [3]error{outcomes[o%4], outcomes[o/4%4], outcomes[o/16]}
				var name [3]string
				for i, err := range set {
					name[i] = "ok"
					if err != nil {
						name[i], _, _ = strings.Cut(err.Error(), ":")
					}
				}
				t.Run(fmt.Sprintf("w=%d%s/%s", w, dir, strings.Join(name[:], ",")), func(t *testing.T) {
					s, faults := newReplicaFS(t, 3, w, nil)
					inner := make([]FS, 3)
					for i, f := range faults {
						inner[i] = f.Unwrap()
					}
					listingTree(t, s, inner)
					for i, err := range set {
						if err != nil {
							faults[i].Inject(&FaultRule{Op: FaultMeta, PathContains: dir, Err: err})
						}
					}
					wantEnts, wantErr := serialReaddir(s, dir)
					ents, err := s.Readdir(dir)
					if err != wantErr || fmt.Sprint(ents) != fmt.Sprint(wantEnts) {
						t.Errorf("Readdir = %v, %v; the serial fold gives %v, %v", ents, err, wantEnts, wantErr)
					}
					wantStats, wantErr := serialReaddirStat(s, dir)
					stats, err := s.ReaddirStat(dir)
					if err != wantErr || fmt.Sprint(stats) != fmt.Sprint(wantStats) {
						t.Errorf("ReaddirStat = %v, %v; the serial fold gives %v, %v", stats, err, wantStats, wantErr)
					}
				})
			}
		}
	}
}

// gate holds every listing that reaches it until want of them have
// arrived, or refuses it once the deadline passes.
type gate struct {
	want    int32
	arrived atomic.Int32
	all     chan struct{}
}

var errListedAlone = errors.New("listing issued alone: the others never arrived")

func (g *gate) Before(op Op) (Op, error) {
	if op.Call != CallReaddir && op.Call != CallReaddirStat {
		return op, nil
	}
	if g.arrived.Add(1) == g.want {
		close(g.all)
	}
	select {
	case <-g.all:
		return op, nil
	case <-time.After(5 * time.Second):
		return op, errListedAlone
	}
}

func (g *gate) After(Op, int64, error) {}

// TestListingsInFlightTogether holds each backend's listing until every
// backend of the scan has received its own: a listing that visited the
// backends one after another would wait out the deadline on the first.
func TestListingsInFlightTogether(t *testing.T) {
	for _, c := range []struct {
		desc string
		dir  string
		scan int32
	}{{"mod-n", "/c", 3}, {"replica-2", "/c", 3}, {"replica-2", "/c/hostdir.1", 2}} {
		for _, call := range []string{"Readdir", "ReaddirStat"} {
			t.Run(c.desc+c.dir+"/"+call, func(t *testing.T) {
				g := &gate{want: c.scan, all: make(chan struct{})}
				inner := []FS{NewMemFS(), NewMemFS(), NewMemFS()}
				backends := make([]FS, 3)
				for i := range backends {
					backends[i] = Interpose(inner[i], g)
				}
				layout, err := LayoutFor(c.desc, 3)
				if err != nil {
					t.Fatal(err)
				}
				s := NewLayoutFS(layout, nil, backends...)
				listingTree(t, s, inner)
				if call == "Readdir" {
					_, err = s.Readdir(c.dir)
				} else {
					_, err = s.ReaddirStat(c.dir)
				}
				if err != nil {
					t.Fatalf("%s(%s): %v", call, c.dir, err)
				}
				if got := g.arrived.Load(); got != c.scan {
					t.Fatalf("%d listings reached the backends, want %d", got, c.scan)
				}
			})
		}
	}
}

// TestReaddirStatIdentity pins the capability's answer to Readdir plus
// a Stat per entry — name, kind, size and mtime — for every directory
// of a container-shaped tree, over every store that answers it and over
// the fallback.
func TestReaddirStatIdentity(t *testing.T) {
	striped := func(r, dark int) func(t *testing.T) (FS, func()) {
		return func(t *testing.T) (FS, func()) {
			s, faults := newReplicaFS(t, 3, r, nil)
			if dark < 0 {
				return s, func() {}
			}
			return s, faults[dark].Kill
		}
	}
	stores := []struct {
		name string
		make func(t *testing.T) (FS, func())
	}{
		{"memfs", func(*testing.T) (FS, func()) { return NewMemFS(), func() {} }},
		{"osfs", func(t *testing.T) (FS, func()) { return newOS(t), func() {} }},
		{"fallback", func(*testing.T) (FS, func()) { return hidden{NewMemFS()}, func() {} }},
		{"mod-3", striped(1, -1)},
		{"replica-2", striped(2, -1)},
		{"replica-2/dark", striped(2, 1)},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			fs, darken := st.make(t)
			fillTree(t, fs)
			darken()
			for _, dir := range []string{"/", "/c", "/c/hostdir.0", "/c/hostdir.1", "/c/hostdir.2", "/c/hostdir.3", "/c/meta"} {
				got, err := ReaddirStat(fs, dir)
				if err != nil {
					t.Fatalf("ReaddirStat(%s): %v", dir, err)
				}
				ents, err := fs.Readdir(dir)
				if err != nil {
					t.Fatalf("Readdir(%s): %v", dir, err)
				}
				var want []string
				for _, e := range ents {
					st, err := fs.Stat(strings.TrimSuffix(dir, "/") + "/" + e.Name)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, fmt.Sprintf("%s dir=%v size=%d mtime=%d", e.Name, e.IsDir, st.Size, st.Mtime))
				}
				var have []string
				for _, e := range got {
					have = append(have, fmt.Sprintf("%s dir=%v size=%d mtime=%d", e.Name, e.IsDir(), e.Size, e.Mtime))
				}
				if !slices.Equal(have, want) {
					t.Errorf("ReaddirStat(%s):\n%s\nReaddir+Stat:\n%s", dir, strings.Join(have, "\n"), strings.Join(want, "\n"))
				}
			}
		})
	}
}

// fillTree writes a container-shaped tree: hostdirs of droppings of
// several sizes, a canonical file and an empty canonical directory.
func fillTree(t *testing.T, fs FS) {
	t.Helper()
	for _, dir := range []string{"/c", "/c/meta"} {
		if err := fs.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	mustWriteFile(t, fs, "/c/version", []byte("v3"))
	for k := 0; k < 4; k++ {
		dir := fmt.Sprintf("/c/hostdir.%d", k)
		if err := fs.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for pid := k; pid < 12; pid += 4 {
			mustWriteFile(t, fs, fmt.Sprintf("%s/dropping.data.%d", dir, pid), make([]byte, 100*pid+1))
			mustWriteFile(t, fs, fmt.Sprintf("%s/dropping.index.%d", dir, pid), make([]byte, 48*pid+16))
		}
	}
}

// TestReaddirStatOneMetaOp pins the interposer's rule for the listing
// with attributes: one meta op, whether or not the FS under the hooks
// has the capability — so InstrumentFS counts it once, and a FaultFS
// rule that refuses a directory's Readdir refuses it too, firing once.
func TestReaddirStatOneMetaOp(t *testing.T) {
	plane := iostats.NewPlane()
	fault := NewFaultFS(hidden{NewMemFS()})
	fs := NewInstrumentFS(fault, plane)
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustWriteFile(t, fs, fmt.Sprintf("/d/f%d", i), []byte("x"))
	}
	ls := plane.Layer("posix")
	before := ls.OpCount(iostats.Meta)
	if ents, err := ReaddirStat(fs, "/d"); err != nil || len(ents) != 3 {
		t.Fatalf("ReaddirStat = %v, %v", ents, err)
	}
	if n := ls.OpCount(iostats.Meta) - before; n != 1 {
		t.Fatalf("the listing counted as %d meta ops, want 1", n)
	}
	fault.Inject(&FaultRule{Op: FaultMeta, PathContains: "/d", Err: EACCES})
	if _, err := fs.Readdir("/d"); !errors.Is(err, EACCES) {
		t.Fatalf("Readdir under the rule: %v, want EACCES", err)
	}
	if _, err := ReaddirStat(fs, "/d"); !errors.Is(err, EACCES) {
		t.Fatalf("ReaddirStat under the rule: %v, want EACCES", err)
	}
	if n := fault.Fired(); n != 2 {
		t.Fatalf("the rule fired %d times for one Readdir and one ReaddirStat, want 2", n)
	}
}

// TestOSFSReaddirStatAllocs pins that OSFS's listing with attributes
// allocates no more per entry than its Readdir does: the stat of each
// entry builds no path and keeps its result on the stack.
func TestOSFSReaddirStatAllocs(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("the fstatat listing is wired up on linux/amd64")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the comparison only holds on plain builds")
	}
	o := newOS(t)
	allocs := func(entries int) (readdir, stat float64) {
		dir := fmt.Sprintf("/d%d", entries)
		if err := o.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < entries; i++ {
			mustWriteFile(t, o, fmt.Sprintf("%s/dropping.index.%d", dir, i), []byte("x"))
		}
		readdir = testing.AllocsPerRun(20, func() { o.Readdir(dir) })
		stat = testing.AllocsPerRun(20, func() { o.ReaddirStat(dir) })
		return readdir, stat
	}
	r8, s8 := allocs(8)
	r64, s64 := allocs(64)
	if s64 > r64 || (s64-s8) > (r64-r8) {
		t.Fatalf("ReaddirStat allocs %v (8 entries), %v (64); Readdir %v, %v", s8, s64, r8, r64)
	}
}
