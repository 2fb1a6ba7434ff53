package plfs

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"ldplfs/internal/iostats"
	"ldplfs/internal/posix"
)

// treeState fingerprints one store below path: every node's kind, size
// and MemFS logical mtime, which any create, write, truncate, unlink or
// rename below it moves.
func treeState(t *testing.T, fs posix.FS, path string, into map[string]string) {
	t.Helper()
	st, err := fs.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	into[path] = fmt.Sprintf("dir=%v size=%d mtime=%d", st.IsDir(), st.Size, st.Mtime)
	if !st.IsDir() {
		return
	}
	entries, err := fs.Readdir(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		treeState(t, fs, path+"/"+e.Name, into)
	}
}

// mutations is the rig's state as a second doctor pass may not change
// it: the write and sync ops every backend's InstrumentFS counted, and
// each backend's tree.
func (r *replicaRig) mutations(t *testing.T, container string) (writes int64, trees []map[string]string) {
	t.Helper()
	for i, mem := range r.mems {
		layer := r.plane.Layer(fmt.Sprintf("b%d", i))
		writes += layer.OpCount(iostats.Write) + layer.OpCount(iostats.Sync)
		tree := map[string]string{}
		treeState(t, mem, container, tree)
		trees = append(trees, tree)
	}
	return writes, trees
}

// TestDoctorFixWindow enumerates every state the doctor repairs, one row
// each, on a replica-2 container over three instrumented backends. For
// every row a plain pass shows the symptom; one fix pass repairs it, so
// a plain pass afterwards is healthy and shows it no more; and a second
// fix pass prints what the plain pass printed while issuing no write and
// changing nothing on any backend. A diverged file without force is the
// one state fix refuses: every later pass repeats the same refusal, and
// none of them mutates anything.
func TestDoctorFixWindow(t *testing.T) {
	const c = "/backend/f"
	rows := []struct {
		name    string
		stage   func(t *testing.T, rig *replicaRig)
		symptom string // in the report before the fix, gone after
		sick    bool   // the plain pass before the fix reports unhealthy
		force   bool
		refused bool // fix leaves the state in place
	}{
		{
			name: "stale openhosts record",
			stage: func(t *testing.T, rig *replicaRig) {
				fd, err := rig.p.Backend().Open(c+"/openhosts/host.9", posix.O_CREAT|posix.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				rig.p.Backend().Close(fd)
			},
			symptom: "stale openhosts record: pid 9",
			sick:    true,
		},
		{
			name: "stale flattened record, no writers",
			stage: func(t *testing.T, rig *replicaRig) {
				stageStale(t, New(rig.p.Backend()), c, 7, []byte("newer"), 10)
			},
			symptom: "STALE",
		},
		{
			name: "stale flattened record, live writer",
			stage: func(t *testing.T, rig *replicaRig) {
				q := New(rig.p.Backend())
				f, err := q.Open(c, posix.O_WRONLY, 7, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte("newer"), 10, 7); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { f.Close(7) })
			},
			symptom: "STALE",
		},
		{
			name: "damaged flattened record",
			stage: func(t *testing.T, rig *replicaRig) {
				fd, err := rig.p.Backend().Open(flattenedPath(c, 1), posix.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rig.p.Backend().Pwrite(fd, []byte{0xff, 0xff}, 8); err != nil {
					t.Fatal(err)
				}
				rig.p.Backend().Close(fd)
			},
			symptom: "DAMAGED",
		},
		{
			name: "under-replicated file",
			stage: func(t *testing.T, rig *replicaRig) {
				rel, b := damageReplica(t, rig, c)
				if err := rig.mems[b].Unlink(c + "/" + rel); err != nil {
					t.Fatal(err)
				}
			},
			symptom: "under-replicated (want 2 copies:",
			sick:    true,
		},
		{
			name:    "diverged file, force",
			stage:   func(t *testing.T, rig *replicaRig) { damageReplica(t, rig, c) },
			symptom: "DIVERGED",
			sick:    true,
			force:   true,
		},
		{
			name:    "diverged file, no force",
			stage:   func(t *testing.T, rig *replicaRig) { damageReplica(t, rig, c) },
			symptom: "DIVERGED",
			sick:    true,
			refused: true,
		},
		{
			name: "missing layout descriptor",
			stage: func(t *testing.T, rig *replicaRig) {
				if err := rig.p.Backend().Unlink(c + "/" + layoutFile); err != nil {
					t.Fatal(err)
				}
			},
			symptom: "layout descriptor missing",
			sick:    true,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rig := newReplicaRig(t, 3, "replica-2")
			writeN1(t, rig.p, c, 4, 4, 128)
			doctor := func(fix bool) (string, bool) {
				t.Helper()
				var out bytes.Buffer
				healthy, err := rig.p.Doctor(&out, c, fix, row.force)
				if err != nil {
					t.Fatalf("doctor fix=%v: %v\n%s", fix, err, out.String())
				}
				return out.String(), healthy
			}
			if report, healthy := doctor(false); !healthy || strings.Contains(report, row.symptom) {
				t.Fatalf("fresh container: healthy=%v\n%s", healthy, report)
			}

			row.stage(t, rig)
			if report, healthy := doctor(false); healthy == row.sick || !strings.Contains(report, row.symptom) {
				t.Fatalf("staged state: healthy=%v, want %v, symptom %q\n%s", healthy, !row.sick, row.symptom, report)
			}

			fixed, healthy := doctor(true)
			if healthy == row.refused {
				t.Fatalf("fix pass: healthy=%v, want %v\n%s", healthy, !row.refused, fixed)
			}
			plain, healthy := doctor(false)
			if row.refused {
				if healthy || !strings.Contains(plain, row.symptom) {
					t.Fatalf("refused state gone after fix: healthy=%v\n%s", healthy, plain)
				}
			} else if !healthy || strings.Contains(plain, row.symptom) {
				t.Fatalf("one fix pass left the container unhealthy: healthy=%v\n-- fix --\n%s-- after --\n%s", healthy, fixed, plain)
			}

			writes, trees := rig.mutations(t, c)
			again, healthy := doctor(true)
			want := plain
			if row.refused {
				want = fixed
			}
			if again != want || healthy == row.refused {
				t.Fatalf("second fix pass (healthy=%v) differs:\n-- got --\n%s-- want --\n%s", healthy, again, want)
			}
			writesAfter, treesAfter := rig.mutations(t, c)
			if writesAfter != writes {
				t.Fatalf("second fix pass issued %d write/sync ops", writesAfter-writes)
			}
			for b := range trees {
				if !maps.Equal(trees[b], treesAfter[b]) {
					t.Fatalf("second fix pass changed backend %d:\n%v\n%v", b, trees[b], treesAfter[b])
				}
			}
		})
	}
}

// TestContainerSpreadCountsEveryCopy pins ContainerSpread against the
// backends themselves: under replica-2 every dropping has two copies,
// each backend is credited with the copies it holds, and a lost copy is
// credited to no one.
func TestContainerSpreadCountsEveryCopy(t *testing.T) {
	const c = "/backend/f"
	rig := newReplicaRig(t, 3, "replica-2")
	writeN1(t, rig.p, c, 6, 2, 64)
	listed := func() []int {
		t.Helper()
		counts := make([]int, len(rig.mems))
		for b, mem := range rig.mems {
			dirs, err := mem.Readdir(c)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range dirs {
				if !d.IsDir || !strings.HasPrefix(d.Name, "hostdir.") {
					continue
				}
				files, err := mem.Readdir(c + "/" + d.Name)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range files {
					if strings.HasPrefix(f.Name, "dropping.") {
						counts[b]++
					}
				}
			}
		}
		return counts
	}
	check := func(total int) {
		t.Helper()
		got, err := rig.p.ContainerSpread(c)
		if err != nil {
			t.Fatal(err)
		}
		want := listed()
		sum := 0
		for _, n := range want {
			sum += n
		}
		if !slices.Equal(got, want) || sum != total {
			t.Fatalf("ContainerSpread = %v, backends hold %v (%d droppings, want %d)", got, want, sum, total)
		}
	}
	check(6 * 2 * 2) // 6 writers x (data + index) x 2 copies

	rel, b := damageReplica(t, rig, c)
	if err := rig.mems[b].Unlink(c + "/" + rel); err != nil {
		t.Fatal(err)
	}
	check(6*2*2 - 1)
}

// TestParseOpenHost pins which openhosts names the doctor reads as
// records: a writer's host.<pid>, a communicator's
// comm.<first>-<last>.<nonce>, and nothing else — a reversed range, or
// one wider than maxCommPids, whose liveness probe would not end.
func TestParseOpenHost(t *testing.T) {
	cases := []struct {
		name           string
		ok, comm       bool
		first, lastPid uint32
	}{
		{"host.7", true, false, 7, 7},
		{"comm.0-3.00000000deadbeef", true, true, 0, 3},
		{"comm.5-5.1", true, true, 5, 5},
		{"comm.3-0.1", false, false, 0, 0},
		{"comm.0-4294967295.1", false, false, 0, 0},
		{"comm.x", false, false, 0, 0},
		{"index.flattened.1", false, false, 0, 0},
	}
	for _, c := range cases {
		rec, ok := parseOpenHost(c.name)
		if ok != c.ok || ok && (rec.Comm != c.comm || rec.Pid != c.first || rec.Last != c.lastPid || rec.Name != c.name) {
			t.Errorf("parseOpenHost(%q) = %+v, %v; want ok %v, comm %v, pids %d-%d", c.name, rec, ok, c.ok, c.comm, c.first, c.lastPid)
		}
	}
}
