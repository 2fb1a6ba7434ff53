package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// exec drives one in-process plfsctl invocation.
func exec(t *testing.T, argv ...string) (int, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(argv, &out, &errb)
	return code, out.String() + errb.String()
}

// TestStatsCoversAllLayers is the acceptance check for the telemetry
// plane's CLI surface: one `plfsctl stats` run must produce a snapshot
// with per-layer sections for all four instrumented stages — the posix
// backend, the plfs engines, the shared read caches and the MPI-IO
// collective path — with real traffic recorded in each.
func TestStatsCoversAllLayers(t *testing.T) {
	code, out := exec(t, "stats")
	if code != 0 {
		t.Fatalf("stats exited %d:\n%s", code, out)
	}
	for _, layer := range []string{"layer posix", "layer plfs", "layer readcache", "layer mpiio"} {
		if !strings.Contains(out, layer) {
			t.Errorf("snapshot missing %q:\n%s", layer, out)
		}
	}
	// Each layer carries substance, not just a heading: backend and
	// engine bytes, cache lookups, collective calls.
	for _, want := range []string{"bytes", "lookups = ", "collective_calls = "} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %q:\n%s", want, out)
		}
	}
}

// TestDoctorAcrossBackends is the end-to-end multi-backend doctor
// scenario: a container whose droppings span three host directories, one
// openhosts record whose writer lives on a shadow backend (live — the
// liveness probe must consult that backend, not just the canonical
// root), and one whose writer state is gone (stale — doctor flags it and
// -fix scrubs it).
func TestDoctorAcrossBackends(t *testing.T) {
	roots := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	backendFlags := []string{
		"-root", roots[0],
		"-backends", roots[1] + "," + roots[2],
		"-hostdirs", "6",
	}

	// Write a container through the same striped backend list the tool
	// will be pointed at.
	var stores []posix.FS
	for _, r := range roots {
		osfs, err := posix.NewOSFS(r)
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, osfs)
	}
	p := plfs.New(nil, plfs.EngineOptions{NumHostdirs: 6}, plfs.WithBackends(stores...))
	f, err := p.Open("/data", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// pid 0 -> hostdir.0 -> canonical; pid 1 -> hostdir.1 -> shadow 1;
	// pid 2 -> hostdir.2 -> shadow 2.
	for pid := uint32(0); pid < 3; pid++ {
		if _, err := f.Write(bytes.Repeat([]byte{byte(pid + 1)}, 256), int64(pid)*256, pid); err != nil {
			t.Fatal(err)
		}
	}
	for pid := uint32(0); pid < 3; pid++ {
		if err := f.Close(pid); err != nil {
			t.Fatal(err)
		}
	}

	// Forge crash leftovers in the canonical openhosts dir: pid 1's
	// dropping survives on shadow backend 1 (live record), pid 4 has no
	// dropping anywhere (stale record).
	for _, name := range []string{"host.1", "host.4"} {
		if err := os.WriteFile(filepath.Join(roots[0], "data", "openhosts", name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// info reports the striped layout.
	code, out := exec(t, append(backendFlags, "info", "/data")...)
	if code != 0 {
		t.Fatalf("info exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "logical size: 768 bytes") {
		t.Fatalf("info missing size:\n%s", out)
	}
	if !strings.Contains(out, "backends:     3") {
		t.Fatalf("info missing backend spread:\n%s", out)
	}

	// doctor flags exactly the stale record and exits nonzero.
	code, out = exec(t, append(backendFlags, "doctor", "/data")...)
	if code != 1 {
		t.Fatalf("doctor exit %d (want 1):\n%s", code, out)
	}
	if !strings.Contains(out, "stale openhosts record: pid 4") {
		t.Fatalf("doctor did not flag pid 4:\n%s", out)
	}
	if strings.Contains(out, "stale openhosts record: pid 1") {
		t.Fatalf("doctor flagged live shadow-backend writer pid 1:\n%s", out)
	}
	if !strings.Contains(out, "(1 live, 1 stale)") {
		t.Fatalf("doctor counts wrong:\n%s", out)
	}

	// Pointed at the canonical root alone, the tool cannot see shadow
	// droppings — the live pid-1 record would be misdiagnosed. The
	// backend list is part of the container's identity.
	code, out = exec(t, "-root", roots[0], "-hostdirs", "6", "doctor", "/data")
	if code != 1 || !strings.Contains(out, "stale openhosts record: pid 1") {
		t.Fatalf("single-root doctor should misdiagnose pid 1 (exit %d):\n%s", code, out)
	}

	// -fix scrubs the stale record and only it.
	code, out = exec(t, append(backendFlags, "-fix", "doctor", "/data")...)
	if code != 0 {
		t.Fatalf("doctor -fix exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "removed 1 stale records") {
		t.Fatalf("doctor -fix did not scrub:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(roots[0], "data", "openhosts", "host.1")); err != nil {
		t.Fatalf("live record scrubbed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(roots[0], "data", "openhosts", "host.4")); !os.IsNotExist(err) {
		t.Fatalf("stale record survived: %v", err)
	}

	// A clean container passes doctor with exit 0.
	code, out = exec(t, append(backendFlags, "doctor", "/data")...)
	if code != 0 || !strings.Contains(out, "(1 live, 0 stale)") {
		t.Fatalf("post-fix doctor exit %d:\n%s", code, out)
	}
}

// TestCtlCommandsAcrossBackends covers the remaining subcommands over a
// striped container: index dump, compact, flatten, rm.
func TestCtlCommandsAcrossBackends(t *testing.T) {
	roots := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	backendFlags := []string{
		"-root", roots[0],
		"-backends", roots[1] + "," + roots[2],
		"-hostdirs", "6",
	}
	var stores []posix.FS
	for _, r := range roots {
		osfs, err := posix.NewOSFS(r)
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, osfs)
	}
	p := plfs.New(nil, plfs.EngineOptions{NumHostdirs: 6}, plfs.WithBackends(stores...))
	f, err := p.Open("/data", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for pid := uint32(0); pid < 4; pid++ {
		if _, err := f.Write(bytes.Repeat([]byte{'a' + byte(pid)}, 128), int64(pid)*128, pid); err != nil {
			t.Fatal(err)
		}
	}
	for pid := uint32(0); pid < 4; pid++ {
		f.Close(pid)
	}

	code, out := exec(t, append(backendFlags, "index", "/data")...)
	if code != 0 || !strings.Contains(out, "384") { // extent at logical 384
		t.Fatalf("index exit %d:\n%s", code, out)
	}
	code, out = exec(t, append(backendFlags, "compact", "/data")...)
	if code != 0 || !strings.Contains(out, "4 -> 1 index droppings") {
		t.Fatalf("compact exit %d:\n%s", code, out)
	}
	code, out = exec(t, append(backendFlags, "flatten", "/data", "/data.flat")...)
	if code != 0 || !strings.Contains(out, "(512 bytes)") {
		t.Fatalf("flatten exit %d:\n%s", code, out)
	}
	flat, err := os.ReadFile(filepath.Join(roots[0], "data.flat"))
	if err != nil || len(flat) != 512 {
		t.Fatalf("flat file: %d bytes, %v", len(flat), err)
	}
	for pid := 0; pid < 4; pid++ {
		for i := 0; i < 128; i++ {
			if flat[pid*128+i] != 'a'+byte(pid) {
				t.Fatalf("flat byte %d = %q", pid*128+i, flat[pid*128+i])
			}
		}
	}
	code, out = exec(t, append(backendFlags, "rm", "/data")...)
	if code != 0 {
		t.Fatalf("rm exit %d:\n%s", code, out)
	}
	for i, r := range roots {
		if _, err := os.Stat(filepath.Join(r, "data")); !os.IsNotExist(err) {
			t.Fatalf("container survived rm on backend %d: %v", i, err)
		}
	}
}

// TestDoctorIndexHealth covers the flattened-index half of doctor: a
// fresh record is reported and left strictly alone by -fix; a stale one
// is reported, demotes nothing, and -fix refreshes it in place (no live
// writers) to a new generation.
func TestDoctorIndexHealth(t *testing.T) {
	root := t.TempDir()
	osfs, err := posix.NewOSFS(root)
	if err != nil {
		t.Fatal(err)
	}
	p := plfs.New(osfs, plfs.EngineOptions{NumHostdirs: 4})
	f, err := p.Open("/data", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for pid := uint32(0); pid < 3; pid++ {
		if _, err := f.Write(bytes.Repeat([]byte{byte(pid + 1)}, 100), int64(pid)*100, pid); err != nil {
			t.Fatal(err)
		}
	}
	for pid := uint32(0); pid < 3; pid++ {
		if err := f.Close(pid); err != nil {
			t.Fatal(err)
		}
	}
	flags := []string{"-root", root, "-hostdirs", "4"}

	// Clean close wrote gen 1; doctor reports it fresh.
	code, out := exec(t, append(flags, "doctor", "/data")...)
	if code != 0 || !strings.Contains(out, "index: 3 droppings") || !strings.Contains(out, "flattened index: gen 1, 3 extents, fresh") {
		t.Fatalf("doctor exit %d:\n%s", code, out)
	}

	// -fix must leave a fresh record alone.
	recordPath := filepath.Join(root, "data", "index.flattened.1")
	before, err := os.ReadFile(recordPath)
	if err != nil {
		t.Fatal(err)
	}
	code, out = exec(t, append(flags, "-fix", "doctor", "/data")...)
	if code != 0 || strings.Contains(out, "refreshed") || strings.Contains(out, "removed") {
		t.Fatalf("doctor -fix touched a fresh record (exit %d):\n%s", code, out)
	}
	after, err := os.ReadFile(recordPath)
	if err != nil || !bytes.Equal(before, after) {
		t.Fatalf("fresh flattened record mutated by -fix: %v", err)
	}

	// Stage staleness: newer raw droppings behind the record's back.
	stale := plfs.New(osfs, plfs.EngineOptions{NumHostdirs: 4}, plfs.IndexOptions{DisableAutoFlatten: true})
	g, err := stale.Open("/data", posix.O_WRONLY, 7, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("newer"), 300, 7); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(7); err != nil {
		t.Fatal(err)
	}
	code, out = exec(t, append(flags, "doctor", "/data")...)
	if code != 0 || !strings.Contains(out, "flattened index: gen 1 STALE") {
		t.Fatalf("doctor on stale record exit %d:\n%s", code, out)
	}

	// -fix refreshes in place: gen 2, fresh again, and reads still serve
	// the post-staleness bytes.
	code, out = exec(t, append(flags, "-fix", "doctor", "/data")...)
	if code != 0 || !strings.Contains(out, "refreshed flattened index to gen 2") {
		t.Fatalf("doctor -fix exit %d:\n%s", code, out)
	}
	code, out = exec(t, append(flags, "doctor", "/data")...)
	if code != 0 || !strings.Contains(out, "flattened index: gen 2, 4 extents, fresh") {
		t.Fatalf("post-refresh doctor exit %d:\n%s", code, out)
	}
	code, out = exec(t, append(flags, "info", "/data")...)
	if code != 0 || !strings.Contains(out, "logical size: 305 bytes") || !strings.Contains(out, "flattened:    gen 2") {
		t.Fatalf("info exit %d:\n%s", code, out)
	}
}

// TestCompactWritesFlattened: the compact subcommand both consolidates
// raw droppings and publishes the flattened record.
func TestCompactWritesFlattened(t *testing.T) {
	root := t.TempDir()
	osfs, err := posix.NewOSFS(root)
	if err != nil {
		t.Fatal(err)
	}
	p := plfs.New(osfs, plfs.EngineOptions{NumHostdirs: 4}, plfs.IndexOptions{DisableAutoFlatten: true})
	f, err := p.Open("/data", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for pid := uint32(0); pid < 4; pid++ {
		if _, err := f.Write(bytes.Repeat([]byte{'a' + byte(pid)}, 64), int64(pid)*64, pid); err != nil {
			t.Fatal(err)
		}
	}
	for pid := uint32(0); pid < 4; pid++ {
		f.Close(pid)
	}
	flags := []string{"-root", root, "-hostdirs", "4"}
	code, out := exec(t, append(flags, "compact", "/data")...)
	if code != 0 || !strings.Contains(out, "4 -> 1 index droppings") || !strings.Contains(out, "flattened index: gen 1, 4 extents") {
		t.Fatalf("compact exit %d:\n%s", code, out)
	}
	if _, err := os.Stat(filepath.Join(root, "data", "index.flattened.1")); err != nil {
		t.Fatalf("compact did not publish the flattened record: %v", err)
	}
}

// TestDoctorFixOrdersOpenhostsBeforeFlattened is the regression test
// for the classic degraded container: a flattened record that looks
// stale only because dead writers' openhosts records linger. One -fix
// run must scrub the openhosts leftovers first and then recognise the
// record as fresh again — not delete it with a "writers are live"
// excuse.
func TestDoctorFixOrdersOpenhostsBeforeFlattened(t *testing.T) {
	root := t.TempDir()
	osfs, err := posix.NewOSFS(root)
	if err != nil {
		t.Fatal(err)
	}
	p := plfs.New(osfs, plfs.EngineOptions{NumHostdirs: 4})
	f, err := p.Open("/data", posix.O_CREAT|posix.O_WRONLY, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{7}, 256), 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(1); err != nil {
		t.Fatal(err)
	}
	// Forge a dead writer's leftover: pid 9 has no dropping anywhere.
	if err := os.WriteFile(filepath.Join(root, "data", "openhosts", "host.9"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	flags := []string{"-root", root, "-hostdirs", "4"}

	// Without -fix: degraded, and the record reads as stale (pinned by
	// the forged openhosts record).
	code, out := exec(t, append(flags, "doctor", "/data")...)
	if code != 1 || !strings.Contains(out, "flattened index: gen 1 STALE") {
		t.Fatalf("doctor exit %d:\n%s", code, out)
	}

	// One -fix run: scrub, then the record is fresh again — untouched.
	code, out = exec(t, append(flags, "-fix", "doctor", "/data")...)
	if code != 0 || !strings.Contains(out, "removed 1 stale records") {
		t.Fatalf("doctor -fix exit %d:\n%s", code, out)
	}
	if strings.Contains(out, "stale flattened record") || strings.Contains(out, "refreshed flattened") {
		t.Fatalf("-fix touched a record that was only pinned by dead openhosts:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(root, "data", "index.flattened.1")); err != nil {
		t.Fatalf("flattened record deleted by -fix: %v", err)
	}
	code, out = exec(t, append(flags, "doctor", "/data")...)
	if code != 0 || !strings.Contains(out, "flattened index: gen 1, 1 extents, fresh") {
		t.Fatalf("post-fix doctor exit %d:\n%s", code, out)
	}
}

// replicaPlfs builds a plfs instance over the given host roots under a
// replica-2 layout — the writer side of the doctor replication tests.
func replicaPlfs(t *testing.T, roots []string) *plfs.FS {
	t.Helper()
	backends := make([]posix.FS, len(roots))
	for i, r := range roots {
		osfs, err := posix.NewOSFS(r)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = osfs
	}
	layout, err := posix.LayoutFor("replica-2", len(roots))
	if err != nil {
		t.Fatal(err)
	}
	striped := posix.NewLayoutFS(layout, posix.ReplicaOptions{}, backends...)
	return plfs.New(striped, plfs.EngineOptions{NumHostdirs: 6})
}

// findReplicatedDropping walks the host roots for a data dropping that
// exists on exactly two of them, returning its container-relative path
// and the roots holding a copy.
func findReplicatedDropping(t *testing.T, roots []string, container string) (string, []string) {
	t.Helper()
	copies := map[string][]string{}
	for _, root := range roots {
		matches, err := filepath.Glob(filepath.Join(root, container, "hostdir.*", "dropping.data.*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			rel, err := filepath.Rel(filepath.Join(root, container), m)
			if err != nil {
				t.Fatal(err)
			}
			copies[rel] = append(copies[rel], root)
		}
	}
	for rel, owners := range copies {
		if len(owners) == 2 {
			return rel, owners
		}
	}
	t.Fatal("no 2-copy data dropping found")
	return "", nil
}

// TestDoctorReplication drives the replication side of doctor end to
// end over real directory trees: a healthy replica-2 container reports
// clean; a deleted copy is reported as under-replicated and doctor
// exits 1 without -fix; -fix re-replicates and a re-run is clean (and
// idempotent); a truncated copy is DIVERGED, refused by plain -fix
// (exit 1), and rebuilt only under -fix -force.
func TestDoctorReplication(t *testing.T) {
	roots := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	flags := []string{
		"-root", roots[0],
		"-backends", roots[1] + "," + roots[2],
		"-layout", "replica-2",
		"-hostdirs", "6",
	}

	p := replicaPlfs(t, roots)
	f, err := p.Open("/data", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for pid := uint32(0); pid < 3; pid++ {
		if _, err := f.Write(bytes.Repeat([]byte{byte(pid + 1)}, 512), int64(pid)*512, pid); err != nil {
			t.Fatal(err)
		}
	}
	for pid := uint32(0); pid < 3; pid++ {
		if err := f.Close(pid); err != nil {
			t.Fatal(err)
		}
	}

	// info reports the persisted layout; remember the healthy summary.
	code, out := exec(t, append(flags, "info", "/data")...)
	if code != 0 || !strings.Contains(out, "layout:       replica-2") {
		t.Fatalf("info exit %d:\n%s", code, out)
	}
	healthySize := out

	// Healthy container: doctor is clean and exits 0.
	code, out = exec(t, append(flags, "doctor", "/data")...)
	if code != 0 {
		t.Fatalf("doctor on healthy container exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "replication: replica-2") ||
		!strings.Contains(out, "0 under-replicated, 0 diverged") {
		t.Fatalf("healthy replication report wrong:\n%s", out)
	}

	// Delete one copy: under-replication, doctor refuses silently fixing.
	rel, owners := findReplicatedDropping(t, roots, "data")
	if err := os.Remove(filepath.Join(owners[1], "data", rel)); err != nil {
		t.Fatal(err)
	}
	code, out = exec(t, append(flags, "doctor", "/data")...)
	if code != 1 {
		t.Fatalf("doctor on under-replicated container exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "1 under-replicated") ||
		!strings.Contains(out, "under-replicated (want 2 copies:") ||
		!strings.Contains(out, "re-run with -fix") {
		t.Fatalf("under-replication report wrong:\n%s", out)
	}

	// -fix re-replicates and restores full redundancy. Flags are also
	// accepted after the subcommand — the order a user naturally types.
	code, out = exec(t, append(flags, "doctor", "-fix", "/data")...)
	if code != 0 || !strings.Contains(out, "replication restored") {
		t.Fatalf("doctor -fix exit %d:\n%s", code, out)
	}
	if _, err := os.Stat(filepath.Join(owners[1], "data", rel)); err != nil {
		t.Fatalf("copy not rebuilt: %v", err)
	}
	// Idempotence: a second -fix pass has nothing to repair.
	code, out = exec(t, append(flags, "-fix", "doctor", "/data")...)
	if code != 0 || !strings.Contains(out, "0 under-replicated, 0 diverged") {
		t.Fatalf("doctor -fix not idempotent, exit %d:\n%s", code, out)
	}

	// Divergence: truncate one copy. Plain -fix must refuse it.
	full := filepath.Join(owners[0], "data", rel)
	st, err := os.Stat(full)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(full, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	code, out = exec(t, append(flags, "-fix", "doctor", "/data")...)
	if code != 1 {
		t.Fatalf("doctor -fix on diverged container exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "DIVERGED") || !strings.Contains(out, "skipped 1 diverged") ||
		!strings.Contains(out, "-fix -force") {
		t.Fatalf("divergence report wrong:\n%s", out)
	}
	if got, err := os.Stat(full); err != nil || got.Size() != st.Size()/2 {
		t.Fatalf("plain -fix touched a diverged copy: %v, %v", got, err)
	}

	// -fix -force rebuilds the short copy from the longest one.
	code, out = exec(t, append(flags, "doctor", "-fix", "-force", "/data")...)
	if code != 0 || !strings.Contains(out, "replication restored") {
		t.Fatalf("doctor -fix -force exit %d:\n%s", code, out)
	}
	if got, err := os.Stat(full); err != nil || got.Size() != st.Size() {
		t.Fatalf("forced repair did not rebuild the copy: %v, %v", got, err)
	}

	// The logical container is unchanged by the whole heal cycle.
	code, out = exec(t, append(flags, "info", "/data")...)
	if code != 0 || out != healthySize {
		t.Fatalf("info changed across heal cycle (exit %d):\n-- before --\n%s\n-- after --\n%s", code, healthySize, out)
	}
}

// TestDoctorLayoutFlagValidation pins the CLI-side layout validation:
// a replica layout without backends, or wider than the backend list,
// is a usage error before any filesystem work happens.
func TestDoctorLayoutFlagValidation(t *testing.T) {
	root := t.TempDir()
	code, out := exec(t, "-root", root, "-layout", "replica-2", "doctor", "/data")
	if code != 1 || !strings.Contains(out, "needs 2 backends") {
		t.Fatalf("replica layout without backends: exit %d\n%s", code, out)
	}
	code, out = exec(t, "-root", root, "-backends", t.TempDir(), "-layout", "replica-3", "doctor", "/data")
	if code != 1 || !strings.Contains(out, "needs 3 backends, have 2") {
		t.Fatalf("replica-3 over 2 backends: exit %d\n%s", code, out)
	}
	code, out = exec(t, "-root", root, "-backends", t.TempDir(), "-layout", "bogus", "doctor", "/data")
	if code != 1 || !strings.Contains(out, "unknown layout") {
		t.Fatalf("bogus layout: exit %d\n%s", code, out)
	}
}
