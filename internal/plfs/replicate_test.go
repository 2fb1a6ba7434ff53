package plfs

import (
	"bytes"
	"strings"
	"testing"

	"ldplfs/internal/posix"
)

// damageReplica truncates one backend's copy of the first replicated
// dropping it finds, returning the damaged container-relative path and
// the backend index — the "backend died mid-write" divergence shape.
func damageReplica(t *testing.T, rig *replicaRig, container string) (string, int) {
	t.Helper()
	entries, err := rig.p.Backend().Readdir(container)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir || !strings.HasPrefix(e.Name, "hostdir.") {
			continue
		}
		dir := container + "/" + e.Name
		for b, mem := range rig.mems {
			sub, err := mem.Readdir(dir)
			if err != nil {
				continue
			}
			for _, f := range sub {
				if f.IsDir || !strings.HasPrefix(f.Name, "dropping.data.") {
					continue
				}
				path := dir + "/" + f.Name
				st, err := mem.Stat(path)
				if err != nil || st.Size < 2 {
					continue
				}
				if err := mem.Truncate(path, st.Size/2); err != nil {
					t.Fatal(err)
				}
				rel := strings.TrimPrefix(path, container+"/")
				return rel, b
			}
		}
	}
	t.Fatal("no replicated dropping found to damage")
	return "", -1
}

// TestReplicationHealthDetectsDivergence pins divergence detection and
// the force semantics of repair: a half-truncated copy is reported as
// diverged (not under-replicated), a plain repair refuses to touch it,
// and a forced repair rebuilds it from the longest copy.
func TestReplicationHealthDetectsDivergence(t *testing.T) {
	rig := newReplicaRig(t, 3, "replica-2")
	want := writeN1(t, rig.p, "/backend/f", 4, 6, 128)

	h, err := rig.p.replicationHealth("/backend/f")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Clean() || h.Files == 0 {
		t.Fatalf("fresh container not clean: %+v", h)
	}

	rel, damagedBackend := damageReplica(t, rig, "/backend/f")
	h, err = rig.p.replicationHealth("/backend/f")
	if err != nil {
		t.Fatal(err)
	}
	if h.Diverged != 1 || h.UnderReplicated != 0 || h.Clean() {
		t.Fatalf("divergence not detected: %+v", h)
	}
	found := false
	for _, prob := range h.Problems {
		if prob.Path != rel {
			continue
		}
		found = true
		if !prob.Diverged {
			t.Fatalf("problem not flagged diverged: %+v", prob)
		}
		for _, c := range prob.Copies {
			if c.Missing {
				t.Fatalf("truncated copy reported missing: %+v", prob)
			}
		}
	}
	if !found {
		t.Fatalf("damaged path %s not in problems: %+v", rel, h.Problems)
	}

	// Plain repair refuses diverged files: forensic state is preserved.
	rep, err := rig.p.repairReplication("/backend/f", false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 0 || rep.Skipped != 1 {
		t.Fatalf("unforced repair touched a diverged file: %+v", rep)
	}
	h, err = rig.p.replicationHealth("/backend/f")
	if err != nil {
		t.Fatal(err)
	}
	if h.Diverged != 1 {
		t.Fatalf("diverged file vanished without force: %+v", h)
	}

	// Forced repair rebuilds the short copy from the longest one.
	rep, err = rig.p.repairReplication("/backend/f", true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 || rep.Skipped != 0 {
		t.Fatalf("forced repair: %+v", rep)
	}
	h, err = rig.p.replicationHealth("/backend/f")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Clean() {
		t.Fatalf("container unhealthy after forced repair: %+v", h)
	}
	// The repaired copy matches its healthy peer byte for byte.
	var sizes []int64
	for _, mem := range rig.mems {
		if st, err := mem.Stat("/backend/f/" + rel); err == nil {
			sizes = append(sizes, st.Size)
		}
	}
	if len(sizes) != 2 || sizes[0] != sizes[1] {
		t.Fatalf("copy sizes after forced repair: %v (backend %d was damaged)", sizes, damagedBackend)
	}
	if got := readBack(t, rig.p, "/backend/f"); !bytes.Equal(got, want) {
		t.Fatal("logical bytes diverged after forced repair")
	}
}

// TestReplicationDescriptorRepair pins descriptor healing: a corrupted
// layout.desc is reported (DescriptorErr), reads are unaffected, and a
// repair rewrites the canonical record.
func TestReplicationDescriptorRepair(t *testing.T) {
	rig := newReplicaRig(t, 3, "replica-2")
	want := writeN1(t, rig.p, "/backend/f", 2, 4, 64)

	if desc, err := rig.p.ContainerLayout("/backend/f"); err != nil || desc != "replica-2" {
		t.Fatalf("ContainerLayout = %q, %v", desc, err)
	}

	// Corrupt every copy of the descriptor record in place.
	for _, mem := range rig.mems {
		fd, err := mem.Open("/backend/f/layout.desc", posix.O_WRONLY, 0)
		if err != nil {
			continue
		}
		if _, err := mem.Pwrite(fd, []byte{0xff}, 4); err != nil {
			t.Fatal(err)
		}
		mem.Close(fd)
	}
	if _, err := rig.p.ContainerLayout("/backend/f"); err == nil {
		t.Fatal("corrupt descriptor went undetected")
	}
	h, err := rig.p.replicationHealth("/backend/f")
	if err != nil {
		t.Fatal(err)
	}
	if h.DescriptorErr == "" || h.Clean() {
		t.Fatalf("health missed the corrupt descriptor: %+v", h)
	}
	if got := readBack(t, rig.p, "/backend/f"); !bytes.Equal(got, want) {
		t.Fatal("descriptor corruption affected data reads")
	}

	rep, err := rig.p.repairReplication("/backend/f", false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired == 0 {
		t.Fatalf("repair did not rewrite the descriptor: %+v", rep)
	}
	if desc, err := rig.p.ContainerLayout("/backend/f"); err != nil || desc != "replica-2" {
		t.Fatalf("descriptor after repair = %q, %v", desc, err)
	}
	h, err = rig.p.replicationHealth("/backend/f")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Clean() {
		t.Fatalf("unhealthy after descriptor repair: %+v", h)
	}
}

// TestReplicationHealthModNTrivial pins that replication scanning is a
// no-op for width-1 layouts: mod-N containers are trivially clean and
// repair does nothing.
func TestReplicationHealthModNTrivial(t *testing.T) {
	p, _ := newStripedFS(t, 3, false)
	writeN1(t, p, "/backend/f", 2, 2, 64)
	h, err := p.replicationHealth("/backend/f")
	if err != nil {
		t.Fatal(err)
	}
	if h.Width != 1 || !h.Clean() {
		t.Fatalf("mod-N health: %+v", h)
	}
	rep, err := p.repairReplication("/backend/f", true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 0 || rep.Skipped != 0 {
		t.Fatalf("mod-N repair did something: %+v", rep)
	}
	if desc, err := p.ContainerLayout("/backend/f"); err != nil || desc != "" {
		t.Fatalf("mod-N container grew a descriptor: %q, %v", desc, err)
	}
}
