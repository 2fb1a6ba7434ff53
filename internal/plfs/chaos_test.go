package plfs

import (
	"bytes"
	"fmt"
	"testing"

	"ldplfs/internal/iostats"
	"ldplfs/internal/posix"
)

// replicaRig is a PLFS instance over n FaultFS-wrapped, instrumented
// in-memory backends with a replica layout — the chaos-test fixture.
type replicaRig struct {
	p      *FS
	faults []*posix.FaultFS
	mems   []*posix.MemFS
	plane  *iostats.Plane
}

// newReplicaRig builds the fixture: each backend chain is
// InstrumentFS("b<i>") -> FaultFS -> MemFS, so fault injection sits
// below the op counters and every attempt (including ones the fault
// layer rejects) is counted.
func newReplicaRig(t *testing.T, n int, desc string, opts ...Option) *replicaRig {
	t.Helper()
	r := &replicaRig{plane: iostats.NewPlane()}
	backends := make([]posix.FS, n)
	for i := 0; i < n; i++ {
		mem := posix.NewMemFS()
		ff := posix.NewFaultFS(mem)
		r.mems = append(r.mems, mem)
		r.faults = append(r.faults, ff)
		backends[i] = posix.NewInstrumentFS(ff, r.plane, posix.WithLayerName(fmt.Sprintf("b%d", i)))
	}
	layout, err := posix.LayoutFor(desc, n)
	if err != nil {
		t.Fatal(err)
	}
	r.p = New(posix.NewLayoutFS(layout, r.plane, backends...), append(opts, WithStats(r.plane))...)
	if err := r.p.Backend().Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	return r
}

// counter reads one replica counter off the posix layer.
func (r *replicaRig) counter(name string) int64 {
	return r.plane.Layer("posix").Counter(name).Load()
}

// backendReads sums pread attempts across every backend.
func (r *replicaRig) backendReads() int64 {
	var total int64
	for i := range r.mems {
		total += r.plane.Layer(fmt.Sprintf("b%d", i)).OpCount(iostats.Read)
	}
	return total
}

// readBack cold-reads the whole logical file.
func readBack(t *testing.T, p *FS, path string) []byte {
	t.Helper()
	f, err := p.Open(path, posix.O_RDONLY, 999, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer f.Close(999)
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, size)
	if n, err := f.Read(out, 0); err != nil || int64(n) != size {
		t.Fatalf("read back: n=%d err=%v size=%d", n, err, size)
	}
	return out
}

// TestChaosKillBackendMidWrite is the headline chaos test: a replica-2
// container over three backends loses backend 1 mid-way through an N-1
// write workload (a deterministic op-count schedule, no wall clock).
// The workload must complete, reads with the backend still dark must be
// byte-identical to an undisturbed single-backend reference, and the
// read amplification must stay within 2x of a healthy replica twin —
// the op-count proxy for the "within 2x latency" bound.
func TestChaosKillBackendMidWrite(t *testing.T) {
	const pids, recs, recSize = 6, 20, 512

	// Healthy twin: replica-2, no faults — the latency baseline. The
	// helper returns the expected logical bytes (the undisturbed
	// reference: content is a pure function of writer and block).
	healthy := newReplicaRig(t, 3, "replica-2")
	want := writeN1(t, healthy.p, "/backend/f", pids, recs, recSize)
	if got := readBack(t, healthy.p, "/backend/f"); !bytes.Equal(got, want) {
		t.Fatalf("healthy replica-2 read diverged from reference (%d vs %d bytes)", len(got), len(want))
	}
	healthyReads := healthy.backendReads()

	// Chaos run: backend 1 dies after its 10th write op (past container
	// creation, well inside the workload) and stays dark through the
	// read phase.
	chaos := newReplicaRig(t, 3, "replica-2")
	chaos.faults[1].Schedule(&posix.FaultStep{AfterOps: 10, Op: posix.FaultWrite, Kill: true})
	writeN1(t, chaos.p, "/backend/f", pids, recs, recSize)
	if !chaos.faults[1].Killed() {
		t.Fatal("schedule never fired: backend 1 still alive")
	}
	if got := chaos.counter("replica_write_degraded"); got == 0 {
		t.Fatal("no degraded writes recorded with a dead replica owner")
	}
	preReads := chaos.backendReads()
	if got := readBack(t, chaos.p, "/backend/f"); !bytes.Equal(got, want) {
		t.Fatalf("chaos read diverged from reference (%d vs %d bytes)", len(got), len(want))
	}
	if got := chaos.counter("replica_read_failover"); got == 0 {
		t.Fatal("no failover reads recorded with a dead primary")
	}
	chaosReads := chaos.backendReads() - preReads
	if chaosReads > 2*healthyReads {
		t.Fatalf("read amplification %d ops vs healthy %d: above the 2x bound", chaosReads, healthyReads)
	}

	// Determinism: the same schedule on a fresh rig reproduces the same
	// degraded-write count.
	again := newReplicaRig(t, 3, "replica-2")
	again.faults[1].Schedule(&posix.FaultStep{AfterOps: 10, Op: posix.FaultWrite, Kill: true})
	writeN1(t, again.p, "/backend/f", pids, recs, recSize)
	if a, b := again.counter("replica_write_degraded"), chaos.counter("replica_write_degraded"); a != b {
		t.Fatalf("chaos schedule not deterministic: %d vs %d degraded writes", a, b)
	}
}

// TestChaosHealCycle is the self-healing end-to-end: kill a backend,
// write a replicated container (every write to a set containing the
// dead backend degrades), revive it, confirm the doctor sees the
// under-replication, repair, and confirm a second scan is clean and a
// second repair is a no-op. Reads stay byte-correct throughout.
func TestChaosHealCycle(t *testing.T) {
	const pids, recs, recSize = 6, 10, 256

	rig := newReplicaRig(t, 3, "replica-2")
	rig.faults[2].Kill()
	want := writeN1(t, rig.p, "/backend/f", pids, recs, recSize)
	if got := readBack(t, rig.p, "/backend/f"); !bytes.Equal(got, want) {
		t.Fatal("degraded read diverged from reference")
	}

	rig.faults[2].Revive()
	h, err := rig.p.replicationHealth("/backend/f")
	if err != nil {
		t.Fatal(err)
	}
	if h.Width != 2 || h.Configured != "replica-2" || h.Descriptor != "replica-2" {
		t.Fatalf("health identity wrong: %+v", h)
	}
	if h.UnderReplicated == 0 || h.Clean() {
		t.Fatalf("doctor missed the under-replication: %+v", h)
	}

	rep, err := rig.p.repairReplication("/backend/f", false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired == 0 || rep.Skipped != 0 {
		t.Fatalf("repair did nothing: %+v", rep)
	}
	h2, err := rig.p.replicationHealth("/backend/f")
	if err != nil {
		t.Fatal(err)
	}
	if !h2.Clean() {
		t.Fatalf("container still unhealthy after repair: %+v", h2)
	}
	// Idempotence: a second repair finds nothing to do.
	rep2, err := rig.p.repairReplication("/backend/f", false)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Repaired != 0 || rep2.Skipped != 0 {
		t.Fatalf("repair not idempotent: %+v", rep2)
	}
	if got := readBack(t, rig.p, "/backend/f"); !bytes.Equal(got, want) {
		t.Fatal("healed read diverged from reference")
	}
}
