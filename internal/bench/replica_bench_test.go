package bench

import (
	"bytes"
	"testing"
	"time"

	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// Replicated-layout benchmarks: the N-1 read pass from the striped
// suite, but with droppings replicated two ways across three service-
// limited backends. Three regimes matter:
//
//   - healthy: reads are served by each dropping's primary — the cost
//     of replication on the read path should be near zero;
//   - degraded: one backend is dead, so reads whose primary died fail
//     over to the surviving copy — the bound the chaos tests pin is
//     "within 2x", this benchmark shows the measured factor;
//   - write: the fan-out cost of writing every dropping twice against
//     classic single-copy striping.
//
// All three use the per-rule scoped service slots (one slot per
// backend), not the shared legacy slot, so the backends behave like
// independent saturated servers.

// replicaOpts builds a replica-2 PLFS configuration over n service-
// limited backends.
func replicaOpts(tb testing.TB, n int) (plfs.Config, []*posix.FaultFS) {
	tb.Helper()
	opts, faults := stripedOpts(n)
	opts.Layout.Layout = "replica-2"
	return opts, faults
}

// setupReplicaN1 writes the canonical N-1 container through a replica-2
// layout (service time off during setup) and returns the options for
// cold re-opens plus the expected bytes.
func setupReplicaN1(tb testing.TB, n int) (plfs.Config, []*posix.FaultFS, []byte) {
	tb.Helper()
	opts, faults := replicaOpts(tb, n)
	p := plfs.New(nil, opts)
	want := make([]byte, stWriters*stBlocksPer*stBlock)
	f, err := p.Open("/n1", posix.O_CREAT|posix.O_WRONLY, 0, 0o644)
	if err != nil {
		tb.Fatal(err)
	}
	for w := 0; w < stWriters; w++ {
		payload := bytes.Repeat([]byte{byte(w + 1)}, stBlock)
		for blk := 0; blk < stBlocksPer; blk++ {
			off := int64((blk*stWriters + w) * stBlock)
			copy(want[off:], payload)
			if _, err := f.Write(payload, off, uint32(w)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for w := 0; w < stWriters; w++ {
		if err := f.Close(uint32(w)); err != nil {
			tb.Fatal(err)
		}
	}
	return opts, faults, want
}

func benchReplicaN1Read(b *testing.B, kill int) {
	opts, faults, want := setupReplicaN1(b, 3)
	for _, fb := range faults {
		fb.SetServiceTime(posix.FaultRead, stService)
	}
	if kill >= 0 {
		faults[kill].Kill()
	}
	b.SetBytes(int64(len(want)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readStripedN1(b, opts, want)
	}
}

// BenchmarkReplicaN1Read_Healthy is the replica-2 read floor: primaries
// only, directly comparable to BenchmarkStripedN1Read_3Backends.
func BenchmarkReplicaN1Read_Healthy(b *testing.B) { benchReplicaN1Read(b, -1) }

// BenchmarkReplicaN1Read_Degraded reads with backend 1 dead: every
// dropping whose primary died fails over to its surviving copy.
func BenchmarkReplicaN1Read_Degraded(b *testing.B) { benchReplicaN1Read(b, 1) }

// BenchmarkReplicaN1Write measures the replica-2 write fan-out against
// the single-copy BenchmarkStripedN1Write_3Backends baseline.
func BenchmarkReplicaN1Write(b *testing.B) {
	opts, faults := replicaOpts(b, 3)
	for _, fb := range faults {
		fb.SetServiceTime(posix.FaultWrite, stService/4)
	}
	b.SetBytes(int64(stWriters * stBlocksPer * stBlock))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeStripedN1(b, opts)
	}
}

// TestReplicaDegradedReadBound runs the healthy and degraded read passes
// once each under identical service times and asserts the degraded pass
// stays within the 2x envelope the chaos suite promises (generous slack:
// the assert is 3x to keep CI timing-safe; the typical factor is ~1.2).
func TestReplicaDegradedReadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	opts, faults, want := setupReplicaN1(t, 3)
	for _, fb := range faults {
		fb.SetServiceTime(posix.FaultRead, stService/4)
	}
	healthy := readStripedN1(t, opts, want)
	faults[1].Kill()
	degraded := readStripedN1(t, opts, want)
	faults[1].Revive()
	t.Logf("healthy %v, degraded %v (factor %.2f)", healthy, degraded, float64(degraded)/float64(healthy))
	if degraded > 3*healthy+50*time.Millisecond {
		t.Fatalf("degraded read %v vs healthy %v: outside the envelope", degraded, healthy)
	}
}
