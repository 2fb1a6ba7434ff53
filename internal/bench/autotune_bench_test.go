package bench

import (
	"bytes"
	"testing"
	"time"

	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// Autotune convergence: the same N-1 strided checkpoint-restart round
// run over service-limited striped backends, three ways — the worst
// static configuration (workers=1, IndexBatch=1), the hand-tuned best,
// and autotune starting from the worst. The controller must climb to
// within 85% of the hand-tuned throughput, from nothing but the byte
// counters.
//
// The round is built so each knob has a real, physical gradient under
// the service-time model:
//
//   - IndexBatch: every buffered-index flush is one serviced backend
//     write, so batch=1 doubles the write-phase service demand.
//   - ReadWorkers: each strided read resolves to extents spread across
//     all three backends (pid -> hostdir -> backend), so parallel
//     preads aggregate independent service slots, exactly like the
//     striped-aggregation benchmarks.
//
// Each backend is a read-service FaultFS over a write-service FaultFS
// (metadata and opens stay free), so the sleeps dominate and the
// throughput ratios are stable across machines. The tuning window is
// set to exactly one round's bytes, so every measurement window has
// identical composition — the climb is deterministic in everything but
// the sleep jitter the assertions leave margin for.
const (
	atPids      = 6       // writer pids = hostdirs; 2 hostdirs per backend
	atBackends  = 3       //
	atBlocksPer = 8       // blocks per pid per round
	atBlock     = 2 << 10 //
	atReadSize  = 32 << 10
	atService   = 150 * time.Microsecond
	// atRoundBytes is what one round moves past the tuner: the write
	// phase plus the full read-back.
	atRoundBytes = 2 * atPids * atBlocksPer * atBlock
)

// autotuneOpts builds the striped, service-limited configuration.
func autotuneOpts() plfs.Config {
	opts := plfs.Config{
		Engine:   plfs.EngineOptions{NumHostdirs: atPids},
		Index:    plfs.IndexOptions{DisableAutoFlatten: true}, // keep every round's close identical
		Backends: make([]posix.FS, atBackends),
	}
	for i := range opts.Backends {
		writeSvc := posix.NewFaultFS(posix.NewMemFS())
		writeSvc.SetServiceTime(posix.FaultWrite, atService)
		readSvc := posix.NewFaultFS(writeSvc)
		readSvc.SetServiceTime(posix.FaultRead, atService)
		opts.Backends[i] = readSvc
	}
	return opts
}

// autotuneRound runs one checkpoint-restart round: every pid writes
// its strided blocks, the whole file is read back, the container is
// retired. With verify set the read-back is checked byte for byte.
func autotuneRound(tb testing.TB, p *plfs.FS, verify bool) {
	tb.Helper()
	f, err := p.Open("/tune", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		tb.Fatal(err)
	}
	for pid := 0; pid < atPids; pid++ {
		payload := bytes.Repeat([]byte{byte(pid + 1)}, atBlock)
		for blk := 0; blk < atBlocksPer; blk++ {
			off := int64((blk*atPids + pid) * atBlock)
			if _, err := f.Write(payload, off, uint32(pid)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	total := atPids * atBlocksPer * atBlock
	buf := make([]byte, atReadSize)
	for off := 0; off < total; off += atReadSize {
		n, err := f.Read(buf, int64(off))
		if err != nil || n != atReadSize {
			tb.Fatalf("read at %d = %d, %v", off, n, err)
		}
		if verify {
			for i := 0; i < n; i += atBlock {
				pid := ((off + i) / atBlock) % atPids
				if buf[i] != byte(pid+1) {
					tb.Fatalf("corruption at offset %d: got %d, want pid %d's byte", off+i, buf[i], pid)
				}
			}
		}
	}
	if err := f.Close(0); err != nil {
		tb.Fatal(err)
	}
	if err := p.Unlink("/tune"); err != nil {
		tb.Fatal(err)
	}
}

// runRounds executes rounds and returns the average per-round wall
// time over the last tailRounds of them — the steady-state measurement.
func runRounds(tb testing.TB, p *plfs.FS, rounds, tailRounds int) time.Duration {
	tb.Helper()
	var tailStart time.Time
	for i := 0; i < rounds; i++ {
		if i == rounds-tailRounds {
			tailStart = time.Now()
		}
		autotuneRound(tb, p, i == 0)
	}
	return time.Since(tailStart) / time.Duration(tailRounds)
}

// TestAutoTuneConverges is the acceptance test: from the worst static
// configuration, the controller must reach >= 85% of the hand-tuned
// static throughput within the round budget, and never apply a knob
// value outside its configured bounds.
func TestAutoTuneConverges(t *testing.T) {
	const tuneRounds, tailRounds = 22, 8

	// Hand-tuned best static configuration.
	best := autotuneOpts()
	best.Engine.ReadWorkers, best.Engine.WriteWorkers, best.Engine.IndexBatch = 8, 8, 512
	bestTail := runRounds(t, plfs.New(nil, best), 2+tailRounds, tailRounds)

	// Deliberately worst static configuration, for the record (a short
	// tail suffices: it only anchors the "actually climbed" check).
	worst := autotuneOpts()
	worst.Engine.ReadWorkers, worst.Engine.WriteWorkers, worst.Engine.IndexBatch = 1, 1, 1
	worstTail := runRounds(t, plfs.New(nil, worst), 1+tailRounds/2, tailRounds/2)

	// Autotune, starting from the worst configuration.
	tuned := autotuneOpts()
	tuned.Engine.ReadWorkers, tuned.Engine.WriteWorkers, tuned.Engine.IndexBatch = 1, 1, 1
	tuned.Tune = plfs.TuneOptions{Enable: true, WindowBytes: atRoundBytes} // one window per round: identical mix
	tp := plfs.New(nil, tuned)
	autoTail := runRounds(t, tp, tuneRounds+tailRounds, tailRounds)

	tput := func(perRound time.Duration) float64 {
		return float64(atRoundBytes) / perRound.Seconds() / 1e6
	}
	t.Logf("steady-state throughput: worst %.2f MB/s, autotuned %.2f MB/s, hand-tuned %.2f MB/s",
		tput(worstTail), tput(autoTail), tput(bestTail))
	t.Logf("autotune state: %+v", tp.Tuner().State())
	for _, d := range tp.Tuner().Decisions() {
		t.Logf("  %s", d)
	}

	// Knob bounds are hard: nothing applied may leave the ladders.
	for _, st := range tp.Tuner().State() {
		if st.Value < st.Min || st.Value > st.Max {
			t.Errorf("knob %s = %d outside bounds [%d, %d]", st.Name, st.Value, st.Min, st.Max)
		}
	}
	for _, d := range tp.Tuner().Decisions() {
		for _, st := range tp.Tuner().State() {
			if d.Knob == st.Name && (d.To < st.Min || d.To > st.Max) {
				t.Errorf("decision %s applied a value outside [%d, %d]", d, st.Min, st.Max)
			}
		}
	}

	// The converged steady state must be within 15% of the hand-tuned
	// best (per-round time at most 1/0.85 of the best's).
	if float64(autoTail) > float64(bestTail)/0.85 {
		t.Fatalf("autotune steady state %.2f MB/s is below 85%% of hand-tuned %.2f MB/s (%.1f%%)",
			tput(autoTail), tput(bestTail), 100*float64(bestTail)/float64(autoTail))
	}
	// And it must have actually climbed: meaningfully above the worst
	// static configuration it started from.
	if float64(autoTail) > 0.8*float64(worstTail) {
		t.Fatalf("autotune round time %v barely improved on the worst static config's %v", autoTail, worstTail)
	}
}

// BenchmarkAutoTuneConverge reports the autotuned steady-state
// bandwidth of the convergence scenario — the bench-smoke hook that
// keeps the controller exercised end to end.
func BenchmarkAutoTuneConverge(b *testing.B) {
	const tuneRounds, tailRounds = 22, 8
	b.SetBytes(int64(tailRounds * atRoundBytes))
	for i := 0; i < b.N; i++ {
		opts := autotuneOpts()
		opts.Engine.ReadWorkers, opts.Engine.WriteWorkers, opts.Engine.IndexBatch = 1, 1, 1
		opts.Tune = plfs.TuneOptions{Enable: true, WindowBytes: atRoundBytes}
		p := plfs.New(nil, opts)
		b.StopTimer()
		for r := 0; r < tuneRounds; r++ {
			autotuneRound(b, p, r == 0)
		}
		b.StartTimer()
		for r := 0; r < tailRounds; r++ {
			autotuneRound(b, p, false)
		}
		b.StopTimer()
		if w := p.Tuner().Windows(); w < tuneRounds {
			b.Fatalf("tuner closed %d windows, want >= %d", w, tuneRounds)
		}
		b.StartTimer()
	}
}
