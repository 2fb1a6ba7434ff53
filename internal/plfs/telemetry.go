// Telemetry and online tuning for the PLFS engines.
//
// Telemetry: with TelemetryOptions.Stats set, the instance reports every
// open/read/write/sync through one iostats layer ("plfs") and
// registers the shared index cache's counters on a second
// ("readcache"). With it unset, every recording call is a nil check —
// the plane is pay-for-what-you-touch.
//
// Tuning: with TuneOptions.Enable set, an IOPathTune-style feedback
// controller (internal/plfs/tune) hill-climbs the engine knobs —
// ReadWorkers, WriteWorkers, IndexBatch, BatchDepth — from observed throughput
// alone, within the hard bounds of the ladders below. The knobs it
// steers are runtime overrides (atomics consulted by the engines ahead
// of EngineOptions), so the controller adapts a live instance without a
// reopen; the same overrides double as the operator's runtime pinning
// surface (SetReadWorkers and friends).
package plfs

import (
	"time"

	"ldplfs/internal/iostats"
	"ldplfs/internal/plfs/tune"
)

// Autotune ladders: the candidate values the controller may apply.
// The first and last rungs are the hard bounds it never leaves. To pin
// a knob statically, leave AutoTune off and set the Options field (or
// call the Set* override); AutoTune manages all four knobs.
var (
	readWorkersLadder  = []int{1, 2, 4, 8, 16}
	writeWorkersLadder = []int{1, 2, 4, 8, 16}
	indexBatchLadder   = []int{1, 8, 64, 512, 4096}
	batchDepthLadder   = []int{1, 4, 16, 64, 256}
)

// initTelemetry wires the stats layers and (optionally) the tuner.
// Called once from New, after opts are normalised.
func (p *FS) initTelemetry() {
	if p.cfg.Telemetry.Stats != nil {
		p.stats = p.cfg.Telemetry.Stats.Layer("plfs")
		p.cacheLayer = p.cfg.Telemetry.Stats.Layer("readcache")
	} else {
		p.cacheLayer = iostats.NewLayerStats("readcache")
	}
	if !p.cfg.Tune.Enable {
		return
	}
	// The flush-only-on-sync mode (EngineOptions.IndexBatch < 0) reports a
	// threshold of 0; its nearest tunable analogue is the largest
	// batch, not the ladder bottom — starting at batch=1 would turn
	// the least index I/O into the most.
	batchStart := p.indexBatchRecords()
	if batchStart == 0 {
		batchStart = indexBatchLadder[len(indexBatchLadder)-1]
	}
	p.tuner = tune.New(
		tune.Config{
			WindowBytes: p.cfg.Tune.WindowBytes,
			Clock:       p.cfg.Tune.Clock,
		},
		p.tuneBytes.Load,
		tune.Knob{Name: "read-workers", Ladder: readWorkersLadder,
			Start: p.readWorkers(), Apply: p.SetReadWorkers},
		tune.Knob{Name: "write-workers", Ladder: writeWorkersLadder,
			Start: p.writeWorkers(), Apply: p.SetWriteWorkers},
		tune.Knob{Name: "index-batch", Ladder: indexBatchLadder,
			Start: batchStart, Apply: p.SetIndexBatch},
		tune.Knob{Name: "batch-depth", Ladder: batchDepthLadder,
			Start: p.batchDepth(), Apply: p.SetBatchDepth},
	)
}

// opStart samples the clock for a latency measurement iff telemetry
// is on.
func (p *FS) opStart() time.Time { return p.stats.Start() }

// observeOp records one completed engine operation and, when the
// autotune controller is running, feeds its throughput window.
func (p *FS) observeOp(op iostats.Op, n int64, start time.Time, err error) {
	p.stats.End(op, n, start, err)
	if p.tuner != nil && n > 0 && (op == iostats.Read || op == iostats.Write) {
		p.tuneBytes.Add(n)
		p.tuner.Tick()
	}
}

// SetReadWorkers overrides EngineOptions.ReadWorkers on the live instance:
// subsequent reads fan their extent preads across n workers. n <= 0
// removes the override, restoring the configured value. The autotune
// controller drives this; operators can call it directly to pin the
// knob at runtime.
func (p *FS) SetReadWorkers(n int) { p.knobReadWorkers.Store(int32(n)) }

// SetWriteWorkers is SetReadWorkers for the vectored-write fan-out.
func (p *FS) SetWriteWorkers(n int) { p.knobWriteWorkers.Store(int32(n)) }

// SetBatchDepth overrides EngineOptions.BatchDepth on the live
// instance: subsequent reads and vectored writes coalesce up to n
// contiguous extents per backend submission (1 disables coalescing).
// n <= 0 removes the override, restoring the configured value.
func (p *FS) SetBatchDepth(n int) { p.knobBatchDepth.Store(int32(n)) }

// SetIndexBatch overrides EngineOptions.IndexBatch on the live instance:
// subsequent writes group-flush their index records every n records.
// n <= 0 removes the override (it cannot express the "flush only on
// sync" mode; configure that statically via EngineOptions.IndexBatch < 0).
func (p *FS) SetIndexBatch(n int) { p.knobIndexBatch.Store(int32(n)) }

// Tuner exposes the running autotune controller (nil when
// TuneOptions.Enable is off) — its State reports the knobs' current
// values and bounds, its Decisions the accepted and reverted trials.
func (p *FS) Tuner() *tune.Controller { return p.tuner }
