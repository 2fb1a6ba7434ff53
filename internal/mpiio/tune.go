package mpiio

import (
	"ldplfs/internal/tune"
)

// Autotune wiring for the collective-buffering knobs. Rank 0 owns the
// controller (its committed values are broadcast with every
// collective's extent exchange, so the other ranks follow
// automatically) and feeds it the bytes each collective moved; the
// hill-climb ladders mirror the plfs engine's tuner idiom.

// cbStagingLadder is the staging-arena size ladder.
var cbStagingLadder = []int{1 << 20, 4 << 20, 16 << 20, 64 << 20}

// cbRoundsLadder is the pipeline round-count ladder (more rounds =
// deeper overlap, smaller arenas).
var cbRoundsLadder = []int{1, 2, 4, 8}

// cbAggsLadder is the aggregators-per-node ladder.
var cbAggsLadder = []int{1, 2, 4}

// initTuner builds rank 0's knob controller when Hints.AutoTune is set.
func (f *File) initTuner() {
	if !f.hints.AutoTune || f.rank.Rank() != 0 {
		return
	}
	aggs := make([]int, 0, len(cbAggsLadder))
	for _, v := range cbAggsLadder {
		if v <= f.rank.PPN() {
			aggs = append(aggs, v)
		}
	}
	if len(aggs) == 0 {
		aggs = []int{1}
	}
	knobs := []tune.Knob{
		{
			Name:   "cb_buffer_size",
			Ladder: cbStagingLadder,
			Apply:  func(v int) { f.knobStaging.Store(int64(v)) },
			Start:  f.hints.CBBufferSize,
		},
		{
			Name:   "cb_rounds",
			Ladder: cbRoundsLadder,
			Apply:  func(v int) { f.knobRounds.Store(int64(v)) },
			Start:  maxInt(f.hints.CBRounds, 1),
		},
		{
			Name:   "cb_aggregators",
			Ladder: aggs,
			Apply:  func(v int) { f.knobAggs.Store(int64(v)) },
			Start:  maxInt(f.hints.CBAggregators, 1),
		},
	}
	f.tuner = tune.New(tune.Config{}, f.tuneBytes.Load, knobs...)
}

// observeTune credits a finished collective's bytes to the tuner and
// ticks it (rank 0 only; a no-op elsewhere or without AutoTune).
func (f *File) observeTune(n int64) {
	if f.tuner == nil {
		return
	}
	f.tuneBytes.Add(n)
	f.tuner.Tick()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
