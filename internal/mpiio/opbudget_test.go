package mpiio

import (
	"testing"

	"ldplfs/internal/mpi"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// budgetCalls is the collective op budget's count of WriteAll calls.
const budgetCalls = 8

// TestCollectiveOpBudget pins the backend ops of collective_romio_svc3's
// shape, per backend and per phase: 4 ranks, each its own plfs instance
// over a mod-3 StripedFS of three MemFS with one counting hook per
// backend (no service time), writing 16 × 4 KiB stripes with equal holes
// per rank per collective through 64 KiB staging. The phases:
//
//   - create: the collective create and each rank's first write in rank
//     order, as the benchmark's untimed set-up makes them. Each rank's
//     first write seeds its instance's clock by reading every dropping
//     written so far. The communicator's openhosts record costs backend 0
//     an open and a close at the open. Each first write is 8 bytes, so
//     plfs stages it and it costs no op here. (When every rank marked the
//     container open at its first write, the row was 55 / 22 / 18: each
//     rank's record cost backend 0 a Mkdir, an open and a close. While
//     every write landed before it returned, it was 45 / 22 / 18.)
//   - writeall: the 8 WriteAll, one staging buffer each, two
//     aggregators' vectored write per collective on each backend their
//     droppings live on. A rank's staged first write rides its first
//     vectored write, in the same pwritev.
//   - close: the collective close. Ranks 1..3 close their writers; rank
//     0 closes its own, removes the communicator's record, lists
//     openhosts and flattens from the folds gathered to it: the root's
//     and its writers' hostdirs' listings, the record's O_EXCL claim,
//     write, fsync, close and rename (the rename on every backend).
//     (When every rank cleared its own record, the row was 21 / 8 / 8:
//     four unlinks on backend 0 where one is made now.)
//   - cold: fresh instances on every rank, a collective read-only open
//     (rank 0 walks and reads the flattened record, the others open
//     from its index), one 4 KiB ReadAt by each rank and the close.
//
// The writeall and cold rows are what they were with per-rank records.
func TestCollectiveOpBudget(t *testing.T) {
	want := map[string][3]int{
		"create":   {43, 21, 17},
		"writeall": {16, 8, 8},
		"close":    {18, 8, 8},
		"cold":     {20, 3, 3},
	}
	var mems, counted [3]posix.FS
	var counts [3]*opCounts
	for i := range mems {
		mems[i] = posix.NewMemFS()
		counts[i] = &opCounts{n: map[posix.Call]int{}}
		counted[i] = posix.Interpose(mems[i], counts[i])
	}
	drivers := func() []Driver {
		out := make([]Driver, shRanks)
		for rank := range out {
			out[rank] = NewPLFSDriver(plfs.New(posix.NewStripedFS(counted[:]...)), nil)
		}
		return out
	}
	got := map[string][3]int{}
	var last [3]int
	phase := func(name string, body func(me int, r *mpi.Rank)) {
		t.Helper()
		if err := runUnderDeadline(t, shRanks, 1, func(r *mpi.Rank) { body(r.Rank(), r) }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var row [3]int
		for i, c := range counts {
			n := c.total()
			row[i], last[i] = n-last[i], n
		}
		got[name] = row
	}

	hints := DefaultHints()
	hints.CBBufferSize = 64 << 10
	drv := drivers()
	files := make([]*File, shRanks)
	phase("create", func(me int, r *mpi.Rank) {
		fh, err := Open(r, drv[me], shPath, ModeCreate|ModeWronly, hints)
		if err != nil {
			panic(err)
		}
		files[me] = fh
		first := shSegs(me, 0)[0]
		for turn := 0; turn < shRanks; turn++ {
			if turn == me {
				if _, err := fh.WriteAt(shFill([]Segment{first})[:8], first.Off); err != nil {
					panic(err)
				}
			}
			r.Barrier()
		}
	})
	phase("writeall", func(me int, _ *mpi.Rank) {
		for c := 0; c < budgetCalls; c++ {
			segs := shSegs(me, c)
			if _, err := files[me].WriteAll(segs, shFill(segs)); err != nil {
				panic(err)
			}
		}
	})
	phase("close", func(me int, _ *mpi.Rank) {
		if err := files[me].Close(); err != nil {
			panic(err)
		}
	})
	if left := openhostsEntries(t, mems[0]); len(left) != 0 {
		t.Fatalf("openhosts holds %v after the collective close, want nothing", left)
	}
	drv = drivers()
	phase("cold", func(me int, r *mpi.Rank) {
		fh, err := Open(r, drv[me], shPath, ModeRdonly, hints)
		if err != nil {
			panic(err)
		}
		first := shSegs(me, 0)[0]
		buf := make([]byte, shStripe)
		if _, err := fh.ReadAt(buf, first.Off); err != nil {
			panic(err)
		}
		if err := fh.Close(); err != nil {
			panic(err)
		}
	})
	for _, name := range []string{"create", "writeall", "close", "cold"} {
		if got[name] != want[name] {
			t.Errorf("%s: backend ops %v, want %v", name, got[name], want[name])
		}
	}
}

// openhostsEntries lists the names in shPath's openhosts directory on
// the canonical backend.
func openhostsEntries(t *testing.T, backend0 posix.FS) []string {
	t.Helper()
	entries, err := backend0.Readdir(shPath + "/openhosts")
	if err != nil {
		t.Fatalf("list openhosts: %v", err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name)
	}
	return names
}
