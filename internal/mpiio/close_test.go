package mpiio

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldplfs/internal/mpi"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// closeProbe is one rank's hook on each backend of a collective close.
// It holds a listing of openhosts by a rank other than 0 until rank 0
// has unlinked its own openhosts record, or for closeHold at most — so if
// the ranks close at once, every rank finds no writer left — and
// counts flatten claims (the O_EXCL create of a last closer's temp
// record), the openhosts and hostdir listings ranks other than 0 make
// while they close, and the index droppings rank 0 opens while it
// closes.
type closeProbe struct {
	rank    int
	closing *atomic.Bool
	shared  *closeTally
}

// closeTally is what every rank's probes share.
type closeTally struct {
	rank0Gone       chan struct{}
	once            sync.Once
	claims          atomic.Int64
	peerOpenhostsLs atomic.Int64
	peerHostdirLs   atomic.Int64
	rank0IndexOpen  atomic.Int64
}

const closeHold = 500 * time.Millisecond

func (p *closeProbe) Before(op posix.Op) (posix.Op, error) {
	if p.rank > 0 && p.closing.Load() && op.Call == posix.CallReaddir && strings.HasSuffix(op.Path, "/openhosts") {
		select {
		case <-p.shared.rank0Gone:
		case <-time.After(closeHold):
		}
	}
	return op, nil
}

func (p *closeProbe) After(op posix.Op, _ int64, _ error) {
	switch {
	case op.Call == posix.CallUnlink && p.rank == 0 && strings.HasSuffix(op.Path, "/openhosts/host.0"):
		p.shared.once.Do(func() { close(p.shared.rank0Gone) })
	case op.Call == posix.CallOpen && op.Flags&posix.O_EXCL != 0 && strings.Contains(op.Path, "/index.flattened.") && strings.Contains(op.Path, ".tmp."):
		p.shared.claims.Add(1)
	case (op.Call == posix.CallReaddir || op.Call == posix.CallReaddirStat) && p.rank > 0 && p.closing.Load() && strings.HasSuffix(op.Path, "/openhosts"):
		p.shared.peerOpenhostsLs.Add(1)
	case (op.Call == posix.CallReaddir || op.Call == posix.CallReaddirStat) && p.rank > 0 && p.closing.Load() && strings.Contains(op.Path, "/hostdir."):
		p.shared.peerHostdirLs.Add(1)
	case op.Call == posix.CallOpen && p.rank == 0 && p.closing.Load() && strings.Contains(op.Path, "/dropping.index."):
		p.shared.rank0IndexOpen.Add(1)
	}
}

// TestCollectiveCloseOneLastCloser closes a container the ranks wrote,
// each rank its own plfs instance over a mod-3 StripedFS, with ranks 1
// to 3 held at any openhosts listing until rank 0 has cleared its
// record. Ranks that closed at once would each find no writer left, list
// every hostdir and try to claim the flatten; a collective close has one
// last closer, rank 0: exactly one claim, no openhosts or hostdir
// listing by ranks 1 to 3 (rank 0 closes after them, so what they would
// list is not yet settled), and one fresh flattened record that reads
// back the bytes. Rank 0 flattens from its own fold and the folds ranks
// 1 to 3 gathered to it, so it opens no index dropping while it closes.
// It flattens even when it wrote nothing itself: in the second case
// only rank 1 writes, independently.
func TestCollectiveCloseOneLastCloser(t *testing.T) {
	cases := []struct {
		name  string
		wrote []int // the ranks whose stripes the file holds
		write func(fh *File, rank int)
	}{
		{"every-rank-collective", []int{0, 1, 2, 3}, func(fh *File, rank int) {
			segs := shSegs(rank, 0)
			if _, err := fh.WriteAll(segs, shFill(segs)); err != nil {
				panic(err)
			}
		}},
		{"rank1-independent", []int{1}, func(fh *File, rank int) {
			if rank != 1 {
				return
			}
			for _, s := range shSegs(rank, 0) {
				if _, err := fh.WriteAt(shFill([]Segment{s}), s.Off); err != nil {
					panic(err)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			backends := [3]posix.FS{posix.NewMemFS(), posix.NewMemFS(), posix.NewMemFS()}
			tally := &closeTally{rank0Gone: make(chan struct{})}
			var closing [shRanks]atomic.Bool
			drv := make([]Driver, shRanks)
			for rank := range drv {
				var bs [3]posix.FS
				for i := range bs {
					bs[i] = posix.Interpose(backends[i], &closeProbe{rank: rank, closing: &closing[rank], shared: tally})
				}
				drv[rank] = NewPLFSDriver(plfs.New(posix.NewStripedFS(bs[:]...)), nil)
			}
			hints := DefaultHints()
			hints.CBBufferSize = 64 << 10
			err := runUnderDeadline(t, shRanks, 1, func(r *mpi.Rank) {
				me := r.Rank()
				fh, err := Open(r, drv[me], shPath, ModeCreate|ModeWronly, hints)
				if err != nil {
					panic(err)
				}
				tc.write(fh, me)
				closing[me].Store(true)
				if err := fh.Close(); err != nil {
					panic(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := tally.claims.Load(); n != 1 {
				t.Errorf("%d flatten claims, want 1: more than one rank found no writer left, or none flattened", n)
			}
			if n := tally.peerOpenhostsLs.Load(); n != 0 {
				t.Errorf("ranks 1-3 listed openhosts %d times while closing, want 0: rank 0 closes after them", n)
			}
			if n := tally.peerHostdirLs.Load(); n != 0 {
				t.Errorf("ranks 1-3 listed hostdirs %d times while closing, want 0", n)
			}
			if n := tally.rank0IndexOpen.Load(); n != 0 {
				t.Errorf("rank 0 opened index droppings %d times while closing, want 0: it read back what the folds hold", n)
			}

			cold := plfs.New(posix.NewStripedFS(backends[:]...))
			h, err := cold.IndexHealth(shPath)
			if err != nil {
				t.Fatal(err)
			}
			if h.Flattened == nil || !h.Flattened.Fresh || h.StaleRecords != 0 || h.OpenWriters != 0 {
				t.Fatalf("index health %+v (flattened %+v), want one fresh record and no writer", h, h.Flattened)
			}
			f, err := cold.Open(shPath, posix.O_RDONLY, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close(0)
			for _, rank := range tc.wrote {
				for _, s := range shSegs(rank, 0) {
					buf := make([]byte, s.Len)
					if n, err := f.Read(buf, s.Off); err != nil || int64(n) != s.Len || !bytes.Equal(buf, shFill([]Segment{s})) {
						t.Fatalf("rank %d's stripe at %d reads back %d bytes, %v, or differs", rank, s.Off, n, err)
					}
				}
			}
		})
	}
}
