package mpi

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunAllRanksExecute(t *testing.T) {
	var count atomic.Int64
	err := Run(16, 4, func(r *Rank) {
		count.Add(1)
		if r.Size() != 16 || r.PPN() != 4 {
			t.Errorf("rank %d: size=%d ppn=%d", r.Rank(), r.Size(), r.PPN())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 16 {
		t.Fatalf("ran %d ranks", count.Load())
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	err := Run(4, 1, func(r *Rank) {
		if r.Rank() == 2 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("rank panic was swallowed")
	}
}

// TestTopology: a world remembers the processes-per-node it was
// launched with (mpiio places its aggregators by it), and a
// non-positive count means one process per node.
func TestTopology(t *testing.T) {
	for _, tc := range []struct{ ppn, want int }{{4, 4}, {1, 1}, {0, 1}, {-3, 1}} {
		err := Run(6, tc.ppn, func(r *Rank) {
			if r.PPN() != tc.want {
				t.Errorf("ppn %d: rank %d reports %d, want %d", tc.ppn, r.Rank(), r.PPN(), tc.want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBarrierOrdering(t *testing.T) {
	const n = 8
	var before, after atomic.Int64
	err := Run(n, 2, func(r *Rank) {
		before.Add(1)
		r.Barrier()
		// Every rank must have passed "before" by now.
		if got := before.Load(); got != n {
			t.Errorf("rank %d: before=%d at barrier exit", r.Rank(), got)
		}
		after.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if after.Load() != n {
		t.Fatalf("after = %d", after.Load())
	}
}

func TestRepeatedBarriers(t *testing.T) {
	// Generation counting must survive many reuse cycles.
	err := Run(5, 1, func(r *Rank) {
		for i := 0; i < 200; i++ {
			r.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	err := Run(6, 2, func(r *Rank) {
		got := r.Bcast(3, fmt.Sprintf("from-%d", r.Rank()))
		if got != "from-3" {
			t.Errorf("rank %d bcast = %v", r.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherAndAllgather(t *testing.T) {
	err := Run(4, 2, func(r *Rank) {
		g := r.Gather(1, r.Rank()*10)
		if r.Rank() == 1 {
			for i, v := range g {
				if v != i*10 {
					t.Errorf("gather[%d] = %v", i, v)
				}
			}
		} else if g != nil {
			t.Errorf("rank %d got non-nil gather", r.Rank())
		}
		ag := r.Allgather(r.Rank() + 100)
		for i, v := range ag {
			if v != i+100 {
				t.Errorf("allgather[%d] = %v", i, v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReductions(t *testing.T) {
	err := Run(8, 4, func(r *Rank) {
		if got := r.AllreduceInt64(int64(r.Rank()), OpSum); got != 28 {
			t.Errorf("sum = %d", got)
		}
		if got := r.AllreduceInt64(int64(r.Rank()), OpMax); got != 7 {
			t.Errorf("max = %d", got)
		}
		if got := r.AllreduceInt64(int64(r.Rank()), OpMin); got != 0 {
			t.Errorf("min = %d", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	const n = 5
	err := Run(n, 1, func(r *Rank) {
		send := make([]any, n)
		for dst := 0; dst < n; dst++ {
			if dst == r.Rank() {
				continue // nil to self is allowed
			}
			send[dst] = fmt.Sprintf("%d->%d", r.Rank(), dst)
		}
		recv := r.Alltoall(send)
		for src := 0; src < n; src++ {
			if src == r.Rank() {
				if recv[src] != nil {
					t.Errorf("self slot = %v", recv[src])
				}
				continue
			}
			if want := fmt.Sprintf("%d->%d", src, r.Rank()); recv[src] != want {
				t.Errorf("rank %d recv[%d] = %v, want %q", r.Rank(), src, recv[src], want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMixedCollectiveSequence(t *testing.T) {
	// Interleaving different collectives across iterations must not
	// deadlock or cross-talk.
	err := Run(6, 3, func(r *Rank) {
		for i := 0; i < 50; i++ {
			sum := r.AllreduceInt64(int64(i), OpSum)
			if sum != int64(i*6) {
				t.Errorf("iter %d sum = %d", i, sum)
			}
			r.Barrier()
			v := r.Bcast(i%6, i*r.Rank())
			_ = v
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleRankWorld(t *testing.T) {
	err := Run(1, 12, func(r *Rank) {
		r.Barrier()
		if got := r.AllreduceInt64(7, OpSum); got != 7 {
			t.Errorf("singleton sum = %d", got)
		}
		recv := r.Alltoall([]any{"self"})
		if recv[0] != "self" {
			t.Errorf("self alltoall = %v", recv[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidWorld(t *testing.T) {
	if err := Run(0, 1, func(*Rank) {}); err == nil {
		t.Fatal("size 0 accepted")
	}
}
