package mpiio

import (
	"strings"
	"testing"

	"ldplfs/internal/mpi"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// commRig is the rules' rig: svc3's shape on MemFS, each rank its own
// plfs instance over a mod-3 StripedFS of three shared MemFS, and an
// admin instance over the same three for the doctor.
type commRig struct {
	mems  [3]posix.FS
	admin *plfs.FS
}

func newCommRig() *commRig {
	g := &commRig{}
	for i := range g.mems {
		g.mems[i] = posix.NewMemFS()
	}
	g.admin = plfs.New(posix.NewStripedFS(g.mems[:]...))
	return g
}

// drivers builds a fresh instance and PLFS driver per rank; wrap, if not
// nil, wraps rank's view of each backend.
func (g *commRig) drivers(wrap func(rank, backend int, fs posix.FS) posix.FS) []Driver {
	out := make([]Driver, shRanks)
	for rank := range out {
		var bs [3]posix.FS
		for i := range bs {
			bs[i] = g.mems[i]
			if wrap != nil {
				bs[i] = wrap(rank, i, bs[i])
			}
		}
		out[rank] = NewPLFSDriver(plfs.New(posix.NewStripedFS(bs[:]...)), nil)
	}
	return out
}

// doctor runs the admin instance's doctor on shPath and returns its report.
func (g *commRig) doctor(t *testing.T, fix bool) (string, bool) {
	t.Helper()
	var out strings.Builder
	healthy, err := g.admin.Doctor(&out, shPath, fix, false)
	if err != nil {
		t.Fatalf("doctor: %v\n%s", err, out.String())
	}
	return out.String(), healthy
}

func commHints() Hints {
	h := DefaultHints()
	h.CBBufferSize = 64 << 10
	return h
}

// TestCommRecordMidJob runs the doctor while a collective job is open
// and has written: the communicator's one record is live, and -fix
// removes nothing. After the collective close openhosts is empty.
func TestCommRecordMidJob(t *testing.T) {
	g := newCommRig()
	drv := g.drivers(nil)
	files := make([]*File, shRanks)
	err := runUnderDeadline(t, shRanks, 1, func(r *mpi.Rank) {
		me := r.Rank()
		fh, err := Open(r, drv[me], shPath, ModeCreate|ModeWronly, commHints())
		if err != nil {
			panic(err)
		}
		files[me] = fh
		segs := shSegs(me, 0)
		if _, err := fh.WriteAll(segs, shFill(segs)); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fix := range []bool{false, true} {
		out, healthy := g.doctor(t, fix)
		if !healthy || !strings.Contains(out, "1 openhosts records (1 live, 0 stale)") || strings.Contains(out, "removed") {
			t.Fatalf("doctor (fix %v) mid-job, healthy %v:\n%s\nwant one live record and nothing removed", fix, healthy, out)
		}
	}
	if left := openhostsEntries(t, g.mems[0]); len(left) != 1 || !strings.HasPrefix(left[0], "comm.0-3.") {
		t.Fatalf("openhosts holds %v mid-job, want the communicator's one record", left)
	}
	err = runUnderDeadline(t, shRanks, 1, func(r *mpi.Rank) {
		if err := files[r.Rank()].Close(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if left := openhostsEntries(t, g.mems[0]); len(left) != 0 {
		t.Fatalf("openhosts holds %v after the collective close, want nothing", left)
	}
}

// TestCommRecordAbandoned leaves a collective writable open before any
// rank writes, as a job that dies there would: its record names no pid
// with a data dropping, so it reads stale, and -fix clears it.
func TestCommRecordAbandoned(t *testing.T) {
	g := newCommRig()
	drv := g.drivers(nil)
	err := runUnderDeadline(t, shRanks, 1, func(r *mpi.Rank) {
		if _, err := Open(r, drv[r.Rank()], shPath, ModeCreate|ModeWronly, commHints()); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	out, healthy := g.doctor(t, false)
	if healthy || !strings.Contains(out, "1 openhosts records (0 live, 1 stale)") ||
		!strings.Contains(out, "stale openhosts record: communicator of pids 0-3") {
		t.Fatalf("doctor on an abandoned open, healthy %v:\n%s\nwant the communicator's record stale", healthy, out)
	}
	out, _ = g.doctor(t, true)
	if !strings.Contains(out, "removed 1 stale records") {
		t.Fatalf("doctor -fix:\n%s\nwant the record removed", out)
	}
	if left := openhostsEntries(t, g.mems[0]); len(left) != 0 {
		t.Fatalf("openhosts holds %v after -fix, want nothing", left)
	}
}

// TestCommRecordFailedOpen fails a collective writable open on rank 2 —
// its instance cannot see the container marker — and checks that every
// rank's open fails and no openhosts record is left behind.
func TestCommRecordFailedOpen(t *testing.T) {
	g := newCommRig()
	drv := g.drivers(func(rank, backend int, fs posix.FS) posix.FS {
		if rank != 2 || backend != 0 {
			return fs
		}
		ffs := posix.NewFaultFS(fs)
		ffs.Inject(&posix.FaultRule{Op: posix.FaultMeta, PathContains: "/.plfsaccess", Err: posix.EIO})
		return ffs
	})
	errs := make([]error, shRanks)
	err := runUnderDeadline(t, shRanks, 1, func(r *mpi.Rank) {
		_, errs[r.Rank()] = Open(r, drv[r.Rank()], shPath, ModeCreate|ModeWronly, commHints())
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, err := range errs {
		if err == nil {
			t.Errorf("rank %d's open succeeded, want every rank's to fail", rank)
		}
	}
	if left := openhostsEntries(t, g.mems[0]); len(left) != 0 {
		t.Fatalf("openhosts holds %v after a failed open, want nothing", left)
	}
}

// TestCommRecordSurvivesSetSize truncates a collective job's file to 0
// mid-job: the truncate retires rank 0's writer, but the communicator's
// record stays until the collective close.
func TestCommRecordSurvivesSetSize(t *testing.T) {
	g := newCommRig()
	drv := g.drivers(nil)
	var mid []string
	err := runUnderDeadline(t, shRanks, 1, func(r *mpi.Rank) {
		me := r.Rank()
		fh, err := Open(r, drv[me], shPath, ModeCreate|ModeRdwr, commHints())
		if err != nil {
			panic(err)
		}
		segs := shSegs(me, 0)
		if _, err := fh.WriteAll(segs, shFill(segs)); err != nil {
			panic(err)
		}
		if err := fh.SetSize(0); err != nil {
			panic(err)
		}
		if me == 0 {
			entries, _ := g.mems[0].Readdir(shPath + "/openhosts")
			for _, e := range entries {
				mid = append(mid, e.Name)
			}
		}
		r.Barrier()
		if err := fh.Close(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) != 1 || !strings.HasPrefix(mid[0], "comm.0-3.") {
		t.Fatalf("openhosts holds %v after SetSize(0), want the communicator's one record", mid)
	}
	if left := openhostsEntries(t, g.mems[0]); len(left) != 0 {
		t.Fatalf("openhosts holds %v after the collective close, want nothing", left)
	}
}
