package iotrace

import (
	"testing"

	"ldplfs/internal/core"
	"ldplfs/internal/iostats"
	"ldplfs/internal/mpi"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
	"ldplfs/internal/workload"
)

func TestRecorderBasics(t *testing.T) {
	mem := posix.NewMemFS()
	rec := Wrap(mem)

	fd, err := rec.Open("/f", posix.O_CREAT|posix.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rec.Write(fd, make([]byte, 100))
	rec.Pwrite(fd, make([]byte, 50), 200)
	buf := make([]byte, 64)
	rec.Pread(fd, buf, 0)
	rec.Fstat(fd)
	rec.Close(fd)

	// Reopening an existing file is an open, not a create.
	fd, _ = rec.Open("/f", posix.O_RDONLY, 0)
	rec.Close(fd)
	rec.Mkdir("/d", 0o755)

	s := Summarize(rec.Events())
	if s.FileCreates != 1 {
		t.Errorf("FileCreates = %d, want 1", s.FileCreates)
	}
	if s.DirCreates != 1 {
		t.Errorf("DirCreates = %d, want 1", s.DirCreates)
	}
	if s.Opens != 1 {
		t.Errorf("Opens = %d, want 1", s.Opens)
	}
	if s.BytesWritten != 150 || s.WriteCalls != 2 {
		t.Errorf("writes = %d bytes / %d calls", s.BytesWritten, s.WriteCalls)
	}
	if s.BytesRead != 64 || s.ReadCalls != 1 {
		t.Errorf("reads = %d bytes / %d calls", s.BytesRead, s.ReadCalls)
	}
	if s.WriteStreams != 1 {
		t.Errorf("WriteStreams = %d, want 1", s.WriteStreams)
	}
	if s.MedianWrite != 100 {
		t.Errorf("MedianWrite = %d, want 100", s.MedianWrite)
	}
	if s.MetaOps == 0 {
		t.Error("Fstat not counted as meta")
	}
}

// TestRecorderFeedsPlane checks the rebuilt recorder is a true consumer
// of the telemetry plane: one WrapWith gives the event stream here and
// the aggregate counters on the plane's "iotrace" layer.
func TestRecorderFeedsPlane(t *testing.T) {
	mem := posix.NewMemFS()
	plane := iostats.NewPlane()
	rec := WrapWith(mem, plane)

	fd, err := rec.Open("/f", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rec.Write(fd, make([]byte, 100))
	rec.Close(fd)

	if got := Summarize(rec.Events()); got.BytesWritten != 100 || got.FileCreates != 1 {
		t.Fatalf("event stream summary = %+v", got)
	}
	ls := plane.Layer("iotrace")
	if got := ls.OpBytes(iostats.Write); got != 100 {
		t.Fatalf("plane write bytes = %d, want 100", got)
	}
	if got := ls.OpCount(iostats.Open); got != 1 {
		t.Fatalf("plane open count = %d, want 1", got)
	}
}

func TestRecorderReset(t *testing.T) {
	rec := Wrap(posix.NewMemFS())
	fd, _ := rec.Open("/x", posix.O_CREAT|posix.O_WRONLY, 0o644)
	rec.Write(fd, []byte("abc"))
	rec.Close(fd)
	if len(rec.Events()) == 0 {
		t.Fatal("no events recorded")
	}
	rec.Reset()
	if len(rec.Events()) != 0 {
		t.Fatal("Reset left events behind")
	}
}

// TestLDPLFSCreatesScaleWithRanks measures, on the functional stack, the
// mechanism behind Fig. 5: through LDPLFS each FLASH-IO output spawns
// per-process dropping files (MDS create storm), while plain MPI-IO
// creates a constant number of files regardless of scale.
func TestLDPLFSCreatesScaleWithRanks(t *testing.T) {
	run := func(ranks int, usePLFS bool) Summary {
		mem := posix.NewMemFS()
		mem.Mkdir("/scratch", 0o755)
		mem.Mkdir("/backend", 0o755)
		rec := Wrap(mem)

		cfg := workload.FlashIOConfig{NXB: 4, NBlocks: 2, NVars: 4, Hints: mpiio.DefaultHints()}
		err := mpi.Run(ranks, 2, func(r *mpi.Rank) {
			var drv mpiio.Driver
			base := "/scratch/run"
			if usePLFS {
				d := posix.NewDispatch(rec)
				if _, err := core.Preload(d, core.Config{
					Mounts:      []core.Mount{{Point: "/mnt/plfs", Backend: "/backend"}},
					Pid:         uint32(r.Rank()),
					PlfsOptions: plfs.Config{Engine: plfs.EngineOptions{NumHostdirs: 4}},
				}); err != nil {
					panic(err)
				}
				drv = mpiio.NewUFS(d)
				base = "/mnt/plfs/run"
			} else {
				drv = mpiio.NewUFS(posix.NewDispatch(rec))
			}
			if _, err := workload.RunFlashIO(r, drv, base, cfg); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return Summarize(rec.Events())
	}

	plfs4 := run(4, true)
	plfs8 := run(8, true)
	plain4 := run(4, false)
	plain8 := run(8, false)

	// Plain MPI-IO: 3 files regardless of rank count.
	if plain4.FileCreates != 3 || plain8.FileCreates != 3 {
		t.Errorf("plain creates = %d/%d, want 3/3", plain4.FileCreates, plain8.FileCreates)
	}
	// LDPLFS: dropping files grow with ranks (>= 2 per rank per output).
	if plfs8.DroppingFiles <= plfs4.DroppingFiles {
		t.Errorf("dropping files did not scale: %d at 4 ranks, %d at 8",
			plfs4.DroppingFiles, plfs8.DroppingFiles)
	}
	if plfs8.DroppingFiles < 8*2*3 {
		t.Errorf("droppings at 8 ranks = %d, want >= %d (2 per rank per file)",
			plfs8.DroppingFiles, 8*2*3)
	}
	// And write streams multiply correspondingly — the OSS-contention
	// term of the Fig. 5 model, measured.
	if plfs8.WriteStreams <= plain8.WriteStreams {
		t.Errorf("PLFS write streams %d not above plain %d",
			plfs8.WriteStreams, plain8.WriteStreams)
	}
}

// TestWriteSizesThroughCollectiveBuffering confirms the aggregator effect
// the BT analysis leans on: with collective buffering, the backend sees
// few large writes rather than many small ones.
func TestWriteSizesThroughCollectiveBuffering(t *testing.T) {
	const ranks, block = 8, 64 << 10
	run := func(cb bool) Summary {
		mem := posix.NewMemFS()
		mem.Mkdir("/scratch", 0o755)
		rec := Wrap(mem)
		hints := mpiio.DefaultHints()
		hints.CollectiveBuffering = cb
		err := mpi.Run(ranks, 4, func(r *mpi.Rank) {
			fh, err := mpiio.Open(r, mpiio.NewUFS(posix.NewDispatch(rec)), "/scratch/f",
				mpiio.ModeCreate|mpiio.ModeWronly, hints)
			if err != nil {
				panic(err)
			}
			if _, err := fh.WriteAtAll(make([]byte, block), int64(r.Rank())*block); err != nil {
				panic(err)
			}
			fh.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		return Summarize(rec.Events())
	}

	with := run(true)
	without := run(false)
	if with.WriteCalls >= without.WriteCalls {
		t.Errorf("collective buffering did not reduce write calls: %d vs %d",
			with.WriteCalls, without.WriteCalls)
	}
	if with.MedianWrite <= without.MedianWrite {
		t.Errorf("collective buffering did not enlarge writes: median %d vs %d",
			with.MedianWrite, without.MedianWrite)
	}
	if with.BytesWritten != without.BytesWritten {
		t.Errorf("byte totals differ: %d vs %d", with.BytesWritten, without.BytesWritten)
	}
}
