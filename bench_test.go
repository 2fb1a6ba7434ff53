package ldplfs_test

import (
	"fmt"
	"testing"

	"ldplfs/internal/bench"
	"ldplfs/internal/core"
	"ldplfs/internal/fsim"
	"ldplfs/internal/fuse"
	"ldplfs/internal/harness"
	"ldplfs/internal/mpi"
	"ldplfs/internal/mpiio"
	idx "ldplfs/internal/plfs/index"
	"ldplfs/internal/posix"
	"ldplfs/internal/workload"
)

// --- model benches: one per table / figure of the paper -------------------
//
// Each bench regenerates the experiment from the platform models and
// reports the figure's headline number as a custom metric, so
// `go test -bench .` reproduces the evaluation section end to end.

func BenchmarkTable1_Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := bench.TableI(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func benchFig3(b *testing.B, ppn int, read bool) {
	p := fsim.Minerva()
	var plateauPLFS, plateauMPI float64
	for i := 0; i < b.N; i++ {
		s := p.Fig3Series(ppn, read, fsim.Fig3Nodes)
		last := len(fsim.Fig3Nodes) - 1
		plateauPLFS = s[fsim.LDPLFS][last]
		plateauMPI = s[fsim.MPIIO][last]
	}
	b.ReportMetric(plateauPLFS, "LDPLFS-MB/s@64nodes")
	b.ReportMetric(plateauMPI, "MPIIO-MB/s@64nodes")
}

func BenchmarkFig3a_Write1PPN(b *testing.B) { benchFig3(b, 1, false) }
func BenchmarkFig3b_Write2PPN(b *testing.B) { benchFig3(b, 2, false) }
func BenchmarkFig3c_Write4PPN(b *testing.B) { benchFig3(b, 4, false) }
func BenchmarkFig3d_Read1PPN(b *testing.B)  { benchFig3(b, 1, true) }
func BenchmarkFig3e_Read2PPN(b *testing.B)  { benchFig3(b, 2, true) }
func BenchmarkFig3f_Read4PPN(b *testing.B)  { benchFig3(b, 4, true) }

func BenchmarkTable2_UnixTools(b *testing.B) {
	p := fsim.Minerva()
	var cpPlfs float64
	for i := 0; i < b.N; i++ {
		rows := p.TableII()
		cpPlfs = rows[0].PlfsSecs
	}
	b.ReportMetric(cpPlfs, "cp-from-plfs-secs")
}

func BenchmarkFig4a_BTClassC(b *testing.B) {
	p := fsim.Sierra()
	var peak float64
	for i := 0; i < b.N; i++ {
		s := p.BTSeries(fsim.BTClassC, fsim.Fig4aCores)
		peak = s[fsim.LDPLFS][len(fsim.Fig4aCores)-1]
	}
	b.ReportMetric(peak, "LDPLFS-MB/s@1024cores")
}

func BenchmarkFig4b_BTClassD(b *testing.B) {
	p := fsim.Sierra()
	var dip float64
	for i := 0; i < b.N; i++ {
		s := p.BTSeries(fsim.BTClassD, fsim.Fig4bCores)
		dip = s[fsim.LDPLFS][2] // the 1,024-core cache cliff
	}
	b.ReportMetric(dip, "LDPLFS-MB/s@1024cores-dip")
}

func BenchmarkFig5_FlashIO(b *testing.B) {
	p := fsim.Sierra()
	var peak, collapse float64
	for i := 0; i < b.N; i++ {
		s := p.FlashSeries(fsim.Fig5Cores)
		for _, v := range s[fsim.LDPLFS] {
			if v > peak {
				peak = v
			}
		}
		collapse = s[fsim.LDPLFS][len(fsim.Fig5Cores)-1]
	}
	b.ReportMetric(peak, "peak-MB/s")
	b.ReportMetric(collapse, "collapse-MB/s@3072")
}

// --- functional benches: the real stack moving real bytes -----------------

// benchShimEnv builds a preloaded process over MemFS.
func benchShimEnv(b *testing.B) *posix.Dispatch {
	b.Helper()
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		b.Fatal(err)
	}
	d := posix.NewDispatch(mem)
	if _, err := core.Preload(d, core.Config{
		Mounts: []core.Mount{{Point: "/mnt/plfs", Backend: "/backend"}},
		Pid:    1,
	}); err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkLDPLFSWrite1MiB(b *testing.B) {
	d := benchShimEnv(b)
	fd, err := d.Open("/mnt/plfs/bench", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close(fd)
	buf := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Write(fd, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlainWrite1MiB(b *testing.B) {
	mem := posix.NewMemFS()
	d := posix.NewDispatch(mem)
	fd, err := d.Open("/bench", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close(fd)
	buf := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Write(fd, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFuseWrite1MiB(b *testing.B) {
	mem := posix.NewMemFS()
	mem.Mkdir("/backend", 0o755)
	fs := fuse.Mount(mem, "/mnt/plfs", "/backend")
	fd, err := fs.Open("/mnt/plfs/bench", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close(fd)
	buf := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Write(fd, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLDPLFSRead1MiB(b *testing.B) {
	d := benchShimEnv(b)
	fd, _ := d.Open("/mnt/plfs/bench", posix.O_CREAT|posix.O_RDWR, 0o644)
	defer d.Close(fd)
	buf := make([]byte, 1<<20)
	for i := 0; i < 16; i++ {
		d.Write(fd, buf)
	}
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%16) << 20
		if _, err := d.Pread(fd, buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexBuild10k(b *testing.B) {
	entries := make([]idx.Entry, 10000)
	for i := range entries {
		entries[i] = idx.Entry{
			LogicalOffset:  int64(i) * 4096,
			Length:         4096,
			PhysicalOffset: int64(i) * 4096,
			Timestamp:      uint64(i + 1),
			Pid:            uint32(i % 64),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := idx.Build(entries); g.Size() == 0 {
			b.Fatal("empty index")
		}
	}
}

func BenchmarkCollectiveWrite8Ranks(b *testing.B) {
	const block = 256 << 10
	b.SetBytes(8 * block)
	for i := 0; i < b.N; i++ {
		store := harness.NewStore()
		err := mpi.Run(8, 4, func(r *mpi.Rank) {
			drv, pathFor, err := harness.DriverFor("ldplfs", store, r.Rank())
			if err != nil {
				panic(err)
			}
			fh, err := mpiio.Open(r, drv, pathFor("bench"), mpiio.ModeCreate|mpiio.ModeWronly, mpiio.DefaultHints())
			if err != nil {
				panic(err)
			}
			buf := make([]byte, block)
			if _, err := fh.WriteAtAll(buf, int64(r.Rank())*block); err != nil {
				panic(err)
			}
			fh.Close()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTIOKernel(b *testing.B) { benchBTIO(b, 4, 16) }

// BenchmarkBTIOKernel16Ranks is the dense collective at scale: 16 ranks
// write 1024 rows each per WriteAll, so every rank's share of the
// collective geometry (all ranks' segment lists) is 16k pieces.
func BenchmarkBTIOKernel16Ranks(b *testing.B) { benchBTIO(b, 16, 64) }

func benchBTIO(b *testing.B, ranks, grid int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store := harness.NewStore()
		err := mpi.Run(ranks, 2, func(r *mpi.Rank) {
			drv, pathFor, err := harness.DriverFor("romio", store, r.Rank())
			if err != nil {
				panic(err)
			}
			if _, err := workload.RunBTIO(r, drv, pathFor(fmt.Sprintf("bt%d", i)),
				workload.BTIOConfig{Grid: grid, Steps: 2, Hints: mpiio.DefaultHints()}, false); err != nil {
				panic(err)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStridedCollective16Ranks times one WriteAll and one ReadAll
// of 16 ranks' round-robin stripes, 1024 of 640 bytes each per rank,
// with no holes and with a hole after every stripe as wide as it. At
// the default staging size every domain is one staging buffer either
// way, so those cases time the collective's own CPU: the plan exchange,
// the routing and the staging, not fewer backend calls. The cb64K cases
// stage 64 KiB at a time, so each of the 8 aggregators' 1.25 MiB of
// data takes 20 buffers: they time the aggregator's staging loop.
func BenchmarkStridedCollective16Ranks(b *testing.B) {
	const ranks, stripes, stripe = 16, 1024, 640
	for _, cb := range []struct {
		prefix  string
		staging int
	}{{"", mpiio.DefaultHints().CBBufferSize}, {"cb64K-", 64 << 10}} {
		hints := mpiio.DefaultHints()
		hints.CBBufferSize = cb.staging
		for _, period := range []int64{ranks * stripe, 2 * ranks * stripe} {
			name := "dense"
			if period > ranks*stripe {
				name = "holes"
			}
			b.Run(cb.prefix+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					store := harness.NewStore()
					err := mpi.Run(ranks, 2, func(r *mpi.Rank) {
						drv, pathFor, err := harness.DriverFor("romio", store, r.Rank())
						if err != nil {
							panic(err)
						}
						fh, err := mpiio.Open(r, drv, pathFor("strided"), mpiio.ModeCreate|mpiio.ModeRdwr, hints)
						if err != nil {
							panic(err)
						}
						segs := make([]mpiio.Segment, stripes)
						for k := range segs {
							segs[k] = mpiio.Segment{Off: int64(k)*period + int64(r.Rank())*stripe, Len: stripe}
						}
						buf := make([]byte, stripes*stripe)
						if _, err := fh.WriteAll(segs, buf); err != nil {
							panic(err)
						}
						if _, err := fh.ReadAll(segs, buf); err != nil {
							panic(err)
						}
						fh.Close()
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFlashIOKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		store := harness.NewStore()
		err := mpi.Run(4, 2, func(r *mpi.Rank) {
			drv, pathFor, err := harness.DriverFor("ldplfs", store, r.Rank())
			if err != nil {
				panic(err)
			}
			if _, err := workload.RunFlashIO(r, drv, pathFor(fmt.Sprintf("fl%d", i)),
				workload.FlashIOConfig{NXB: 4, NBlocks: 2, NVars: 4, Hints: mpiio.DefaultHints()}); err != nil {
				panic(err)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
