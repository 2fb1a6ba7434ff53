// Command mpiio-test runs the LANL MPI-IO Test kernel over the in-process
// MPI runtime with any of the paper's four access methods, and reports
// measured (wall-clock) write/read bandwidth on the functional stack.
//
//	mpiio-test -np 8 -ppn 2 -method ldplfs -size 8388608 -block 1048576
//	mpiio-test -np 4 -remote localhost:7725 -tenant batch
//
// With -remote the kernel runs against a plfsd gateway instead of an
// in-process store: each rank dials its own connection (one gateway
// session, one PLFS pid) and the collective structure is unchanged.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"ldplfs/internal/harness"
	"ldplfs/internal/harness/flags"
	"ldplfs/internal/mpi"
	"ldplfs/internal/workload"
)

func main() {
	var job flags.Job
	var ptune flags.Plfs
	var mio flags.MPIIO
	var remote flags.Remote
	job.Register(flag.CommandLine, 8, "ldplfs")
	ptune.Register(flag.CommandLine)
	mio.Register(flag.CommandLine)
	remote.Register(flag.CommandLine)
	size := flag.Int64("size", 8<<20, "bytes per process")
	block := flag.Int64("block", 1<<20, "block size per collective call")
	nn := flag.Bool("nn", false, "N-N write phase: each rank writes its own file (default: strided N-1)")
	flag.Parse()

	plane := ptune.NewPlane()
	store := harness.Instrument(harness.NewStoreN(job.Backends, plane), plane)
	cfg := workload.MPIIOTestConfig{
		BytesPerProc: *size,
		BlockSize:    *block,
		FilePerProc:  *nn,
		Verify:       job.Verify,
		Hints:        mio.Hints(),
	}
	cfg.Hints.Collector = plane
	popts := ptune.Options(plane)

	start := time.Now()
	var wrote, read int64
	err := mpi.Run(job.NP, job.PPN, func(r *mpi.Rank) {
		drv, pathFor, err := harness.RankDriver(&remote, job.Method, store, r.Rank(), popts...)
		if err != nil {
			panic(err)
		}
		res, err := workload.RunMPIIOTest(r, drv, pathFor("mpiio-test.out"), cfg)
		if err != nil {
			panic(err)
		}
		if r.Rank() == 0 {
			wrote = res.BytesWritten * int64(r.Size())
			read = res.BytesRead * int64(r.Size())
		}
	})
	if err != nil {
		// log.Fatal skips defers; a failing run is exactly when the
		// per-layer snapshot matters, so dump it first.
		fmt.Fprint(os.Stderr, plane.Snapshot().String())
		log.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	shape := "n-1 strided"
	if *nn {
		shape = "n-n file-per-proc"
	}
	fmt.Printf("mpiio-test: method=%s shape=%s np=%d ppn=%d wrote=%d read=%d in %.3fs (%.1f MB/s end-to-end)\n",
		job.Method, shape, job.NP, job.PPN, wrote, read, elapsed, float64(wrote+read)/elapsed/1e6)
	if job.Verify {
		fmt.Println("verification: OK (every rank validated its neighbour's blocks)")
	}
	fmt.Fprint(os.Stderr, plane.Snapshot().String())
}
