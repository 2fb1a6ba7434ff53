// Command bt-io runs the NAS BT-IO kernel (multi-partition diagonal
// decomposition, five doubles per grid point) over the in-process MPI
// runtime with any access method, or against a plfsd gateway with
// -remote.
//
//	bt-io -np 4 -grid 24 -steps 5 -method romio
//	bt-io -np 4 -remote localhost:7725 -tenant batch
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
	job.Register(flag.CommandLine, 4, "ldplfs")
	ptune.Register(flag.CommandLine)
	mio.Register(flag.CommandLine)
	remote.Register(flag.CommandLine)
	grid := flag.Int("grid", 24, "grid points per dimension")
	steps := flag.Int("steps", 5, "write timesteps")
	epio := flag.Bool("epio", false, "epio subtype: N-N write phase, one file per rank (default: collective N-1)")
	flag.Parse()

	plane := ptune.NewPlane()
	store := harness.Instrument(harness.NewStoreN(job.Backends, plane), plane)
	cfg := workload.BTIOConfig{Grid: *grid, Steps: *steps, EPIO: *epio, Hints: mio.Hints()}
	cfg.Hints.Collector = plane
	popts := ptune.Options(plane)

	start := time.Now()
	var wrote int64
	err := mpi.Run(job.NP, job.PPN, func(r *mpi.Rank) {
		drv, pathFor, err := harness.RankDriver(&remote, job.Method, store, r.Rank(), popts...)
		if err != nil {
			panic(err)
		}
		res, err := workload.RunBTIO(r, drv, pathFor("btio.out"), cfg, job.Verify)
		if err != nil {
			panic(err)
		}
		if r.Rank() == 0 {
			wrote = res.BytesWritten * int64(r.Size())
			fmt.Printf("bt-io: %dx%d process grid, cell width %d\n", res.ProcGrid, res.ProcGrid, res.CellWidth)
		}
	})
	if err != nil {
		// log.Fatal skips defers; a failing run is exactly when the
		// per-layer snapshot matters, so dump it first.
		fmt.Fprint(os.Stderr, plane.Snapshot().String())
		log.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	subtype := "full"
	if *epio {
		subtype = "epio"
	}
	fmt.Printf("bt-io: method=%s subtype=%s np=%d grid=%d steps=%d wrote=%d bytes in %.3fs (%.1f MB/s)\n",
		job.Method, subtype, job.NP, *grid, *steps, wrote, elapsed, float64(wrote)/elapsed/1e6)
	if job.Verify {
		fmt.Println("verification: OK")
	}
	fmt.Fprint(os.Stderr, plane.Snapshot().String())
}
