// Command flash-io runs the FLASH-IO checkpoint kernel (three HDF5-style
// files: checkpoint, plotfile, corner plotfile) over the in-process MPI
// runtime with any access method, or against a plfsd gateway with
// -remote.
//
//	flash-io -np 4 -nxb 8 -nblocks 4 -nvars 8 -method ldplfs
//	flash-io -np 4 -remote localhost:7725 -tenant batch
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
	nxb := flag.Int("nxb", 8, "cells per block dimension (paper: 24)")
	nblocks := flag.Int("nblocks", 4, "blocks per process (FLASH default: 80)")
	nvars := flag.Int("nvars", 8, "unknowns per cell (FLASH: 24)")
	split := flag.Bool("split", false, "split checkpoints: N-N write phase, one file triplet per rank (default: shared N-1)")
	flag.Parse()

	plane := ptune.NewPlane()
	store := harness.Instrument(harness.NewStoreN(job.Backends, plane), plane)
	cfg := workload.FlashIOConfig{NXB: *nxb, NBlocks: *nblocks, NVars: *nvars, SplitFiles: *split, Hints: mio.Hints()}
	fmt.Printf("flash-io: ~%.1f MB per process\n", float64(cfg.BytesPerProcess())/1e6)
	cfg.Hints.Collector = plane
	popts := ptune.Options(plane)

	start := time.Now()
	var wrote int64
	err := mpi.Run(job.NP, job.PPN, func(r *mpi.Rank) {
		drv, pathFor, err := harness.RankDriver(&remote, job.Method, store, r.Rank(), popts...)
		if err != nil {
			panic(err)
		}
		res, err := workload.RunFlashIO(r, drv, pathFor("flash"), cfg)
		if err != nil {
			panic(err)
		}
		if job.Verify {
			for i, f := range res.Files {
				if err := workload.VerifyFlashFile(r, drv, f, cfg, i); err != nil {
					panic(err)
				}
			}
		}
		if r.Rank() == 0 {
			wrote = res.BytesWritten * int64(r.Size())
		}
	})
	if err != nil {
		// log.Fatal skips defers; a failing run is exactly when the
		// per-layer snapshot matters, so dump it first.
		fmt.Fprint(os.Stderr, plane.Snapshot().String())
		log.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	fmt.Printf("flash-io: method=%s np=%d wrote=%d bytes across 3 files in %.3fs (%.1f MB/s)\n",
		job.Method, job.NP, wrote, elapsed, float64(wrote)/elapsed/1e6)
	if job.Verify {
		fmt.Println("verification: OK (all three files)")
	}
	fmt.Fprint(os.Stderr, plane.Snapshot().String())
}
