// Parallel checkpointing through LDPLFS: a FLASH-style application writes
// HDF5 checkpoints collectively, each checkpoint becoming a PLFS
// container; the example then verifies one and flattens it back to a
// plain file for archiving.
//
//	go run ./examples/checkpoint
package main

import (
	"fmt"
	"log"

	"ldplfs/internal/harness"
	"ldplfs/internal/mpi"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/plfs"
	"ldplfs/internal/workload"
)

func main() {
	store := harness.NewStore()
	cfg := workload.FlashIOConfig{
		NXB:     8,
		NBlocks: 4,
		NVars:   8,
		Hints:   mpiio.DefaultHints(),
	}
	fmt.Printf("checkpointing ~%.2f MB per process across 3 HDF5 files\n",
		float64(cfg.BytesPerProcess())/1e6)

	var files []string
	err := mpi.Run(8, 4, func(r *mpi.Rank) {
		drv, pathFor, err := harness.DriverFor("ldplfs", store, r.Rank())
		if err != nil {
			panic(err)
		}
		res, err := workload.RunFlashIO(r, drv, pathFor("sim"), cfg)
		if err != nil {
			panic(err)
		}
		// Every rank verifies the checkpoint file before declaring success
		// — a checkpoint you cannot restore is not a checkpoint.
		if err := workload.VerifyFlashFile(r, drv, res.Files[0], cfg, 0); err != nil {
			panic(err)
		}
		if r.Rank() == 0 {
			files = res.Files
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpoint written and verified:")
	for _, f := range files {
		fmt.Println("  ", f)
	}

	// Post-processing: flatten the checkpoint container into an ordinary
	// file (what plfsctl flatten does), e.g. for tape archiving.
	p := plfs.New(store)
	src := harness.BackendDir + "/sim_hdf5_chk_0001"
	dst := harness.ScratchDir + "/sim_chk_0001.h5"
	if err := p.Flatten(src, dst); err != nil {
		log.Fatal(err)
	}
	st, _ := store.Stat(dst)
	cst, _ := p.Stat(src)
	fmt.Printf("flattened %s (%d logical bytes) -> %s (%d bytes)\n", src, cst.Size, dst, st.Size)
	if st.Size != cst.Size {
		log.Fatal("flatten size mismatch")
	}
	fmt.Println("archive copy ready.")
}
