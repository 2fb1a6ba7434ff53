// UNIX tools over PLFS containers without FUSE — the paper's Section
// III-D demonstration. A parallel job writes a container; afterwards
// ordinary cp/cat/grep/md5sum (dynamically "relinked" with LDPLFS)
// extract the data.
//
//	go run ./examples/unixtools
package main

import (
	"fmt"
	"log"
	"strings"

	"ldplfs/internal/core"
	"ldplfs/internal/harness"
	"ldplfs/internal/mpi"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/unixtools"
)

func main() {
	store := harness.NewStore()

	// Phase 1: a 4-rank MPI job writes a shared "visualisation dump"
	// through LDPLFS. Each rank contributes one line region.
	err := mpi.Run(4, 2, func(r *mpi.Rank) {
		drv, pathFor, err := harness.DriverFor("ldplfs", store, r.Rank())
		if err != nil {
			panic(err)
		}
		fh, err := mpiio.Open(r, drv, pathFor("dump.txt"), mpiio.ModeCreate|mpiio.ModeRdwr, mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		line := fmt.Sprintf("rank %d: field=%08.3f marker=%s\n", r.Rank(), float64(r.Rank())*3.25, strings.Repeat("x", 8))
		if _, err := fh.WriteAtAll([]byte(line), int64(r.Rank())*int64(len(line))); err != nil {
			panic(err)
		}
		if err := fh.Close(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 2: post-processing with standard tools. A fresh "login shell"
	// process loads LDPLFS over the store via the environment-variable
	// path.
	cfg, err := core.ConfigFromEnv(func(k string) string {
		if k == core.EnvMounts {
			return harness.MountPoint + "=" + harness.BackendDir
		}
		return ""
	})
	if err != nil {
		log.Fatal(err)
	}
	shell, err := core.New(store, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("$ ls /mnt/plfs")
	names, _ := unixtools.Ls(shell, "/mnt/plfs")
	for _, n := range names {
		fmt.Println(" ", n)
	}

	fmt.Println("\n$ cat /mnt/plfs/dump.txt")
	var out strings.Builder
	if _, err := unixtools.Cat(shell, "/mnt/plfs/dump.txt", &out); err != nil {
		log.Fatal(err)
	}
	fmt.Print(out.String())

	fmt.Println("\n$ grep 'rank 2' /mnt/plfs/dump.txt")
	matches, _ := unixtools.Grep(shell, "rank 2", "/mnt/plfs/dump.txt")
	for _, m := range matches {
		fmt.Printf("  %d:%s\n", m.LineNo, m.Line)
	}

	fmt.Println("\n$ cp /mnt/plfs/dump.txt /scratch/dump.flat && md5sum both")
	if _, err := unixtools.Cp(shell, "/mnt/plfs/dump.txt", "/scratch/dump.flat"); err != nil {
		log.Fatal(err)
	}
	sumContainer, _ := unixtools.Md5sum(shell, "/mnt/plfs/dump.txt")
	sumFlat, _ := unixtools.Md5sum(shell, "/scratch/dump.flat")
	fmt.Printf("  %s  /mnt/plfs/dump.txt (container)\n", sumContainer)
	fmt.Printf("  %s  /scratch/dump.flat (plain file)\n", sumFlat)
	if sumContainer != sumFlat {
		log.Fatal("digests differ!")
	}
	fmt.Println("\ndigests match: raw data extracted from PLFS without FUSE.")
}
