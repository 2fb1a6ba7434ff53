// Command ldrun runs the bundled "unmodified" UNIX tools (cp, cat, grep,
// md5sum, ls) against a real directory tree, optionally with LDPLFS
// preloaded — the executable equivalent of
//
//	LD_PRELOAD=libldplfs.so LDPLFS_MNT=/mnt/plfs=/backend cp ...
//
// Without -preload the tools see raw container directories; with it they
// see PLFS containers as single files and can read and write them. The
// tree lives under -root on the host file system. With -remote the tools
// run against a plfsd gateway instead: the daemon holds the containers
// and the preload decision, and ldrun only speaks the wire protocol.
//
//	ldrun -root /tmp/store -preload -mnt /mnt/plfs=/backend md5sum /mnt/plfs/data
//	ldrun -remote localhost:7725 -tenant ops cat /mnt/plfs/data
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ldplfs/internal/core"
	"ldplfs/internal/harness/flags"
	"ldplfs/internal/iostats"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
	"ldplfs/internal/unixtools"
)

func main() {
	var ptune flags.Plfs
	var remote flags.Remote
	root := flag.String("root", ".", "host directory backing the tree (canonical backend)")
	backends := flag.String("backends", "", "comma-separated extra host directories to stripe container droppings across (shadow backends)")
	layoutDesc := flag.String("layout", "", "placement layout across the backends: mod-n (default) or replica-R")
	preload := flag.Bool("preload", false, "load the LDPLFS shim over the tree, as LD_PRELOAD would")
	mnt := flag.String("mnt", "/mnt/plfs=/backend", "mount spec (point=backend[,point=backend])")
	pid := flag.Uint("pid", uint(os.Getpid()), "writer id passed to PLFS")
	ptune.Register(flag.CommandLine)
	remote.Register(flag.CommandLine)
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: ldrun [flags] {cp SRC DST | cat FILE | grep PAT FILE | md5sum FILE | ls DIR}")
		os.Exit(2)
	}

	var fs posix.FS
	var plane *iostats.Plane
	if remote.Enabled() {
		conn, err := remote.Dial()
		if err != nil {
			log.Fatalf("ldrun: %v", err)
		}
		defer conn.Close()
		fs = conn.FS()
	} else {
		osfs, err := posix.NewOSFS(*root)
		if err != nil {
			log.Fatalf("ldrun: root %s: %v", *root, err)
		}
		// The plane comes first so the striped composite's replica
		// counters land on it too.
		plane = ptune.NewPlane()
		system, err := posix.NewStripedRoots(osfs, *backends, *layoutDesc, plane)
		if err != nil {
			log.Fatalf("ldrun: %v", err)
		}
		if plane != nil {
			system = posix.NewInstrumentFS(system, plane)
		}
		fs = system

		if *preload {
			mounts, err := core.ParseMounts(*mnt)
			if err != nil {
				log.Fatal(err)
			}
			if fs, err = core.New(system, core.Config{
				Mounts: mounts,
				Pid:    uint32(*pid),
				Plfs:   plfs.New(system, ptune.Options(plane)...),
			}); err != nil {
				log.Fatalf("ldrun: preload: %v", err)
			}
		}
	}
	// The snapshot must survive failing commands too — that is when an
	// operator most wants the per-layer picture — so the fatal paths
	// below dump before exiting (log.Fatal skips deferred functions).
	dumpStats := func() { fmt.Fprint(os.Stderr, plane.Snapshot().String()) }
	defer dumpStats()
	fatal := func(v ...any) {
		dumpStats() // log.Fatal exits without running defers
		log.Fatal(v...)
	}

	switch args[0] {
	case "cp":
		if len(args) != 3 {
			fatal("ldrun: cp SRC DST")
		}
		n, err := unixtools.Cp(fs, args[1], args[2])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("copied %d bytes\n", n)
	case "cat":
		if len(args) != 2 {
			fatal("ldrun: cat FILE")
		}
		if _, err := unixtools.Cat(fs, args[1], os.Stdout); err != nil {
			fatal(err)
		}
	case "grep":
		if len(args) != 3 {
			fatal("ldrun: grep PATTERN FILE")
		}
		matches, err := unixtools.Grep(fs, args[1], args[2])
		if err != nil {
			fatal(err)
		}
		for _, m := range matches {
			fmt.Printf("%d:%s\n", m.LineNo, m.Line)
		}
	case "md5sum":
		if len(args) != 2 {
			fatal("ldrun: md5sum FILE")
		}
		sum, err := unixtools.Md5sum(fs, args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s  %s\n", sum, args[1])
	case "ls":
		if len(args) != 2 {
			fatal("ldrun: ls DIR")
		}
		names, err := unixtools.Ls(fs, args[1])
		if err != nil {
			fatal(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}
	default:
		fatal(fmt.Sprintf("ldrun: unknown tool %q", args[0]))
	}
}
