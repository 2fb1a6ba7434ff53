// Command plfsctl inspects and manipulates PLFS containers on a real
// directory tree (the backend, as plfs_map/plfs_flatten_index do for real
// PLFS). With -backends the container's droppings are resolved across a
// striped set of host directories (canonical root first, shadows after),
// which must match the backend list the container was written with.
//
//	plfsctl -root /tmp/store info /backend/data        # container summary
//	plfsctl -root /tmp/store index /backend/data       # dump merged index
//	plfsctl -root /tmp/store flatten /backend/data /backend/data.flat
//	plfsctl -root /tmp/store compact /backend/data  # merge droppings + write flattened index
//	plfsctl -root /tmp/store doctor /backend/data   # openhosts + index health report
//	plfsctl -root /tmp/store -backends /tmp/b1,/tmp/b2 -fix doctor /backend/data
//	plfsctl -root /tmp/store -backends /tmp/b1,/tmp/b2 -layout replica-2 -fix doctor /backend/data
//	plfsctl -root /tmp/store rm /backend/data
//	plfsctl stats                                   # telemetry-plane snapshot demo
//
// Every subcommand reads through the plfs library, as a reader would:
// info and index show the merged index the read path resolves (through
// the instance's cache, from a trusted flattened record when there is
// one), and counts come from plfs.FS.IndexHealth. compact consolidates
// the raw index droppings and persists the flattened global index record
// cold opens load in O(extents).
//
// doctor prints plfs.FS.Doctor, the one container check-and-repair
// procedure (plfsd runs the same one for -remote): openhosts records,
// index health and, with -layout replica-R, every replica set. -fix
// clears stale openhosts records, refreshes or removes a flattened
// record that is not fresh (fresh records are always left alone) and
// re-replicates missing copies; diverged copies are rebuilt only under
// -fix -force, which is local-only. doctor exits 1 while the container
// still needs the operator.
//
// stats runs one in-memory harness workload (the MPI-IO Test kernel over
// the direct-PLFS method, 4 ranks) with the unified iostats telemetry
// plane attached to every layer, and dumps the per-layer snapshot: the
// posix backend, the plfs engines, the shared read caches and the
// MPI-IO collective path — the full instrumentation plane from one run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ldplfs/internal/harness"
	"ldplfs/internal/iostats"
	"ldplfs/internal/mpi"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
	"ldplfs/internal/service/client"
	"ldplfs/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one plfsctl invocation and returns its exit code — split
// from main so the end-to-end tests can drive the tool in-process.
func run(argv []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("plfsctl", flag.ContinueOnError)
	fl.SetOutput(stderr)
	root := fl.String("root", ".", "host directory backing the tree (canonical backend)")
	backends := fl.String("backends", "", "comma-separated extra host directories the container's droppings are striped across")
	layoutDesc := fl.String("layout", "", "placement layout across the backends: mod-n (default) or replica-R")
	fix := fl.Bool("fix", false, "doctor: repair what it finds (stale openhosts records, a flattened index record that is not fresh, missing replica copies)")
	force := fl.Bool("force", false, "doctor -fix: also rebuild diverged replica copies from the longest copy")
	remote := fl.String("remote", "", "plfsd gateway address; stats and doctor run against the live daemon")
	tenant := fl.String("tenant", "default", "tenant name for -remote connections")
	if err := fl.Parse(argv); err != nil {
		return 2
	}
	args := fl.Args()
	// Accept flags after the subcommand too (plfsctl doctor -fix PATH):
	// the stdlib parser stops at the first non-flag word, so re-parse the
	// remainder once the subcommand is known.
	if len(args) > 1 {
		if err := fl.Parse(args[1:]); err != nil {
			return 2
		}
		args = append(args[:1:1], fl.Args()...)
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "plfsctl: "+format+"\n", a...)
		return 1
	}
	if *remote != "" {
		return runRemote(*remote, *tenant, args, *fix, stdout, fail)
	}
	if len(args) >= 1 && args[0] == "stats" {
		return runStats(stdout, fail)
	}
	if len(args) < 2 {
		fmt.Fprintln(stderr, "usage: plfsctl [flags] {info|index|flatten|compact|doctor|rm|stats} CONTAINER [DST]")
		return 2
	}

	osfs, err := posix.NewOSFS(*root)
	if err != nil {
		return fail("root %s: %v", *root, err)
	}
	fs, err := posix.NewStripedRoots(osfs, *backends, *layoutDesc, nil)
	if err != nil {
		return fail("%v", err)
	}
	p := plfs.New(fs)
	path := args[1]

	switch args[0] {
	case "info":
		if !p.IsContainer(path) {
			return fail("%s is not a PLFS container", path)
		}
		st, err := p.Stat(path)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "container:    %s\n", path)
		fmt.Fprintf(stdout, "logical size: %d bytes\n", st.Size)
		h, err := p.IndexHealth(path)
		if err != nil {
			return fail("%v", err)
		}
		index, err := p.MergedIndex(path)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "droppings:    %d index, %d entries, %d resolved extents\n",
			h.IndexDroppings, h.RawEntries, index.NumExtents())
		if h.Flattened != nil {
			state := "stale"
			if h.Flattened.Fresh {
				state = "fresh"
			}
			fmt.Fprintf(stdout, "flattened:    gen %d, %d extents, %s\n",
				h.Flattened.Generation, h.Flattened.Extents, state)
		}
		if spread, err := p.ContainerSpread(path); err == nil && len(spread) > 1 {
			fmt.Fprintf(stdout, "backends:     %d (droppings per backend: %v)\n", len(spread), spread)
		}
		if desc, err := p.ContainerLayout(path); err != nil {
			fmt.Fprintf(stdout, "layout:       DAMAGED descriptor (%v)\n", err)
		} else if desc != "" {
			fmt.Fprintf(stdout, "layout:       %s\n", desc)
		}
	case "index":
		index, err := p.MergedIndex(path)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "%-12s %-10s %-12s %-6s\n", "logical", "length", "physical", "pid")
		for _, x := range index.Extents() {
			fmt.Fprintf(stdout, "%-12d %-10d %-12d %-6d\n", x.LogicalOffset, x.Length, x.PhysicalOffset, x.Pid)
		}
	case "flatten":
		if len(args) != 3 {
			return fail("flatten CONTAINER DST")
		}
		if err := p.Flatten(path, args[2]); err != nil {
			return fail("%v", err)
		}
		st, _ := fs.Stat(args[2])
		fmt.Fprintf(stdout, "flattened %s -> %s (%d bytes)\n", path, args[2], st.Size)
	case "compact":
		before, err := p.IndexHealth(path)
		if err != nil {
			return fail("%v", err)
		}
		if err := p.CompactIndex(path); err != nil {
			return fail("%v", err)
		}
		// CompactIndex refreshes the flattened global index as it goes;
		// report what cold readers will now load (or that the flatten
		// failed and they will merge).
		after, err := p.IndexHealth(path)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "compacted %s: %d -> %d index droppings\n", path, before.IndexDroppings, after.IndexDroppings)
		if after.Flattened != nil && after.Flattened.Fresh {
			fmt.Fprintf(stdout, "flattened index: gen %d, %d extents (cold opens load it directly)\n",
				after.Flattened.Generation, after.Flattened.Extents)
		} else {
			fmt.Fprintln(stdout, "flattened index: none (cold opens run the streaming merge)")
		}
	case "doctor":
		healthy, err := p.Doctor(stdout, path, *fix, *force)
		if err != nil {
			return fail("%v", err)
		}
		if !healthy {
			return 1
		}
	case "rm":
		if err := p.Unlink(path); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "removed %s\n", path)
	default:
		return fail("unknown command %q", args[0])
	}
	return 0
}

// runRemote executes stats/doctor against a live plfsd daemon: stats
// fetches the gateway's telemetry-plane snapshot, doctor runs the
// container health report (with -fix, repairs) through the daemon's
// own PLFS instance — the mount path is the client-visible one.
func runRemote(addr, tenant string, args []string, fix bool, stdout io.Writer, fail func(string, ...any) int) int {
	if len(args) < 1 {
		return fail("-remote needs a command: stats | doctor PATH")
	}
	conn, err := client.Dial(addr, tenant)
	if err != nil {
		return fail("%v", err)
	}
	defer conn.Close()
	switch args[0] {
	case "stats":
		text, err := conn.Stats()
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprint(stdout, text)
	case "doctor":
		if len(args) != 2 {
			return fail("doctor PATH")
		}
		report, err := conn.Doctor(args[1], fix)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprint(stdout, report)
	default:
		return fail("command %q does not support -remote (want stats or doctor)", args[0])
	}
	return 0
}

// runStats drives one small harness workload with every layer wired to
// a single telemetry plane, then dumps the plane: a self-contained
// demonstration (and e2e test fixture) that the whole stack reports
// through one plane — posix backend, plfs engines, readcache,
// mpiio.
func runStats(stdout io.Writer, fail func(string, ...any) int) int {
	plane := iostats.NewPlane()
	store := harness.Instrument(harness.NewStore(), plane)
	hints := mpiio.DefaultHints()
	hints.Collector = plane
	cfg := workload.MPIIOTestConfig{
		BytesPerProc: 1 << 20,
		BlockSize:    128 << 10,
		Verify:       true,
		Hints:        hints,
	}
	err := mpi.Run(4, 2, func(r *mpi.Rank) {
		drv, pathFor, err := harness.DriverFor("romio", store, r.Rank(), plfs.WithStats(plane))
		if err != nil {
			panic(err)
		}
		if _, err := workload.RunMPIIOTest(r, drv, pathFor("stats-probe.out"), cfg); err != nil {
			panic(err)
		}
	})
	if err != nil {
		return fail("stats probe workload: %v", err)
	}
	fmt.Fprintln(stdout, "iostats snapshot (mpiio-test kernel, 4 ranks, direct-PLFS method, in-memory store)")
	fmt.Fprintln(stdout)
	plane.Snapshot().Format(stdout)
	return 0
}
