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
// compact consolidates the raw index droppings and persists the flattened
// global index record cold opens load in O(extents). doctor reports per-
// container index health — raw dropping and entry counts, flattened
// generation and staleness — and with -fix refreshes or removes a stale
// flattened record (fresh records are always left alone).
//
// With -layout replica-R the backends serve R-way replicated droppings;
// doctor then also scans every replica set, reports missing copies
// (under-replication) and disagreeing copies (divergence), re-replicates
// missing copies under -fix, and rebuilds diverged ones only under
// -fix -force.
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
	"strings"

	"ldplfs/internal/harness"
	"ldplfs/internal/iostats"
	"ldplfs/internal/mpi"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/plfs"
	idx "ldplfs/internal/plfs/index"
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
	hostdirs := fl.Int("hostdirs", 32, "hostdir buckets (must match the writer's setting)")
	layoutDesc := fl.String("layout", "", "placement layout across the backends: mod-n (default) or replica-R")
	fix := fl.Bool("fix", false, "doctor: remove the stale openhosts records it finds and re-replicate missing copies")
	force := fl.Bool("force", false, "doctor -fix: also rebuild diverged replica copies from the longest copy")
	lint := fl.Bool("lint", false, "doctor: also note how to run the repository's static-analysis gate")
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
	fs, err := posix.NewStripedRootsLayout(osfs, *backends, *layoutDesc)
	if err != nil {
		return fail("%v", err)
	}
	p := plfs.New(fs, plfs.EngineOptions{NumHostdirs: *hostdirs})
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
		entries, droppings, err := loadIndex(fs, path)
		if err != nil {
			return fail("%v", err)
		}
		global := idx.Build(entries)
		fmt.Fprintf(stdout, "droppings:    %d index, %d entries, %d resolved extents\n",
			droppings, len(entries), global.NumExtents())
		if h, err := p.IndexHealth(path); err == nil && h.Flattened != nil {
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
		entries, _, err := loadIndex(fs, path)
		if err != nil {
			return fail("%v", err)
		}
		global := idx.Build(entries)
		fmt.Fprintf(stdout, "%-12s %-10s %-12s %-6s\n", "logical", "length", "physical", "pid")
		for _, x := range global.Extents() {
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
		before, err := p.IndexDroppings(path)
		if err != nil {
			return fail("%v", err)
		}
		if err := p.CompactIndex(path); err != nil {
			return fail("%v", err)
		}
		after, _ := p.IndexDroppings(path)
		fmt.Fprintf(stdout, "compacted %s: %d -> %d index droppings\n", path, before, after)
		// CompactIndex refreshes the flattened global index as it goes;
		// report what cold readers will now load (or that the flatten
		// failed and they will merge).
		if h, err := p.IndexHealth(path); err == nil {
			if h.Flattened != nil && h.Flattened.Fresh {
				fmt.Fprintf(stdout, "flattened index: gen %d, %d extents (cold opens load it directly)\n",
					h.Flattened.Generation, h.Flattened.Extents)
			} else {
				fmt.Fprintln(stdout, "flattened index: none (cold opens run the streaming merge)")
			}
		}
	case "doctor":
		// -lint: doctor diagnoses containers; the invariants of the code
		// that writes them have their own checker. Surface it here because
		// doctor is where operators already look when something is off.
		if *lint {
			fmt.Fprintln(stdout, "lint: container checks below cover on-disk state; for the data-path invariants run `go run ./cmd/plfslint ./...` (catalogue: internal/analysis/doc.go)")
		}
		// Stale openhosts records are the symptom of a writer that never
		// cleanly closed (a crash, or the historical Trunc(0) leak):
		// they pin Stat on the slow merged-index path and make compact
		// refuse the container, so operators want them surfaced. The
		// liveness check consults whichever backend owns each writer's
		// dropping, so records for writers on shadow backends are
		// diagnosed correctly.
		recs, err := p.OpenHosts(path)
		if err != nil {
			return fail("%v", err)
		}
		live, stale := 0, 0
		for _, r := range recs {
			if r.Stale {
				stale++
				fmt.Fprintf(stdout, "stale openhosts record: pid %d (no data dropping — writer state lost)\n", r.Pid)
			} else {
				live++
			}
		}
		fmt.Fprintf(stdout, "doctor %s: %d openhosts records (%d live, %d stale)\n", path, len(recs), live, stale)
		if spread, err := p.ContainerSpread(path); err == nil && len(spread) > 1 {
			fmt.Fprintf(stdout, "backends: %d (droppings per backend: %v)\n", len(spread), spread)
		}
		// Index health: what a cold open costs today. A fresh flattened
		// record is left strictly alone, fixed or not; a stale one is
		// refreshed (no live writers) or removed (it can never become
		// fresh again) only under -fix.
		h, err := p.IndexHealth(path)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "index: %d droppings, %d raw entries\n", h.IndexDroppings, h.RawEntries)
		switch {
		case h.Flattened == nil:
			fmt.Fprintln(stdout, "flattened index: none (cold opens run the streaming merge)")
		case h.Flattened.Err != nil:
			fmt.Fprintf(stdout, "flattened index: gen %d DAMAGED (%v); readers fall back to the merge\n",
				h.Flattened.Generation, h.Flattened.Err)
		case h.Flattened.Fresh:
			fmt.Fprintf(stdout, "flattened index: gen %d, %d extents, fresh\n",
				h.Flattened.Generation, h.Flattened.Extents)
		default:
			fmt.Fprintf(stdout, "flattened index: gen %d STALE (raw droppings or live writers are newer); readers fall back to the merge\n",
				h.Flattened.Generation)
		}
		if stale > 0 {
			if *fix {
				removed, err := p.ScrubOpenHosts(path)
				if err != nil {
					return fail("%v", err)
				}
				fmt.Fprintf(stdout, "removed %d stale records; stat fast path and compact restored\n", removed)
			} else {
				fmt.Fprintln(stdout, "container degraded: stat takes the slow merged-index path and compact is refused")
				fmt.Fprintln(stdout, "re-run with -fix to clear the stale records")
				return 1
			}
		}
		// Flattened repair runs after the openhosts scrub, against a
		// re-taken health snapshot: a record that looked stale only
		// because dead writers' openhosts records pinned OpenWriters may
		// now be fresh again (nothing to do), and a genuinely stale one
		// can be refreshed rather than dropped.
		if *fix {
			if stale > 0 {
				if h, err = p.IndexHealth(path); err != nil {
					return fail("%v", err)
				}
			}
			if h.Flattened != nil && !h.Flattened.Fresh {
				if h.OpenWriters == 0 {
					info, err := p.WriteFlattenedIndex(path)
					if err != nil {
						return fail("refresh flattened index: %v", err)
					}
					fmt.Fprintf(stdout, "refreshed flattened index to gen %d (%d extents)\n", info.Generation, info.Extents)
				} else {
					removed, err := p.DropFlattenedIndex(path)
					if err != nil {
						return fail("remove stale flattened records: %v", err)
					}
					fmt.Fprintf(stdout, "removed %d stale flattened record(s); writers are live, re-run compact after they close\n", removed)
				}
			}
		}
		// Replication health: only meaningful when this invocation runs a
		// replica layout over the backends (-layout replica-R). Missing
		// copies re-replicate under -fix; diverged copies — replicas that
		// disagree, a backend death mid-write — are refused without
		// -force, because overwriting one destroys forensic state.
		rh, err := p.ReplicationHealth(path)
		if err != nil {
			return fail("%v", err)
		}
		if rh.Width > 1 {
			fmt.Fprintf(stdout, "replication: %s, %d files, %d under-replicated, %d diverged\n",
				rh.Configured, rh.Files, rh.UnderReplicated, rh.Diverged)
			if rh.DescriptorErr != "" {
				fmt.Fprintf(stdout, "layout descriptor DAMAGED: %s\n", rh.DescriptorErr)
			} else if rh.Descriptor != "" && rh.Descriptor != rh.Configured {
				fmt.Fprintf(stdout, "layout descriptor mismatch: container records %s, running %s\n",
					rh.Descriptor, rh.Configured)
			}
			for _, prob := range rh.Problems {
				state := "under-replicated"
				if prob.Diverged {
					state = "DIVERGED"
				}
				fmt.Fprintf(stdout, "  %s: %s (want %d copies:", prob.Path, state, prob.Want)
				for _, c := range prob.Copies {
					if c.Missing {
						fmt.Fprintf(stdout, " b%d=missing", c.Backend)
					} else {
						fmt.Fprintf(stdout, " b%d=%d", c.Backend, c.Size)
					}
				}
				fmt.Fprintln(stdout, ")")
			}
			if !rh.Clean() {
				if !*fix {
					fmt.Fprintln(stdout, "re-run with -fix to re-replicate missing copies")
					return 1
				}
				rep, err := p.RepairReplication(path, *force)
				if err != nil {
					return fail("re-replicate: %v", err)
				}
				fmt.Fprintf(stdout, "re-replicated %d cop(ies), skipped %d diverged file(s)\n", rep.Repaired, rep.Skipped)
				if rep.Skipped > 0 {
					fmt.Fprintln(stdout, "diverged copies left untouched; re-run with -fix -force to rebuild them from the longest copy")
					return 1
				}
				if rh, err = p.ReplicationHealth(path); err != nil {
					return fail("%v", err)
				}
				if !rh.Clean() {
					return fail("container still unhealthy after repair")
				}
				fmt.Fprintln(stdout, "replication restored: every file at full copy count")
			}
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
// through one Collector — posix backend, plfs engines, readcache,
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

// loadIndex reads every index dropping in the container; through a
// striped fs the container listing merges hostdirs from all backends.
func loadIndex(fs posix.FS, path string) ([]idx.Entry, int, error) {
	var entries []idx.Entry
	droppings := 0
	dirs, err := fs.Readdir(path)
	if err != nil {
		return nil, 0, err
	}
	for _, d := range dirs {
		if !d.IsDir || !strings.HasPrefix(d.Name, "hostdir.") {
			continue
		}
		hostdir := path + "/" + d.Name
		files, err := fs.Readdir(hostdir)
		if err != nil {
			return nil, 0, err
		}
		for _, fe := range files {
			if strings.HasPrefix(fe.Name, "dropping.index.") {
				es, err := idx.ReadDropping(fs, hostdir+"/"+fe.Name)
				if err != nil {
					return nil, 0, err
				}
				entries = append(entries, es...)
				droppings++
			}
		}
	}
	return entries, droppings, nil
}
