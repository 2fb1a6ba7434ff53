// Command plfsbench is the repository's measuring stick: five fixed
// workloads driven against the real stack from one process, eleven
// end-to-end metrics per workload measured with tracing off, and a
// -trace pass that records spans around the calls into each layer to
// produce per-layer numbers. BENCHMARK.json at the repository root
// describes it to the driver; README.md in this directory defines every
// metric and says which layer should move which.
//
//	plfsbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//	plfsbench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports with tracing off.
// Of the issue's thirteen, fail_ratio is carried by the attempted/failed
// fields of the result line (it is 0 by construction, and the contract
// wants listed metrics non-zero), and cpu_us_per_op is demoted to the
// diagnostic app.cpu_us_per_op: on the reference box it spreads by up to
// 57 % between runs (tick-granular accounting, spinning scheduler
// threads, hypervisor steal), beyond any bound the contract allows.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"write_MBps", "MB/s"},
	{"read_MBps", "MB/s"},
	{"open_ms", "ms"},
	{"open_raw_ms", "ms"},
	{"write_p50_us", "us"},
	{"read_p50_us", "us"},
	{"allocs_per_op", "count"},
	{"alloc_B_per_op", "B"},
	{"space_amp", "ratio"},
}

// perLayer lists the metrics of the traced pass. A workload that does
// not exercise a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"app.write_p99_us", "us"}, {"app.write_tail_pct", "%"}, {"app.write_n", "count"},
	{"app.read_p99_us", "us"}, {"app.read_tail_pct", "%"}, {"app.read_n", "count"},
	{"app.cpu_util", "cores"}, {"app.cpu_us_per_op", "us"}, {"app.gc_pause_ms", "ms"}, {"app.fail_ratio", "ratio"},
	{"app.above_posix_share", "ratio"}, {"app.open_raw_above_posix_share", "ratio"},
	{"trace.overhead_pct", "%"}, {"trace.coverage", "ratio"}, {"trace.unattributed_pct", "%"},
	{"trace.spans_per_cycle", "count"}, {"trace.dropped", "count"},

	{"core.incl_us_per_op", "us"}, {"core.self_us_per_op", "us"},
	{"core.interposed_ratio", "ratio"}, {"core.shadow_seeks_per_op", "count"},
	{"path.plain.write_MBps", "MB/s"}, {"path.plain.read_MBps", "MB/s"},
	{"path.direct.write_MBps", "MB/s"}, {"path.direct.read_MBps", "MB/s"},
	{"path.fuse.write_MBps", "MB/s"}, {"path.fuse.read_MBps", "MB/s"},

	{"mpiio.self_ms_per_collective", "ms"}, {"mpiio.driver_ops_per_collective", "count"},
	{"mpiio.driver_segs_per_op", "count"}, {"mpiio.shuffle_B_per_user_B", "ratio"},
	{"mpiio.agg_flush_ops_per_collective", "count"}, {"mpiio.round_overlap_ratio", "ratio"},
	{"mpiio.sieve_rmws", "count"}, {"mpi.barrier_us", "us"}, {"mpi.alltoall_us", "us"},

	{"plfs.incl_us_per_write", "us"}, {"plfs.incl_us_per_read", "us"},
	{"plfs.self_us_per_write", "us"}, {"plfs.self_us_per_read", "us"},
	{"plfs.open_self_ms", "ms"}, {"plfs.sync_close_ms", "ms"}, {"plfs.errors", "count"},

	{"index.records_per_open", "count"}, {"index.droppings_per_open", "count"},
	{"index.build_ms_raw", "ms"}, {"index.build_ms_flat", "ms"}, {"index.flatten_ms", "ms"},
	{"index.B_per_user_MB", "B/MB"},
	{"readcache.hit_ratio", "ratio"}, {"readcache.builds", "count"},
	{"readcache.flattened_build_ratio", "ratio"}, {"readcache.invalidations", "count"},
	{"readcache.fd_opens_per_read", "count"},

	{"posix.ops_per_app_op", "count"}, {"posix.segs_per_op", "count"},
	{"posix.busy_us_per_app_op", "us"}, {"posix.B_per_user_B", "ratio"},
	{"posix.meta_ops_per_open", "count"}, {"posix.errors", "count"},
	{"posix.backend_skew", "ratio"}, {"posix.svc_wait_us_per_op", "us"},
	{"posix.striped_self_us_per_op", "us"}, {"posix.sleep_overshoot_us", "us"},

	{"service.rtt_us_per_op", "us"}, {"service.server_stack_us_per_op", "us"},
	{"service.tenant_ops", "count"}, {"service.tenant_errors", "count"},
}

// rig is the header of a run: what it ran on. -compare refuses to set
// two files side by side when their rigs differ.
type rig struct {
	Workload   string  `json:"workload"`
	Nproc      int     `json:"nproc"`
	Gomaxprocs int     `json:"gomaxprocs"`
	Drivers    int     `json:"drivers"`
	Go         string  `json:"go"`
	Backend    string  `json:"backend"`
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	Trace      int     `json:"trace"`
	Tiny       bool    `json:"tiny"`
	Overshoot  float64 `json:"sleep_overshoot_us"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, with exactly these keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// buildCommit is set by run.sh at link time; a plain go build falls back
// to the toolchain's VCS stamp.
var buildCommit string

func commit() string {
	if buildCommit != "" {
		return buildCommit
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plfsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the payload bytes and read permutations")
	seconds := fs.Float64("seconds", 10, "how long the cycles of one workload run")
	trace := fs.Int("trace", 0, "1 = also run traced cycles and report the per-layer metrics")
	tiny := fs.Bool("tiny", false, "smoke-test sizes (numbers are not comparable)")
	compare := fs.Bool("compare", false, "compare two files of run output: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: plfsbench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	sz := fullSizes
	if *tiny {
		sz = tinySizes
	}
	code := 0
	ran := false
	for _, w := range workloads {
		if *name != "all" && *name != w.name {
			continue
		}
		ran = true
		res, err := runWorkload(w, *seed, sz, *tiny, time.Duration(*seconds*float64(time.Second)), *trace != 0, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "plfsbench: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "plfsbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	if !ran {
		fmt.Fprintf(stderr, "plfsbench: unknown workload %q\n", *name)
		return 2
	}
	return code
}

// minCycles is how many measured cycles a run takes even when one cycle
// outlasts --seconds; maxRun stops a run on a box too slow for that.
const (
	minCycles = 3
	maxRun    = 150 * time.Second
	// rigSetups is how often the rig is built to take setup_s as a median.
	rigSetups = 5
)

func sum(v []float64) (s float64) {
	for _, x := range v {
		s += x
	}
	return s
}

// runWorkload drives one workload: build the rig (several times, for the
// set-up median), discard a warm-up cycle, then repeat the cycle until
// the time is up and report the median over cycles. With trace, a second
// rig carrying the span wrappers runs a traced cycle after every plain
// one, so both see the same drift and their ratio is the trace overhead.
func runWorkload(w *workload, seed int64, sz sizes, tiny bool, d time.Duration, trace bool, out io.Writer) (*result, error) {
	e, err := newEnv(seed, sz)
	if err != nil {
		return nil, err
	}
	defer e.close()
	// A rank that fails inside a collective leaves its peers waiting for
	// it; rather than hang past the driver's limit, give up loudly.
	watchdog := time.AfterFunc(maxRun+20*time.Second, func() {
		e.close()
		fmt.Fprintf(os.Stderr, "plfsbench: %s: still running after %v, giving up\n", w.name, maxRun+20*time.Second)
		os.Exit(3)
	})
	defer watchdog.Stop()
	// Killed from outside: do not leave the data directory behind.
	sig, finished := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(finished)
	}()
	go func() {
		select {
		case <-sig:
			e.close()
			os.Exit(130)
		case <-finished:
		}
	}()
	backend := w.backend
	if backend == "" {
		backend = e.fsLabel
	}
	hdr := rig{
		Workload: w.name, Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), Drivers: e.drivers,
		Go: runtime.Version(), Backend: backend, Seed: seed, Commit: commit(), Tiny: tiny,
		Overshoot: sleepOvershoot(),
	}
	if trace {
		hdr.Trace = 1
	}
	hj, err := json.Marshal(map[string]rig{"rig": hdr})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", hj)

	var rigSetup []float64
	var plain, traced instance
	for i := 0; i < rigSetups; i++ {
		if plain != nil {
			plain.close()
		}
		t0 := time.Now()
		if plain, err = w.setup(e, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rigSetup = append(rigSetup, time.Since(t0).Seconds())
	}
	defer func() { plain.close() }()
	var tr *tracer
	if trace {
		tr = newTracer(sz.spanCap)
		if traced, err = w.setup(e, tr); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		defer traced.close()
	}

	var res result
	cycles := map[string][]float64{} // metric -> one value per measured plain cycle
	layers := map[string][]float64{} // metric -> one value per measured traced cycle
	var tracedWall []float64
	add := func(into map[string][]float64, vals map[string]float64) {
		for k, v := range vals {
			into[k] = append(into[k], v)
		}
	}
	start := time.Now()
	for k := 0; ; k++ {
		elapsed := time.Since(start)
		if k > 0 && ((elapsed >= d && k > minCycles) || elapsed >= maxRun) {
			break
		}
		runtime.GC()
		c, err := plain.cycle(k)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", k, err)
		}
		res.Attempted += c.attempted
		res.Failed += c.failed
		if k > 0 { // cycle 0 is the warm-up
			add(cycles, c.values())
		}
		if !trace {
			continue
		}
		runtime.GC()
		tr.reset()
		tc, err := traced.cycle(k)
		if err != nil {
			return nil, fmt.Errorf("traced cycle %d: %w", k, err)
		}
		res.Attempted += tc.attempted
		res.Failed += tc.failed
		if k > 0 {
			prof := tr.analyze(w.chain)
			add(layers, derive(prof, w.chain, tc))
			add(layers, tc.layer)
			layers["trace.spans_per_cycle"] = append(layers["trace.spans_per_cycle"], float64(tr.n.Load()))
			tracedWall = append(tracedWall, tc.m.wall.Seconds())
		}
	}

	fmt.Fprintf(out, "%-36s %16d measured after 1 warm-up, in %.1f s\n", "cycles", len(cycles["wall_s"]), time.Since(start).Seconds())

	res.Metrics = map[string]value{}
	if !trace {
		cycles["setup_s"] = []float64{median(rigSetup) + median(cycles["untimed_s"])}
		for _, m := range endToEnd {
			v := median(cycles[m.name])
			if v == 0 {
				return nil, fmt.Errorf("metric %s was not produced", m.name)
			}
			res.Metrics[m.name] = value{v, m.unit}
		}
	} else {
		if err := tr.writeFile(fmt.Sprintf(".plfsbench-trace.%s.jsonl", w.name)); err != nil {
			return nil, err
		}
		tr.reset()
		extra := map[string]float64{}
		if err := traced.extras(extra, func(n string) float64 { return median(layers[n]) }); err != nil {
			return nil, fmt.Errorf("trace probes: %w", err)
		}
		for _, k := range []string{"app.write_p99_us", "app.write_tail_pct", "app.write_n", "app.read_p99_us",
			"app.read_tail_pct", "app.read_n", "app.cpu_util", "app.gc_pause_ms"} {
			extra[k] = median(cycles[k])
		}
		// CPU time is accounted in scheduler ticks, too coarse for one
		// short cycle: take it over all measured cycles together.
		extra["app.cpu_us_per_op"] = ratio(sum(cycles["cpu_us"]), sum(cycles["ops"]))
		extra["app.fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
		extra["trace.overhead_pct"] = 100 * (ratio(median(tracedWall), median(cycles["wall_s"])) - 1)
		extra["trace.dropped"] = float64(tr.dropped)
		extra["posix.sleep_overshoot_us"] = hdr.Overshoot
		for _, m := range perLayer {
			v, ok := extra[m.name]
			if !ok {
				v = median(layers[m.name])
			}
			res.Metrics[m.name] = value{v, m.unit}
		}
	}
	res.Correct = res.Failed == 0
	printMetrics(out, &res)
	return &res, nil
}

func printMetrics(out io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-36s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "%-36s %16.6g ratio (%d failed of %d attempted)\n", "fail_ratio",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
}
