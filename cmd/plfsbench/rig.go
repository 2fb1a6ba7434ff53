package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ldplfs/internal/iostats"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// mountPoint and storeDir are the PLFS_MNT pair every workload with a
// mount uses: the application sees mountPoint, containers live under
// storeDir of the backend.
const (
	mountPoint = "/mnt/plfs"
	storeDir   = "/store"
)

// svcTime is the per-operation service time of each svc3 backend.
const svcTime = 400 * time.Microsecond

// env is what one run gives its workloads: the seed-derived payload, the
// driver-goroutine count and a scratch directory inside the checkout.
type env struct {
	seed    int64
	sz      sizes
	drivers int    // T = min(nproc, 4)
	dataDir string // host directory for OSFS backends, removed on exit
	fsLabel string // osfs-<filesystem> of dataDir
	gen     *payload
	nextDir int
	// under, when set, wraps every bottom-most backend a rig builds; the
	// tests count what reaches storage through it.
	under func(posix.FS) posix.FS
}

func (e *env) bottom(fs posix.FS) posix.FS {
	if e.under != nil {
		return e.under(fs)
	}
	return fs
}

// volatileFS is an OSFS whose Fsync returns at once. The scripts sync
// as the application would, and plfs does its part of a sync (flushing
// index records), but the flush rate of the sandbox's disk — which this
// repository does not control and which varies from minute to minute —
// stays out of the numbers. On tmpfs, the rig the benchmark was designed
// for, fsync costs nothing either; the contract confines the benchmark
// to its checkout, whatever filesystem that is on.
type volatileFS struct{ *posix.OSFS }

func (volatileFS) Fsync(int) error { return nil }

// osBackend opens the backend of one process over the host directory
// root: an OSFS with its own descriptor table.
func (e *env) osBackend(root string) (posix.FS, error) {
	osfs, err := posix.NewOSFS(root)
	if err != nil {
		return nil, err
	}
	return e.bottom(volatileFS{osfs}), nil
}

func newEnv(seed int64, sz sizes) (*env, error) {
	// The contract confines the benchmark to its checkout, so the OSFS
	// backends live in the working directory rather than /dev/shm; the
	// label says which filesystem that turned out to be.
	dir, err := os.MkdirTemp(".", ".plfsbench-data-")
	if err != nil {
		return nil, err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return &env{
		seed:    seed,
		sz:      sz,
		drivers: min(runtime.NumCPU(), 4),
		dataDir: dir,
		fsLabel: "osfs-" + fsType(dir) + "-nosync",
		gen:     newPayload(seed),
	}, nil
}

func (e *env) close() { os.RemoveAll(e.dataDir) }

// freshOSRoot makes an empty host directory holding storeDir and
// returns it; every cycle gets its own so nothing carries over.
func (e *env) freshOSRoot() (string, error) {
	e.nextDir++
	root := filepath.Join(e.dataDir, fmt.Sprintf("r%d", e.nextDir))
	return root, os.MkdirAll(filepath.Join(root, storeDir), 0o755)
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlay"
	}
	return fmt.Sprintf("%#x", uint32(st.Type))
}

// payload is the generator every written byte comes from and every read
// byte is checked against: the byte at logical offset o is base[o mod
// period]. The period is not a multiple of any block size used, so a
// block landing at the wrong offset never verifies.
type payload struct {
	rep []byte // base repeated so any (o mod period, n <= maxIO) is one slice
}

const (
	payloadPeriod = 1<<20 + 8
	maxIO         = 4 << 20
)

func newPayload(seed int64) *payload {
	rep := make([]byte, payloadPeriod+maxIO)
	rand.New(rand.NewSource(seed)).Read(rep[:payloadPeriod])
	for i := payloadPeriod; i < len(rep); i += payloadPeriod {
		copy(rep[i:], rep[:payloadPeriod])
	}
	return &payload{rep: rep}
}

func (g *payload) at(off int64, n int) []byte {
	o := off % payloadPeriod
	return g.rep[o : o+int64(n)]
}

// endsOK is the timed-path check: the first and last 8 bytes of a chunk.
func (g *payload) endsOK(buf []byte, off int64) bool {
	if len(buf) < 8 {
		return bytes.Equal(buf, g.at(off, len(buf)))
	}
	want := g.at(off, len(buf))
	return bytes.Equal(buf[:8], want[:8]) && bytes.Equal(buf[len(buf)-8:], want[len(buf)-8:])
}

func (g *payload) fullOK(buf []byte, off int64) bool {
	return bytes.Equal(buf, g.at(off, len(buf)))
}

// meter accumulates the timed regions of one cycle: wall clock, process
// CPU, allocations and GC pauses. The memstats reads sit outside the
// wall-clock window.
type meter struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	gcPause        uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m *meter) timed(fn func()) time.Duration {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	m.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	m.wall += d
	m.mallocs += ms1.Mallocs - ms0.Mallocs
	m.bytes += ms1.TotalAlloc - ms0.TotalAlloc
	m.gcPause += ms1.PauseTotalNs - ms0.PauseTotalNs
	return d
}

// lats collects per-call latencies of one driver goroutine.
type lats struct{ w, r []int32 }

func (l *lats) reset() { l.w, l.r = l.w[:0], l.r[:0] }

func since32(t0 time.Time) int32 { return int32(min(time.Since(t0), 1<<31-1)) }

func mergeLats(ls []lats, pick func(*lats) []int32) []int32 {
	var all []int32
	for i := range ls {
		all = append(all, pick(&ls[i])...)
	}
	slices.Sort(all)
	return all
}

// quantile of sorted samples (nearest rank).
func quantile(sorted []int32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[min(len(sorted)-1, int(q*float64(len(sorted))))])
}

// tailPct is the highest of p99/p90/p50 that leaves at least ten
// samples beyond it.
func tailPct(n int) float64 {
	switch {
	case n >= 1000:
		return 0.99
	case n >= 100:
		return 0.90
	}
	return 0.50
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// treeBytes sums the file sizes under path of fs: what the container
// costs on the backend.
func treeBytes(fs posix.FS, path string) (total, index int64, err error) {
	ents, err := fs.Readdir(path)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		child := path + "/" + e.Name
		if e.IsDir {
			t, i, err := treeBytes(fs, child)
			if err != nil {
				return 0, 0, err
			}
			total, index = total+t, index+i
			continue
		}
		st, err := fs.Stat(child)
		if err != nil {
			return 0, 0, err
		}
		total += st.Size
		if strings.HasPrefix(e.Name, "index.flattened.") || strings.HasPrefix(e.Name, "dropping.index.") {
			index += st.Size
		}
	}
	return total, index, nil
}

// sleepOvershoot calibrates the svc3 rig's clock: how much longer than
// svcTime a time.Sleep(svcTime) takes on this box, in µs (median of 50).
func sleepOvershoot() float64 {
	over := make([]float64, 50)
	for i := range over {
		t0 := time.Now()
		time.Sleep(svcTime)
		over[i] = us(time.Since(t0) - svcTime)
	}
	return median(over)
}

// plfsOpts is the configuration every plfs instance of the benchmark is
// built with: the defaults, plus the telemetry plane in the traced pass
// (the readcache counters are read from it).
func plfsOpts(plane *iostats.Plane) []plfs.Option {
	if plane != nil {
		return []plfs.Option{plfs.WithStats(plane)}
	}
	return nil
}

// counter reads one named counter of a plane layer (0 without a plane).
func counter(plane *iostats.Plane, layer, name string) float64 {
	if plane == nil {
		return 0
	}
	return float64(plane.Layer(layer).Counter(name).Load())
}

// indexProbe, in the traced pass only, times a cold index build by a
// fresh instance (File.Size builds the index and moves no data) and
// records what the build had to read. flat says whether the flattened
// record is still in place.
func indexProbe(tr *tracer, layer map[string]float64, admin *plfs.FS, container string, flat bool) error {
	if tr == nil {
		return nil
	}
	tr.setPhase(phProbe)
	h, err := admin.IndexHealth(container)
	if err != nil {
		return err
	}
	const pid = 9000 // no writer uses it
	f, err := plfs.New(admin.Backend()).Open(container, posix.O_RDONLY, pid, 0)
	if err != nil {
		return err
	}
	t0 := time.Now()
	_, err = f.Size()
	build := ms(time.Since(t0))
	if cerr := f.Close(pid); err == nil {
		err = cerr
	}
	if flat {
		layer["index.build_ms_flat"] = build
	} else {
		layer["index.build_ms_raw"] = build
		layer["index.records_per_open"] = float64(h.RawEntries)
		layer["index.droppings_per_open"] = float64(h.IndexDroppings)
	}
	return err
}

// coldOpens is the cold-open part of every cycle: open(flat) timed as
// open_ms on the container as it was closed, then open(raw) as
// open_raw_ms once raw's flattened index record is dropped, then the
// record rewritten (timed as index.flatten_ms). The workloads with one
// container pass it twice. admin is nil where there is no container
// (the plain-file twin). The index probes run in the traced pass only.
func coldOpens(tr *tracer, c *cycleOut, admin *plfs.FS, flat, raw string, open func(container string) (time.Duration, error)) error {
	if admin != nil {
		if err := indexProbe(tr, c.layer, admin, flat, true); err != nil {
			return err
		}
	}
	tr.setPhase(phOpen)
	d, err := open(flat)
	if err != nil {
		return fmt.Errorf("cold open: %w", err)
	}
	c.openMs = ms(d)
	if admin != nil {
		tr.setPhase(phProbe)
		if _, err := admin.DropFlattenedIndex(raw); err != nil {
			return err
		}
		if err := indexProbe(tr, c.layer, admin, raw, false); err != nil {
			return err
		}
	}
	tr.setPhase(phOpenRaw)
	if d, err = open(raw); err != nil {
		return fmt.Errorf("raw cold open: %w", err)
	}
	c.openRawMs = ms(d)
	if admin != nil {
		tr.setPhase(phProbe)
		t0 := time.Now()
		if _, err := admin.WriteFlattenedIndex(raw); err != nil {
			return err
		}
		c.layer["index.flatten_ms"] = ms(time.Since(t0))
	}
	c.ops += coldOpensPerCycle
	return nil
}

// coldOpensPerCycle is how many cold opens coldOpens times.
const coldOpensPerCycle = 2

// parallel runs fn(0..n-1) on n goroutines and waits for them.
func parallel(n int, fn func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(g)
		}()
	}
	wg.Wait()
}

// failCount tallies checked operations from any goroutine. Hot loops
// count locally and fold in with add.
type failCount struct{ attempted, failed atomic.Int64 }

func (f *failCount) add(attempted, failed int64) {
	f.attempted.Add(attempted)
	f.failed.Add(failed)
}

func (f *failCount) check(ok bool) bool {
	f.attempted.Add(1)
	if !ok {
		f.failed.Add(1)
	}
	return ok
}

func (f *failCount) totals() (int64, int64) { return f.attempted.Load(), f.failed.Load() }

// readcacheCounters are the plane counters reported as deltas per cycle.
var readcacheCounters = []string{"lookups", "hits", "builds", "flattened_builds", "invalidations"}

func snapshotReadcache(plane *iostats.Plane) map[string]float64 {
	m := map[string]float64{}
	for _, n := range readcacheCounters {
		m[n] = counter(plane, "readcache", n)
	}
	return m
}

func readcacheDelta(into map[string]float64, plane *iostats.Plane, before map[string]float64) {
	if plane == nil {
		return
	}
	d := func(n string) float64 { return counter(plane, "readcache", n) - before[n] }
	into["readcache.hit_ratio"] = ratio(d("hits"), d("lookups"))
	into["readcache.builds"] = d("builds")
	into["readcache.flattened_build_ratio"] = ratio(d("flattened_builds"), d("builds"))
	into["readcache.invalidations"] = d("invalidations")
}
