package main

import (
	"slices"
	"time"
)

// sizes freezes the shape of every workload. They are constants, not
// flags: a number measured under other sizes is another benchmark.
type sizes struct {
	// n1_strided_shim: procs logical writers, each blocksPerProc blocks
	// of block bytes, strided N-1; read back in readChunk preads.
	n1Procs, n1Block, n1BlocksPerProc, n1ReadChunk int
	// stream_shim: one process, blocks sequential write()s then read()s.
	streamBlock, streamBlocks int
	// collective_romio_svc3: ranks x calls collectives of stripes stripes
	// of stripe bytes, each followed by a gap of the same size.
	colRanks, colCalls, colStripes, colStripe, colCBBuffer int
	// cold_open_wide: writers x records records of record bytes in the
	// container opened cold; the per-cycle wide write puts writeRecords
	// records per writer into a fresh container.
	wideWriters, wideRecords, wideRecord, wideWriteRecords, wideReadChunk int
	// gateway_mixed: a checkpoint is blocks strided pwrites of block
	// bytes; the reader preads block bytes from a baseBlocks container.
	gwBlock, gwBlocks, gwBaseBlocks int
	// spanCap bounds the spans one traced cycle may record.
	spanCap int
}

var fullSizes = sizes{
	n1Procs: 8, n1Block: 4 << 10, n1BlocksPerProc: 8192, n1ReadChunk: 1 << 20,
	streamBlock: 1 << 20, streamBlocks: 256,
	colRanks: 4, colCalls: 8, colStripes: 16, colStripe: 4 << 10, colCBBuffer: 64 << 10,
	wideWriters: 160, wideRecords: 512, wideRecord: 1 << 10, wideWriteRecords: 32, wideReadChunk: 1 << 20,
	gwBlock: 64 << 10, gwBlocks: 1024, gwBaseBlocks: 1024,
	spanCap: 1 << 20,
}

var tinySizes = sizes{
	n1Procs: 8, n1Block: 4 << 10, n1BlocksPerProc: 64, n1ReadChunk: 256 << 10,
	streamBlock: 256 << 10, streamBlocks: 8,
	colRanks: 4, colCalls: 2, colStripes: 4, colStripe: 4 << 10, colCBBuffer: 16 << 10,
	wideWriters: 160, wideRecords: 4, wideRecord: 1 << 10, wideWriteRecords: 2, wideReadChunk: 128 << 10,
	gwBlock: 64 << 10, gwBlocks: 16, gwBaseBlocks: 32,
	spanCap: 1 << 16,
}

// workload is one named entry of the benchmark.
type workload struct {
	name  string
	chain []layerID // traced layers, outermost first
	// backend labels the rig the workload runs on, for the run header;
	// empty stands for the run's OSFS label (env.fsLabel).
	backend string
	// setup builds one rig; tr is nil for the plain rig and set for the
	// rig that carries the span wrappers.
	setup func(e *env, tr *tracer) (instance, error)
}

// instance is one built rig of a workload.
type instance interface {
	// cycle runs the workload's fixed script once, on a fresh container.
	cycle(k int) (*cycleOut, error)
	// extras runs the probes that only the traced pass reports (access
	// path twins, direct collective calls) and stores their metrics.
	extras(into map[string]float64, med func(name string) float64) error
	close()
}

var workloads = []*workload{
	{name: "n1_strided_shim", chain: []layerID{lCore, lPosix}, setup: newN1},
	{name: "stream_shim", chain: []layerID{lCore, lPosix}, setup: newStream},
	{name: "collective_romio_svc3", chain: []layerID{lMPIIO, lPLFS, lPosix, lBackend}, backend: "svc3", setup: newCollective},
	{name: "cold_open_wide", chain: []layerID{lPLFS, lPosix}, backend: "memfs", setup: newColdOpen},
	{name: "gateway_mixed", chain: []layerID{lService, lPosix}, setup: newGateway},
}

// cycleOut is what one cycle measured.
type cycleOut struct {
	m                 meter
	total             time.Duration // whole cycle, timed or not
	ops               int64         // application calls inside timed regions
	userBytes         int64         // bytes those calls wrote plus read
	lanes             int           // concurrent top-level callers
	attempted, failed int64

	writeMBps, readMBps float64
	openMs, openRawMs   float64
	spaceAmp            float64
	wlat, rlat          []int32 // sorted per-call latencies, ns

	// overlapNs is the mpiio layer's round_overlap_ns counter, which derive
	// sets against the driver's busy time.
	overlapNs float64

	// layer holds per-layer values the cycle measured itself (counts and
	// probes); the span-derived ones come from derive.
	layer map[string]float64
}

// values flattens the cycle into metric name -> value.
func (c *cycleOut) values() map[string]float64 {
	ops := float64(c.ops)
	wp, rp := tailPct(len(c.wlat)), tailPct(len(c.rlat))
	return map[string]float64{
		"untimed_s":      (c.total - c.m.wall).Seconds(),
		"wall_s":         c.m.wall.Seconds(),
		"write_MBps":     c.writeMBps,
		"read_MBps":      c.readMBps,
		"open_ms":        c.openMs,
		"open_raw_ms":    c.openRawMs,
		"write_p50_us":   quantile(c.wlat, 0.5) / 1e3,
		"read_p50_us":    quantile(c.rlat, 0.5) / 1e3,
		"cpu_us":         us(c.m.cpu),
		"ops":            ops,
		"allocs_per_op":  ratio(float64(c.m.mallocs), ops),
		"alloc_B_per_op": ratio(float64(c.m.bytes), ops),
		"space_amp":      c.spaceAmp,

		"app.write_p99_us":   quantile(c.wlat, wp) / 1e3,
		"app.write_tail_pct": 100 * wp,
		"app.write_n":        float64(len(c.wlat)),
		"app.read_p99_us":    quantile(c.rlat, rp) / 1e3,
		"app.read_tail_pct":  100 * rp,
		"app.read_n":         float64(len(c.rlat)),
		"app.cpu_util":       ratio(c.m.cpu.Seconds(), c.m.wall.Seconds()),
		"app.gc_pause_ms":    float64(c.m.gcPause) / 1e6,
	}
}

// timedPhases are the phases whose spans the per-op ratios count.
var timedPhases = []phaseID{phWrite, phOpen, phOpenRaw, phRead}

func (p *profile) sum(l layerID, phases []phaseID, ops ...opKind) (a agg) {
	for _, ph := range phases {
		a = a.plus(p.cell(l, ph, ops...))
	}
	return a
}

// derive turns the span profile of one traced cycle into the per-layer
// metrics that come from spans alone.
func derive(p *profile, chain []layerID, c *cycleOut) map[string]float64 {
	v := map[string]float64{}
	ops, userB := float64(c.ops), float64(c.userBytes)
	f := func(x int64) float64 { return float64(x) }

	px := p.sum(lPosix, timedPhases)
	data := p.sum(lPosix, timedPhases, opRead, opWrite)
	opens := p.sum(lPosix, []phaseID{phOpen, phOpenRaw})
	v["posix.ops_per_app_op"] = ratio(f(px.n), ops)
	v["posix.segs_per_op"] = ratio(f(data.segs), f(data.n))
	v["posix.busy_us_per_app_op"] = ratio(f(px.dur)/1e3, ops)
	v["posix.B_per_user_B"] = ratio(f(data.bytes), userB)
	v["posix.meta_ops_per_open"] = f(opens.n) / coldOpensPerCycle
	v["posix.errors"] = f(px.errs)
	rd := p.cell(lPosix, phRead, opOpen)
	v["readcache.fd_opens_per_read"] = ratio(f(rd.n), f(p.cell(chain[0], phRead, opRead).n))

	if slices.Contains(chain, lPLFS) {
		w, r := p.cell(lPLFS, phWrite, opWrite), p.cell(lPLFS, phRead, opRead)
		o := p.sum(lPLFS, []phaseID{phOpen, phOpenRaw})
		sc := p.cell(lPLFS, phWrite, opSync, opClose)
		v["plfs.incl_us_per_write"] = ratio(f(w.dur)/1e3, f(w.n))
		v["plfs.incl_us_per_read"] = ratio(f(r.dur)/1e3, f(r.n))
		v["plfs.self_us_per_write"] = ratio(f(w.dur-w.cover)/1e3, f(w.n))
		v["plfs.self_us_per_read"] = ratio(f(r.dur-r.cover)/1e3, f(r.n))
		v["plfs.open_self_ms"] = f(o.dur-o.cover) / 1e6 / coldOpensPerCycle
		v["plfs.sync_close_ms"] = f(sc.dur) / 1e6
		v["plfs.errors"] = f(p.sum(lPLFS, timedPhases).errs)
	}
	switch chain[0] {
	case lCore:
		rw := p.sum(lCore, timedPhases, opRead, opWrite)
		v["core.incl_us_per_op"] = ratio(f(rw.dur)/1e3, f(rw.n))
	case lMPIIO:
		collective := []phaseID{phWrite, phRead} // the cold opens read independently
		col := p.sum(lMPIIO, collective, opRead, opWrite)
		drv := p.sum(lPLFS, collective, opRead, opWrite)
		calls := ratio(f(col.n), float64(c.lanes)) // one collective = one call on every rank
		v["mpiio.self_ms_per_collective"] = ratio(f(col.dur-col.cover)/1e6, f(col.n))
		v["mpiio.driver_ops_per_collective"] = ratio(f(drv.n), calls)
		v["mpiio.driver_segs_per_op"] = ratio(f(drv.segs), f(drv.n))
		v["mpiio.round_overlap_ratio"] = ratio(c.overlapNs, f(drv.dur))
		be := p.sum(lBackend, timedPhases)
		v["posix.svc_wait_us_per_op"] = ratio(f(be.dur)/1e3, f(be.n)) - us(svcTime)
		v["posix.striped_self_us_per_op"] = ratio(f(px.dur-be.dur)/1e3, f(px.n))
		v["posix.backend_skew"] = backendSkew(p.backendOps)
	case lService:
		rt := p.sum(lService, timedPhases)
		v["service.rtt_us_per_op"] = ratio(f(rt.dur)/1e3, f(rt.n))
		v["service.server_stack_us_per_op"] = ratio(f(rt.dur-px.dur)/1e3, f(rt.n))
	}

	// A layer's self time is its spans minus what the next layer covers
	// of them, so the self times of a chain add up to the top-level spans
	// by construction. What can go wrong is span time that lies in no
	// parent and so in nobody's account: unattributed_pct reports it.
	top := p.sum(chain[0], timedPhases)
	v["trace.unattributed_pct"] = 100 * ratio(f(p.orphan), f(top.dur))
	v["trace.coverage"] = ratio(f(top.dur), float64(c.lanes)*f(int64(c.m.wall)))
	// The share of the top-level spans spent above the posix layer: in
	// core, mpiio, plfs, index and the read caches (and, for the gateway,
	// the wire and QoS stage) rather than in the backend.
	v["app.above_posix_share"] = abovePosix(p, chain, timedPhases)
	v["app.open_raw_above_posix_share"] = abovePosix(p, chain, []phaseID{phOpenRaw})
	return v
}

// abovePosix is 1 - (time the posix layer accounts for) / (top-level
// span time) over the given phases. The posix layer's account is its
// parent's cover, or the plain sum of its spans where they share a lane
// and could not be matched.
func abovePosix(p *profile, chain []layerID, phases []phaseID) float64 {
	top := p.sum(chain[0], phases).dur
	under := p.sum(lPosix, phases).dur
	for i, l := range chain {
		if l == lPosix && i > 0 {
			if c := p.sum(chain[i-1], phases).cover; c > 0 {
				under = c
			}
		}
	}
	if top == 0 {
		return 0
	}
	return 1 - float64(under)/float64(top)
}
