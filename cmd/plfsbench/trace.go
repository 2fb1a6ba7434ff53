package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Layers a span can belong to, outermost first. Every workload uses a
// sub-chain of these (see workload.chain); a span's children are the
// spans of the next layer of that chain.
type layerID uint8

const (
	lCore    layerID = iota // calls into the interposed posix.Dispatch table, above the shim
	lMPIIO                  // mpiio.File collective calls
	lService                // service/client round trips
	lPLFS                   // plfs.FS / plfs.File calls (direct call sites, mpiio.Driver wrapper)
	lPosix                  // the posix.FS directly under plfs
	lBackend                // svc3 only: the posix.FS under StripedFS, one per backend
	nLayers
)

var layerNames = [nLayers]string{"core", "mpiio", "service", "plfs", "posix", "backend"}

type opKind uint8

const (
	opOpen opKind = iota
	opClose
	opRead
	opWrite
	opSync
	opMeta
	nOps
)

var opNames = [nOps]string{"open", "close", "read", "write", "sync", "meta"}

// Phases partition a cycle; the workload switches phase only while no
// traced call is in flight, so a span's phase is well defined.
type phaseID uint8

const (
	phSetup phaseID = iota
	phWrite
	phOpen    // cold open, flattened record trusted
	phOpenRaw // cold open after DropFlattenedIndex
	phRead
	phProbe // untimed index probes of the traced pass
	nPhases
)

var phaseNames = [nPhases]string{"setup", "write", "open", "open_raw", "read", "probe"}

// A negative lane marks spans recorded through an instance several
// callers share concurrently; their nesting cannot be recovered, so
// they are summed per phase instead of matched to a parent. sharedLane
// keeps an identity (svc3 backend i) inside that range.
func sharedLane(i int) int { return -1 - i }

type span struct {
	start, end int64 // ns since tracer.t0
	bytes      int32
	segs       uint16 // buffers moved by the call (1 for a scalar data op)
	lane       int16
	layer      layerID
	op         opKind
	phase      phaseID
	failed     bool
	parent     int32 // filled by analyze; -1 = none
	opID       int32 // index of the top-level ancestor; filled by analyze
}

// tracer is the span sink of the -trace pass: a preallocated buffer
// that one traced cycle fills and analyze drains. All methods are safe
// on a nil receiver, which is how direct call sites stay in place when
// tracing is off.
type tracer struct {
	t0      time.Time
	spans   []span
	n       atomic.Int64
	phase   atomic.Int32
	dropped int64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) setPhase(p phaseID) {
	if t != nil {
		t.phase.Store(int32(p))
	}
}

func (t *tracer) reset() {
	t.dropped += max(0, t.n.Load()-int64(len(t.spans)))
	t.n.Store(0)
}

// add records one finished call that began at start (from now()).
func (t *tracer) add(layer layerID, op opKind, lane int, start int64, bytes, segs int, err error) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return // counted by reset
	}
	t.spans[i] = span{
		start: start, end: end, bytes: int32(min(bytes, 1<<31-1)), segs: uint16(min(segs, 1<<16-1)),
		lane: int16(lane), layer: layer, op: op, phase: phaseID(t.phase.Load()), failed: err != nil,
		parent: -1, opID: -1,
	}
}

// agg is the profile of one (layer, phase, op) cell of a traced cycle.
type agg struct {
	n, errs     int64
	dur         int64 // sum of span durations
	cover       int64 // part of dur covered by child-layer spans of the same lane
	bytes, segs int64
}

func (a *agg) plus(b agg) agg {
	return agg{a.n + b.n, a.errs + b.errs, a.dur + b.dur, a.cover + b.cover, a.bytes + b.bytes, a.segs + b.segs}
}

// profile is the analysis of one traced cycle.
type profile struct {
	cells [nLayers][nPhases][nOps]agg
	// backendOps counts the spans of each svc3 backend (shared lanes).
	backendOps map[int16]int64
	// orphan is the span time of timed phases that lies inside no span
	// of the layer above although the layers carry lanes.
	orphan int64
}

// cell sums the selected ops of one layer and phase; no ops means all.
func (p *profile) cell(l layerID, ph phaseID, ops ...opKind) (a agg) {
	if len(ops) == 0 {
		for op := range p.cells[l][ph] {
			a = a.plus(p.cells[l][ph][op])
		}
		return a
	}
	for _, op := range ops {
		a = a.plus(p.cells[l][ph][op])
	}
	return a
}

// analyze builds the profile of the buffered spans. chain lists the
// workload's layers outermost first. For each adjacent pair whose spans
// carry lanes, a parent's cover is the union of the child spans inside
// it on the same lane (children of one call may overlap when the layer
// fans out to goroutines), so self = dur - cover. It also fills parent
// and opID for the span file.
func (t *tracer) analyze(chain []layerID) *profile {
	n := int(min(t.n.Load(), int64(len(t.spans))))
	spans := t.spans[:n]
	p := profile{backendOps: map[int16]int64{}}
	byLayer := make([][]int32, nLayers)
	for i := range spans {
		s := &spans[i]
		a := &p.cells[s.layer][s.phase][s.op]
		if s.layer == lBackend {
			p.backendOps[s.lane]++
		}
		a.n++
		a.dur += s.end - s.start
		a.bytes += int64(s.bytes)
		a.segs += int64(s.segs)
		if s.failed {
			a.errs++
		}
		byLayer[s.layer] = append(byLayer[s.layer], int32(i))
	}
	for _, idx := range byLayer {
		sort.Slice(idx, func(a, b int) bool {
			x, y := &spans[idx[a]], &spans[idx[b]]
			if x.lane != y.lane {
				return x.lane < y.lane
			}
			return x.start < y.start
		})
	}
	for _, i := range byLayer[chain[0]] {
		spans[i].opID = i
	}
	for c := 1; c < len(chain); c++ {
		parents, children := byLayer[chain[c-1]], byLayer[chain[c]]
		ci := 0
		for _, pi := range parents {
			ps := &spans[pi]
			if ps.lane < 0 {
				continue
			}
			// Both lists are ordered by (lane, start) and the parents of
			// one lane do not overlap, so one forward scan pairs them.
			for ci < len(children) {
				cs := &spans[children[ci]]
				if cs.lane > ps.lane || (cs.lane == ps.lane && cs.start >= ps.start) {
					break
				}
				ci++
			}
			var cover, hi int64
			for ; ci < len(children); ci++ {
				cs := &spans[children[ci]]
				if cs.lane != ps.lane || cs.end > ps.end {
					break
				}
				cs.parent, cs.opID = pi, ps.opID
				if lo := max(cs.start, hi); cs.end > lo {
					cover += cs.end - lo
					hi = cs.end
				}
			}
			p.cells[ps.layer][ps.phase][ps.op].cover += cover
		}
		for _, i := range children {
			if s := &spans[i]; s.parent < 0 && s.lane >= 0 && s.phase != phSetup && s.phase != phProbe {
				p.orphan += s.end - s.start
			}
		}
	}
	return &p
}

// writeFile dumps the buffered spans (one traced cycle) as JSON lines:
// a header naming the columns, then one array per span.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"columns\":[\"layer\",\"op\",\"phase\",\"lane\",\"start_ns\",\"end_ns\",\"bytes\",\"segs\",\"failed\",\"parent\",\"op_id\"],\"dropped\":%d}\n", t.dropped)
	n := int(min(t.n.Load(), int64(len(t.spans))))
	for i := range t.spans[:n] {
		s := &t.spans[i]
		fmt.Fprintf(w, "[%q,%q,%q,%d,%d,%d,%d,%d,%t,%d,%d]\n",
			layerNames[s.layer], opNames[s.op], phaseNames[s.phase], s.lane, s.start, s.end, s.bytes, s.segs, s.failed, s.parent, s.opID)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
