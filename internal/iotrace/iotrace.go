// Package iotrace records the storage-level operation stream a workload
// induces on a posix.FS backend, and aggregates it into the quantities
// the cluster cost models care about: file creates (MDS load), active
// write streams (OSS object management), bytes moved, and the write-size
// distribution (cache-absorbability).
//
// The Recorder is one hook on a posix.Interposer, the same forwarding
// table FaultFS and InstrumentFS hook into. It keeps only what the
// telemetry plane deliberately does not: the per-path event stream the
// per-file aggregation (Summarize) needs. WrapWith adds an InstrumentFS
// inside it, so one pass gives both views: aggregate layer stats on the
// plane ("iotrace" layer) and the semantic event stream here.
//
// Wrapping the shared backend under a full experiment makes the paper's
// mechanisms *measurable* on the functional stack: e.g. FLASH-IO through
// LDPLFS creates ~2 files per process per checkpoint (the Fig. 5 MDS
// storm) while plain MPI-IO creates one file total.
package iotrace

import (
	"sort"
	"strings"
	"sync"

	"ldplfs/internal/iostats"
	"ldplfs/internal/posix"
)

// OpKind classifies a recorded operation.
type OpKind int

// Recorded operation kinds.
const (
	OpCreate OpKind = iota // open with O_CREAT of a previously absent path
	OpOpen                 // open of an existing path
	OpRead
	OpWrite
	OpMeta // stat/unlink/readdir/rename/truncate/access/sync
)

// Event is one recorded operation.
type Event struct {
	Kind  OpKind
	Path  string
	Bytes int64
	Seq   int64 // global order
}

// Recorder wraps a posix.FS and records every operation. It is safe for
// concurrent use (ranks share one backend). Its FS methods are the
// Interposer's; the recorder is one hook on it. The stream keeps the
// tracer's conventions: meta ops are recorded before the call, opens
// and directory creates only on success, reads and writes only when
// bytes moved, and Close not at all.
type Recorder struct {
	*posix.Interposer
	inner posix.FS // probed to classify creates, outside the count

	mu     sync.Mutex
	events []Event
	seq    int64
}

// Wrap returns a recording view of inner.
func Wrap(inner posix.FS) *Recorder { return WrapWith(inner, nil) }

// WrapWith is Wrap with an InstrumentFS inside the recorder reporting
// to a telemetry plane (layer "iotrace"), so one wrapped backend feeds
// both the event stream and the plane.
func WrapWith(inner posix.FS, c *iostats.Plane) *Recorder {
	r := &Recorder{inner: inner}
	fs := inner
	if c != nil {
		fs = posix.NewInstrumentFS(inner, c, posix.WithLayerName("iotrace"))
	}
	r.Interposer = posix.Interpose(fs, recorderHook{r})
	return r
}

// recorderHook is the Recorder's hook on its Interposer.
type recorderHook struct{ r *Recorder }

// Before records a meta op, and classifies an O_CREAT open of a
// previously absent path as a create.
func (h recorderHook) Before(op posix.Op) (posix.Op, error) {
	switch {
	case op.Call == posix.CallOpen && op.Flags&posix.O_CREAT != 0:
		_, err := h.r.inner.Stat(op.Path)
		op.Created = err != nil
	case op.Call != posix.CallMkdir && (op.Class == iostats.Meta || op.Class == iostats.Sync):
		h.r.record(OpMeta, op.Path, 0)
	}
	return op, nil
}

// After records moved bytes, a successful open, and a successful Mkdir
// as a directory create (marked by a trailing slash).
func (h recorderHook) After(op posix.Op, n int64, err error) {
	switch {
	case op.Class == iostats.Read && n > 0:
		h.r.record(OpRead, op.Path, n)
	case op.Class == iostats.Write && n > 0:
		h.r.record(OpWrite, op.Path, n)
	case err != nil:
	case op.Call == posix.CallOpen && op.Created:
		h.r.record(OpCreate, op.Path, 0)
	case op.Call == posix.CallOpen:
		h.r.record(OpOpen, op.Path, 0)
	case op.Call == posix.CallMkdir:
		h.r.record(OpCreate, op.Path+"/", 0)
	}
}

// record appends one event to the stream, in global order.
func (r *Recorder) record(kind OpKind, path string, bytes int64) {
	r.mu.Lock()
	r.seq++
	r.events = append(r.events, Event{Kind: kind, Path: path, Bytes: bytes, Seq: r.seq})
	r.mu.Unlock()
}

// Events returns a copy of the recorded stream.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Reset discards the recorded stream.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.mu.Unlock()
}

var _ posix.FS = (*Recorder)(nil)

// --- aggregation -------------------------------------------------------------

// Summary aggregates a recorded stream into model inputs.
type Summary struct {
	FileCreates  int   // new files (MDS creates on Lustre)
	DirCreates   int   // new directories
	Opens        int   // opens of existing files
	MetaOps      int   // stats, unlinks, syncs, ...
	BytesWritten int64 //
	BytesRead    int64 //
	WriteCalls   int   //
	ReadCalls    int   //
	// WriteStreams is the number of distinct files written — the active
	// stream count that drives the OSS contention term.
	WriteStreams int
	// MedianWrite is the median write call size (cache-absorbability).
	MedianWrite int64
	// DroppingFiles counts files under hostdir.* (PLFS internal streams).
	DroppingFiles int
}

// Summarize aggregates events.
func Summarize(events []Event) Summary {
	var s Summary
	writeFiles := map[string]bool{}
	created := map[string]bool{}
	var writeSizes []int64
	for _, e := range events {
		switch e.Kind {
		case OpCreate:
			if strings.Contains(e.Path, "dropping.") {
				s.DroppingFiles++
			}
			if created[e.Path] {
				continue
			}
			created[e.Path] = true
			if strings.HasSuffix(e.Path, "/") { // a directory create
				s.DirCreates++
			} else {
				s.FileCreates++
			}
		case OpOpen:
			s.Opens++
		case OpWrite:
			s.BytesWritten += e.Bytes
			s.WriteCalls++
			writeFiles[e.Path] = true
			writeSizes = append(writeSizes, e.Bytes)
		case OpRead:
			s.BytesRead += e.Bytes
			s.ReadCalls++
		case OpMeta:
			s.MetaOps++
		}
	}
	s.WriteStreams = len(writeFiles)
	if len(writeSizes) > 0 {
		sort.Slice(writeSizes, func(i, j int) bool { return writeSizes[i] < writeSizes[j] })
		s.MedianWrite = writeSizes[len(writeSizes)/2]
	}
	return s
}
