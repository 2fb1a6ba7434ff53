package mpiio

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"ldplfs/internal/iostats"
	"ldplfs/internal/mpi"
	"ldplfs/internal/plfs"
)

// Hints mirror the ROMIO info keys the paper leans on.
//
// Collective buffering (two-phase I/O, romio_cb_write/read) and data
// sieving (romio_ds_write) are always on: the paper runs every test
// "with collective buffering enabled and in its default configuration".
// An independent call (WriteStrided, WriteAt) is the path without
// collective buffering, and a sparse strided access is the one that is
// not sieved.
type Hints struct {
	// CBBufferSize is the aggregator staging buffer (cb_buffer_size,
	// ROMIO default 16 MiB). Aggregator writes are chunked at this size,
	// and an aggregator's file domain takes one pipeline round per
	// staging buffer's worth. Like every cb_* hint it must agree across
	// the communicator: Open adopts rank 0's value on every rank.
	CBBufferSize int
	// SieveBufferSize is the sieving block (ind_rd_buffer_size, 4 MiB
	// default).
	SieveBufferSize int
	// CBAggregators is the number of aggregators per compute node
	// (cb_nodes-style). 0 or 1 keeps the paper's default of one
	// aggregator per distinct node; higher values fan aggregator I/O
	// out across more ranks (capped at the node's PPN). Rank 0's value
	// is adopted by every rank at Open.
	CBAggregators int
	// Collector attaches the MPI-IO layer to a telemetry plane: every
	// collective and independent call reports count/bytes/latency to
	// layer "mpiio" (plus collective_calls/independent_calls counters).
	// Nil leaves the layer unobserved.
	Collector iostats.Collector
}

// DefaultHints match ROMIO defaults plus the paper's configuration: one
// aggregator per distinct compute node.
func DefaultHints() Hints {
	return Hints{
		CBBufferSize:    16 << 20,
		SieveBufferSize: 4 << 20,
	}
}

// File is an open MPI file handle, one per rank (like MPI_File). The
// handle embeds the rank because every collective entry point must be
// called by all ranks of the communicator.
type File struct {
	rank  *mpi.Rank
	df    DriverFile
	hints Hints
	path  string

	// ls is the layer every handle of the communicator reports to —
	// Hints.Collector's "mpiio" layer, or a standalone layer bcast from
	// rank 0 when no plane is attached. The named counters (grabbed
	// once at Open) are what the retired Stats struct used to tally:
	// collective/independent calls, driver-level reads/writes and their
	// bytes, and data-sieving read-modify-write cycles.
	ls   *iostats.LayerStats
	ccol *iostats.Counter // collective_calls
	cind *iostats.Counter // independent_calls
	cdw  *iostats.Counter // driver_writes
	cdr  *iostats.Counter // driver_reads
	cbw  *iostats.Counter // bytes_written
	cbr  *iostats.Counter // bytes_read
	csr  *iostats.Counter // sieve_rmws
	cshb *iostats.Counter // shuffle_bytes
	cshp *iostats.Counter // shuffle_pieces
	cago *iostats.Counter // agg_flush_ops
	covl *iostats.Counter // round_overlap_ns

	// srl serializes sieved read-modify-write cycles to overlapping
	// ranges of this handle (disjoint spans proceed concurrently).
	srl rangeLock

	// The collective shape, fixed at Open from rank 0's cb_* hints: the
	// aggregator ranks (ascending, identical on every rank) and whether
	// this rank is one of them.
	aggs  []int
	isAgg bool
}

// Layer is the handle's telemetry layer, shared by the whole
// communicator — the counters above plus per-op latency records.
func (f *File) Layer() *iostats.LayerStats { return f.ls }

// Segment is one contiguous piece of a file access (a flattened datatype).
type Segment struct {
	Off int64
	Len int64
}

// Open opens path collectively on all ranks of r with the given driver —
// MPI_File_open.
func Open(r *mpi.Rank, driver Driver, path string, amode int, hints Hints) (*File, error) {
	if hints.CBBufferSize <= 0 {
		hints.CBBufferSize = 16 << 20
	}
	if hints.SieveBufferSize <= 0 {
		hints.SieveBufferSize = 4 << 20
	}
	df, err := openDriverFile(r, driver, path, amode)
	if err != nil {
		return nil, err
	}
	// Rank 0's cb_* hints become the communicator's: every collective's
	// exchange schedule is derived from them, so ranks that disagreed
	// would deadlock (MPI requires cb_* hints to match for that reason).
	// The same broadcast shares rank 0's standalone telemetry layer when
	// no plane is attached, so per-handle tallies aggregate across ranks.
	type shape struct {
		staging, aggsPerNode int
		ls                   *iostats.LayerStats
	}
	mine := shape{staging: hints.CBBufferSize, aggsPerNode: hints.CBAggregators}
	if hints.Collector == nil && r.Rank() == 0 {
		mine.ls = iostats.NewLayerStats("mpiio")
	}
	agreed := r.Bcast(0, mine).(shape)
	hints.CBBufferSize, hints.CBAggregators = agreed.staging, agreed.aggsPerNode
	f := &File{rank: r, df: df, hints: hints, path: path, ls: agreed.ls}
	f.aggs = aggregators(r.Size(), r.PPN(), hints.CBAggregators)
	f.isAgg = slices.Contains(f.aggs, r.Rank())
	if hints.Collector != nil {
		// Every rank asks for the same layer name, so the whole
		// communicator aggregates into one view of the plane.
		f.ls = hints.Collector.Layer("mpiio")
	}
	f.ccol = f.ls.Counter("collective_calls")
	f.cind = f.ls.Counter("independent_calls")
	f.cdw = f.ls.Counter("driver_writes")
	f.cdr = f.ls.Counter("driver_reads")
	f.cbw = f.ls.Counter("bytes_written")
	f.cbr = f.ls.Counter("bytes_read")
	f.csr = f.ls.Counter("sieve_rmws")
	f.cshb = f.ls.Counter("shuffle_bytes")
	f.cshp = f.ls.Counter("shuffle_pieces")
	f.cago = f.ls.Counter("agg_flush_ops")
	f.covl = f.ls.Counter("round_overlap_ns")
	return f, nil
}

// openDriverFile opens every rank's driver file, or none: a rank
// returning alone would leave the others waiting for it in their next
// collective, forever.
//
// A read-only open of one path through a driver that can share an index
// builds it once: rank 0 opens and builds, and the other ranks open from
// its index without a metadata op (indexSharer). Whether the ranks agree
// on the path — and on the capability — is decided collectively, so they
// all take the same branch; a communicator whose ranks open files of
// their own takes the per-rank path.
func openDriverFile(r *mpi.Rank, driver Driver, path string, amode int) (DriverFile, error) {
	if amode == ModeRdonly {
		sharer, ok := driver.(indexSharer)
		root := r.Bcast(0, path).(string)
		var apart int64
		if !ok || root != path {
			apart = 1
		}
		if r.AllreduceInt64(apart, mpi.OpMax) == 0 {
			return openSharedIndex(r, sharer, path)
		}
	}
	if amode&ModeCreate != 0 {
		// Rank 0 creates first (avoiding O_EXCL races), then everyone opens.
		var createErr error
		if r.Rank() == 0 {
			df, err := driver.Open(path, amode, 0)
			if err != nil {
				createErr = err
			} else {
				df.Close()
			}
		}
		if errv := r.Bcast(0, createErr); errv != nil {
			return nil, errv.(error)
		}
		amode &^= ModeExcl // rank 0 already arbitrated exclusive creation
	}
	df, err := driver.Open(path, amode, r.Rank())
	if err := funnel(r, err, "open"); err != nil {
		if df != nil {
			df.Close()
		}
		return nil, err
	}
	return df, nil
}

// sharedOpen is what rank 0 broadcasts in a shared-index open: its index,
// or the error that left it with none.
type sharedOpen struct {
	index plfs.SharedIndex
	err   error
}

// openSharedIndex is openDriverFile's shared path. Rank 0's failure
// reaches every rank in the broadcast, so none waits for it.
func openSharedIndex(r *mpi.Rank, sharer indexSharer, path string) (DriverFile, error) {
	var df DriverFile
	var mine sharedOpen
	if r.Rank() == 0 {
		df, mine.index, mine.err = sharer.OpenSharing(path, 0)
	}
	got := r.Bcast(0, mine).(sharedOpen)
	if got.err != nil {
		if r.Rank() == 0 {
			return nil, got.err
		}
		return nil, fmt.Errorf("mpiio: collective open failed on another rank: %w", got.err)
	}
	var err error
	if r.Rank() != 0 {
		df, err = sharer.OpenShared(path, r.Rank(), got.index)
	}
	if err := funnel(r, err, "open"); err != nil {
		if df != nil {
			df.Close()
		}
		return nil, err
	}
	return df, nil
}

// aggregators lists the collective-buffering aggregator ranks of a job,
// ascending: the first min(max(perNode, 1), ppn) ranks of each node.
func aggregators(size, ppn, perNode int) []int {
	perNode = min(max(perNode, 1), ppn)
	var aggs []int
	for first := 0; first < size; first += ppn {
		for r := first; r < min(first+perNode, size); r++ {
			aggs = append(aggs, r)
		}
	}
	return aggs
}

// Close closes the handle collectively — MPI_File_close. Ranks other
// than 0 close first, then rank 0, so a container the ranks wrote has
// one last closer: rank 0 alone finds no writer left and flattens, and
// the others neither list its droppings nor race it for the claim (see
// plfs's flatten.go). Through a driver whose files can hand on their
// folded index records (foldCloser), the gather between the two steps
// brings rank 0 the other ranks' folds, so its flatten reads no dropping
// back; through any other, it carries nothing. The closing barrier
// keeps MPI's rule that the file is closed on every rank once any
// rank's Close returns.
func (f *File) Close() error {
	fc, canFold := f.df.(foldCloser)
	var err error
	var mine []byte
	if f.rank.Rank() != 0 {
		if canFold {
			mine, err = fc.CloseSending()
		} else {
			err = f.df.Close()
		}
	}
	got := f.rank.Gather(0, mine)
	if f.rank.Rank() == 0 {
		if canFold {
			var peers [][]byte
			for _, v := range got[1:] {
				if b := v.([]byte); b != nil {
					peers = append(peers, b)
				}
			}
			err = fc.CloseGathered(peers)
		} else {
			err = f.df.Close()
		}
	}
	f.rank.Barrier()
	return err
}

// Sync flushes this rank's data — MPI_File_sync (collective).
func (f *File) Sync() error {
	start := f.ls.Start()
	err := f.df.Sync()
	f.ls.End(iostats.Sync, 0, start, err)
	f.rank.Barrier()
	return err
}

// SetSize truncates collectively — MPI_File_set_size.
func (f *File) SetSize(size int64) error {
	var err error
	if f.rank.Rank() == 0 {
		err = f.df.Truncate(size)
	}
	if v := f.rank.Bcast(0, err); v != nil {
		return v.(error)
	}
	return nil
}

// Size returns the current file size — MPI_File_get_size.
func (f *File) Size() (int64, error) { return f.df.Size() }

// Rank returns the mpi rank owning this handle.
func (f *File) Rank() *mpi.Rank { return f.rank }

// --- independent operations ----------------------------------------------

// WriteAt writes one contiguous block independently — MPI_File_write_at.
func (f *File) WriteAt(buf []byte, off int64) (int, error) {
	f.cdw.Add(1)
	f.cbw.Add(int64(len(buf)))
	f.cind.Add(1)
	start := f.ls.Start()
	n, err := f.df.PwriteAt(buf, off)
	f.ls.End(iostats.Write, int64(n), start, err)
	return n, err
}

// ReadAt reads one contiguous block independently — MPI_File_read_at.
func (f *File) ReadAt(buf []byte, off int64) (int, error) {
	f.cdr.Add(1)
	f.cind.Add(1)
	start := f.ls.Start()
	n, err := f.df.PreadAt(buf, off)
	f.ls.End(iostats.Read, int64(n), start, err)
	f.cbr.Add(int64(n))
	return n, err
}

// WriteStrided writes a flattened strided access independently, applying
// data sieving when the holes are small enough that one read-modify-write
// beats many small writes (ROMIO's romio_ds_write heuristic).
func (f *File) WriteStrided(segs []Segment, buf []byte) (int, error) {
	f.cind.Add(1)
	start := f.ls.Start()
	n, err := f.writeStrided(segs, buf)
	f.ls.End(iostats.Write, int64(n), start, err)
	return n, err
}

func (f *File) writeStrided(segs []Segment, buf []byte) (int, error) {
	if len(segs) == 0 {
		return 0, nil
	}
	if err := validateSegs(segs, buf); err != nil {
		return 0, err
	}
	total := segsBytes(segs)
	lo := segs[0].Off
	hi := segs[len(segs)-1].Off + segs[len(segs)-1].Len
	span := hi - lo

	useSieve := len(segs) > 1 &&
		span <= int64(f.hints.SieveBufferSize) && span < 2*total

	if !useSieve {
		n, _, err := f.writeRuns(segs, buf[:total])
		return n, err
	}

	// Data sieving: read [lo,hi), overlay the segments, write back once.
	// The range lock serializes concurrent RMW cycles over overlapping
	// spans — without it, two interleaved sieved writes would each read
	// the block, patch their own segments, and the later write-back
	// would silently undo the earlier one.
	f.srl.lock(lo, hi)
	defer f.srl.unlock(lo, hi)
	f.csr.Add(1)
	block := make([]byte, span)
	f.cdr.Add(1)
	if _, err := f.df.PreadAt(block, lo); err != nil && !errors.Is(err, io.EOF) {
		return 0, err
	}
	// A short pre-read (the sieve span extends past EOF) is not an
	// error: the tail beyond n is a hole the write is about to define,
	// and block's zero fill is exactly its contents — the same partial-
	// fill handling the read path applies.
	cursor := 0
	for _, s := range segs {
		copy(block[s.Off-lo:s.Off-lo+s.Len], buf[cursor:cursor+int(s.Len)])
		cursor += int(s.Len)
	}
	f.cdw.Add(1)
	if _, err := f.df.PwriteAt(block, lo); err != nil {
		return 0, err
	}
	f.cbw.Add(total)
	return int(total), nil
}

// ReadStrided reads a flattened strided access independently with data
// sieving: one big read, then scatter.
func (f *File) ReadStrided(segs []Segment, buf []byte) (int, error) {
	f.cind.Add(1)
	start := f.ls.Start()
	n, err := f.readStrided(segs, buf)
	f.ls.End(iostats.Read, int64(n), start, err)
	return n, err
}

func (f *File) readStrided(segs []Segment, buf []byte) (int, error) {
	if len(segs) == 0 {
		return 0, nil
	}
	if err := validateSegs(segs, buf); err != nil {
		return 0, err
	}
	total := segsBytes(segs)
	lo := segs[0].Off
	hi := segs[len(segs)-1].Off + segs[len(segs)-1].Len
	span := hi - lo

	// Same density cutoff as the write path: sieving a span more than
	// twice the useful bytes reads mostly holes, so sparse strided
	// access falls through to per-segment reads.
	if len(segs) > 1 &&
		span <= int64(f.hints.SieveBufferSize) && span < 2*total {
		block := make([]byte, span)
		f.cdr.Add(1)
		n, err := f.df.PreadAt(block, lo)
		if err != nil && !errors.Is(err, io.EOF) {
			return 0, err
		}
		got := 0
		cursor := 0
		for _, s := range segs {
			end := s.Off - lo + s.Len
			if end > int64(n) {
				end = int64(n)
			}
			if s.Off-lo < int64(n) {
				got += copy(buf[cursor:cursor+int(s.Len)], block[s.Off-lo:end])
			}
			cursor += int(s.Len)
		}
		f.cbr.Add(int64(got))
		return got, nil
	}

	n, _, err := f.readRuns(segs, buf[:total])
	return n, err
}

// writeRuns states the write-side driver-call rule once, for sparse
// independent access and for an aggregator's staged round alike: a
// vector-capable driver takes two or more runs in one call (the PLFS
// driver turns it into one WriteV, whose engine batches physically-
// contiguous pwrites), any other gets a pwrite per run. buf holds the
// runs' bytes back to back. Returns bytes written and driver calls made.
func (f *File) writeRuns(runs []Segment, buf []byte) (n int, calls int64, err error) {
	if vw, ok := f.df.(VectorWriter); ok && len(runs) > 1 {
		f.cdw.Add(1)
		n, err = vw.PwritevAt(runs, buf)
		f.cbw.Add(int64(n))
		return n, 1, err
	}
	cursor := int64(0)
	for _, run := range runs {
		calls++
		w, werr := f.df.PwriteAt(buf[cursor:cursor+run.Len], run.Off)
		n += w
		if werr != nil {
			err = werr
			break
		}
		cursor += run.Len
	}
	f.cdw.Add(calls)
	f.cbw.Add(int64(n))
	return n, calls, err
}

// readRuns is the read-side twin: one PreadvAt for two or more runs on a
// vector-capable driver (PLFS resolves the index once and batches
// contiguous extents across runs), otherwise a pread per run. EOF is not
// an error and bytes past it are zero-filled either way; n counts the
// bytes below EOF.
func (f *File) readRuns(runs []Segment, buf []byte) (n int, calls int64, err error) {
	if vr, ok := f.df.(VectorReader); ok && len(runs) > 1 {
		f.cdr.Add(1)
		n, err = vr.PreadvAt(runs, buf)
		f.cbr.Add(int64(n))
		return n, 1, err
	}
	cursor := int64(0)
	for _, run := range runs {
		calls++
		dst := buf[cursor : cursor+run.Len]
		r, rerr := f.df.PreadAt(dst, run.Off)
		n += r
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			err = rerr
			break
		}
		clear(dst[r:])
		cursor += run.Len
	}
	f.cdr.Add(calls)
	f.cbr.Add(int64(n))
	return n, calls, err
}

func validateSegs(segs []Segment, buf []byte) error {
	var total int64
	last := int64(-1)
	for _, s := range segs {
		if s.Len < 0 || s.Off < 0 {
			return fmt.Errorf("mpiio: invalid segment %+v", s)
		}
		if s.Off < last {
			return fmt.Errorf("mpiio: segments not sorted at offset %d", s.Off)
		}
		last = s.Off + s.Len
		total += s.Len
	}
	if total > int64(len(buf)) {
		return fmt.Errorf("mpiio: segments cover %d bytes, buffer has %d", total, len(buf))
	}
	return nil
}

func segsBytes(segs []Segment) int64 {
	var total int64
	for _, s := range segs {
		total += s.Len
	}
	return total
}

// --- collective operations (two-phase I/O) -------------------------------

// WriteAll performs a collective strided write — MPI_File_write_all with
// a flattened view. All ranks must call it; segs may be empty on some.
func (f *File) WriteAll(segs []Segment, buf []byte) (int, error) {
	f.ccol.Add(1)
	start := f.ls.Start()
	n, err := f.writeAll(segs, buf)
	f.ls.End(iostats.Write, int64(n), start, err)
	return n, err
}

func (f *File) writeAll(segs []Segment, buf []byte) (int, error) {
	if err := validateSegs(segs, buf); err != nil {
		return 0, err
	}
	return f.writeAllPipelined(segs, buf)
}

// WriteAtAll is the contiguous special case — MPI_File_write_at_all.
func (f *File) WriteAtAll(buf []byte, off int64) (int, error) {
	var segs []Segment
	if len(buf) > 0 {
		segs = []Segment{{Off: off, Len: int64(len(buf))}}
	}
	return f.WriteAll(segs, buf)
}

// ReadAll performs a collective strided read — MPI_File_read_all.
// Aggregators read coalesced runs of their file domain and scatter the
// requested pieces back.
func (f *File) ReadAll(segs []Segment, buf []byte) (int, error) {
	f.ccol.Add(1)
	start := f.ls.Start()
	n, err := f.readAll(segs, buf)
	f.ls.End(iostats.Read, int64(n), start, err)
	return n, err
}

func (f *File) readAll(segs []Segment, buf []byte) (int, error) {
	if err := validateSegs(segs, buf); err != nil {
		return 0, err
	}
	return f.readAllPipelined(segs, buf)
}

// ReadAtAll is the contiguous special case — MPI_File_read_at_all.
func (f *File) ReadAtAll(buf []byte, off int64) (int, error) {
	var segs []Segment
	if len(buf) > 0 {
		segs = []Segment{{Off: off, Len: int64(len(buf))}}
	}
	return f.ReadAll(segs, buf)
}
