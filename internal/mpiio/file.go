package mpiio

import (
	"cmp"
	"fmt"
	"slices"

	"ldplfs/internal/iostats"
	"ldplfs/internal/mpi"
	"ldplfs/internal/plfs"
)

// Hints mirror the ROMIO info keys the paper leans on.
//
// Collective buffering (two-phase I/O, romio_cb_write/read) is always
// on: the paper runs every test "with collective buffering enabled and
// in its default configuration". Strided access is collective
// (WriteAll, ReadAll); an independent call (WriteAt, ReadAt) moves one
// contiguous block.
type Hints struct {
	// CBBufferSize is the aggregator staging buffer (cb_buffer_size,
	// ROMIO default 16 MiB). An aggregator stages its file domain this
	// many bytes of data at a time — holes in the domain take no room —
	// and issues each buffer as one vectored driver call. Open adopts
	// rank 0's value on every rank, as it does every cb_* hint.
	CBBufferSize int
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
	Collector *iostats.Plane
}

// DefaultHints match ROMIO defaults plus the paper's configuration: one
// aggregator per distinct compute node.
func DefaultHints() Hints {
	return Hints{CBBufferSize: 16 << 20}
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
	// collective/independent calls and driver-level reads/writes and
	// their bytes.
	ls   *iostats.LayerStats
	ccol *iostats.Counter // collective_calls
	cind *iostats.Counter // independent_calls
	cdw  *iostats.Counter // driver_writes
	cdr  *iostats.Counter // driver_reads
	cbw  *iostats.Counter // bytes_written
	cbr  *iostats.Counter // bytes_read
	cshb *iostats.Counter // shuffle_bytes
	cshp *iostats.Counter // shuffle_pieces
	cago *iostats.Counter // agg_flush_ops

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
// MPI_File_open. An open whose amode may write marks the file open once
// for the communicator where the driver's files can (commMarker, which
// the PLFS driver's do): rank 0's file makes one openhosts record before
// any rank returns, and the writers every rank's file makes, collective
// or independent, make none of their own. Close removes it.
func Open(r *mpi.Rank, driver Driver, path string, amode int, hints Hints) (*File, error) {
	if hints.CBBufferSize <= 0 {
		hints.CBBufferSize = 16 << 20
	}
	df, err := openDriverFile(r, driver, path, amode)
	if err != nil {
		return nil, err
	}
	// Rank 0's cb_* hints become the communicator's: every rank routes
	// its pieces to the aggregators cb_aggregators picks, so ranks that
	// disagreed would send pieces to a rank that does not aggregate them
	// (MPI requires cb_* hints to match).
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
	// The plane's layer, or rank 0's standalone one when no plane is
	// attached. Every rank asks the plane for the same layer name, so
	// the whole communicator aggregates into one view of it.
	ls := cmp.Or(hints.Collector.Layer("mpiio"), agreed.ls)
	f := &File{rank: r, df: df, hints: hints, path: path, ls: ls}
	f.aggs = aggregators(r.Size(), r.PPN(), hints.CBAggregators)
	f.isAgg = slices.Contains(f.aggs, r.Rank())
	f.ccol = f.ls.Counter("collective_calls")
	f.cind = f.ls.Counter("independent_calls")
	f.cdw = f.ls.Counter("driver_writes")
	f.cdr = f.ls.Counter("driver_reads")
	f.cbw = f.ls.Counter("bytes_written")
	f.cbr = f.ls.Counter("bytes_read")
	f.cshb = f.ls.Counter("shuffle_bytes")
	f.cshp = f.ls.Counter("shuffle_pieces")
	f.cago = f.ls.Counter("agg_flush_ops")
	return f, nil
}

// openDriverFile opens every rank's driver file, or none: a rank
// returning alone would leave the others waiting for it in their next
// collective, forever.
//
// A writable open marks the file open once for the communicator where
// the driver's files can (markComm), instead of once per rank that
// writes.
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
	if amode&ModeRdonly == 0 {
		markComm(r, df, err, path)
	}
	if err := funnel(r, err, "open"); err != nil {
		if df != nil {
			df.Close()
		}
		return nil, err
	}
	return df, nil
}

// markComm marks a writable collective open's file open once for the
// communicator (commMarker): rank 0's file makes the record, and a rank
// joins it only if its own open succeeded on the path rank 0 marked. A
// rank of a file-per-process open, or one whose file cannot join, keeps
// its writers' own records, as every rank does if rank 0 could not make
// the record. Every rank calls it: the broadcast of rank 0's path is a
// collective. A failed open closes rank 0's file, which removes the
// record.
func markComm(r *mpi.Rank, df DriverFile, err error, path string) {
	cm, ok := df.(commMarker)
	ok = ok && err == nil
	var marked *string
	if r.Rank() == 0 && ok && cm.MarkComm(r.Size()) == nil {
		marked = &path
	}
	if got := r.Bcast(0, marked).(*string); r.Rank() != 0 && ok && got != nil && *got == path {
		cm.JoinComm()
	}
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
// back, and tells it whether any of them wrote; the other ranks then
// leave even the openhosts listing to rank 0. Rank 0's close removes
// the communicator's openhosts record, if Open made one, once every
// other rank has closed and before it looks for writers left. Through
// any other driver the gather carries nothing. The closing barrier keeps
// MPI's rule that the file is closed on every rank once any rank's
// Close returns.
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
	if err := f.twoPhase(segs, buf, false); err != nil {
		return 0, err
	}
	return int(segsBytes(segs)), nil
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
	if err := f.twoPhase(segs, buf, true); err != nil {
		return 0, err
	}
	return int(segsBytes(segs)), nil
}

// ReadAtAll is the contiguous special case — MPI_File_read_at_all.
func (f *File) ReadAtAll(buf []byte, off int64) (int, error) {
	var segs []Segment
	if len(buf) > 0 {
		segs = []Segment{{Off: off, Len: int64(len(buf))}}
	}
	return f.ReadAll(segs, buf)
}
