package index

import (
	"encoding/binary"
	"fmt"
	"math"

	"ldplfs/internal/posix"
)

// The flattened global index record: the resolved, non-overlapping extent
// table of an entire container persisted as one canonical file, so a cold
// open loads O(extents) instead of re-merging O(total-entries) across
// every writer's index dropping — PLFS's index flattening, made crash-safe
// and self-invalidating.
//
// On-disk layout (all fields little-endian):
//
//	header (48 bytes):
//	  magic       8  FlattenedMagic ("PLFSFLT1")
//	  version     8  FlattenedVersion
//	  generation  8  must match the <gen> in the file name
//	  rawsig      8  RawSignature of the droppings the table was built from
//	  size        8  logical file size (may exceed the last extent's end)
//	  count       8  number of extent records
//	extent records (count × 32 bytes):
//	  logical 8, length 8, physical 8, pid 4, dropping 4
//	trailer (8 bytes):
//	  checksum    8  FNV-1a over header + records
//
// A record is trusted only when every structural check passes AND its
// rawsig equals the container's current raw-dropping signature AND no
// writer holds the container open; any mismatch, torn tail, checksum
// failure or overlapping extent makes readers silently fall back to the
// streaming merge of the raw droppings, so a flattened record can delay
// but never corrupt a read.
const (
	// FlattenedMagic identifies a flattened global index file.
	FlattenedMagic uint64 = 0x504c4653464c5431 // "PLFSFLT1"

	// FlattenedVersion is the current flattened record format version.
	FlattenedVersion = 1

	// FlattenedHeaderSize is the fixed header length in bytes.
	FlattenedHeaderSize = 48

	// FlattenedExtentSize is the per-extent record length in bytes.
	FlattenedExtentSize = 32

	// flattenedTrailerSize holds the whole-file checksum.
	flattenedTrailerSize = 8
)

// Flattened is a parsed flattened global index record.
type Flattened struct {
	Generation uint64
	RawSig     uint64
	Size       int64
	Extents    []Extent
}

// RawSignature summarises the raw index droppings a flattened record was
// built from: FNV-1a over (container-relative path, size) pairs in the
// deterministic container listing order — each pair serialised as the
// path bytes, a NUL separator, and the size in little-endian. Unlike the
// read cache's mtime-bearing Signature it survives byte-preserving
// copies and renames (fixture checkouts, container moves), while still
// changing whenever a dropping grows, shrinks, appears or disappears —
// droppings are append-only logs, so (name, size) pins their contents.
func RawSignature(relPaths []string, sizes []int64) uint64 {
	buf := make([]byte, 0, 64*len(relPaths))
	var sz [8]byte
	for i, p := range relPaths {
		buf = append(buf, p...)
		buf = append(buf, 0)
		binary.LittleEndian.PutUint64(sz[:], uint64(sizes[i]))
		buf = append(buf, sz[:]...)
	}
	return fnvSum(buf)
}

// fnvSum is FNV-1a, the checksum and signature hash of the flattened
// format.
func fnvSum(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// MarshalFlattened encodes a flattened record to its on-disk bytes. The
// extent table must already be resolved (sorted, non-overlapping, no
// holes); callers produce it from Index.Extents.
func MarshalFlattened(f *Flattened) []byte {
	buf := make([]byte, FlattenedHeaderSize+len(f.Extents)*FlattenedExtentSize+flattenedTrailerSize)
	binary.LittleEndian.PutUint64(buf[0:], FlattenedMagic)
	binary.LittleEndian.PutUint64(buf[8:], FlattenedVersion)
	binary.LittleEndian.PutUint64(buf[16:], f.Generation)
	binary.LittleEndian.PutUint64(buf[24:], f.RawSig)
	binary.LittleEndian.PutUint64(buf[32:], uint64(f.Size))
	binary.LittleEndian.PutUint64(buf[40:], uint64(len(f.Extents)))
	off := FlattenedHeaderSize
	for _, x := range f.Extents {
		binary.LittleEndian.PutUint64(buf[off+0:], uint64(x.LogicalOffset))
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(x.Length))
		binary.LittleEndian.PutUint64(buf[off+16:], uint64(x.PhysicalOffset))
		binary.LittleEndian.PutUint32(buf[off+24:], x.Pid)
		binary.LittleEndian.PutUint32(buf[off+28:], x.Dropping)
		off += FlattenedExtentSize
	}
	binary.LittleEndian.PutUint64(buf[off:], fnvSum(buf[:off]))
	return buf
}

// UnmarshalFlattened parses and validates flattened-record bytes. Every
// structural property a reader relies on is checked here: exact length
// (a torn tail is a hard reject, not a truncation — the record is
// written atomically, so a short file is damage), magic, version,
// checksum, and a sorted, non-overlapping, positive-length extent table
// whose span fits the recorded size.
func UnmarshalFlattened(data []byte) (*Flattened, error) {
	if len(data) < FlattenedHeaderSize+flattenedTrailerSize {
		return nil, fmt.Errorf("index: flattened record too short (%d bytes)", len(data))
	}
	if got := binary.LittleEndian.Uint64(data[0:]); got != FlattenedMagic {
		return nil, fmt.Errorf("index: flattened record: bad magic %#x", got)
	}
	if got := binary.LittleEndian.Uint64(data[8:]); got != FlattenedVersion {
		return nil, fmt.Errorf("index: flattened record: unsupported version %d", got)
	}
	count := binary.LittleEndian.Uint64(data[40:])
	// Bound count before any arithmetic on it: a forged header must not
	// drive an overflowing length check or a giant allocation.
	maxCount := uint64(len(data)-FlattenedHeaderSize-flattenedTrailerSize) / FlattenedExtentSize
	if count > maxCount || uint64(len(data)) != uint64(FlattenedHeaderSize)+count*FlattenedExtentSize+flattenedTrailerSize {
		return nil, fmt.Errorf("index: flattened record: %d bytes do not fit %d extents", len(data), count)
	}
	body := len(data) - flattenedTrailerSize
	if got, sum := binary.LittleEndian.Uint64(data[body:]), fnvSum(data[:body]); got != sum {
		return nil, fmt.Errorf("index: flattened record: checksum mismatch (got %#x want %#x)", got, sum)
	}
	f := &Flattened{
		Generation: binary.LittleEndian.Uint64(data[16:]),
		RawSig:     binary.LittleEndian.Uint64(data[24:]),
		Size:       int64(binary.LittleEndian.Uint64(data[32:])),
		Extents:    make([]Extent, count),
	}
	var prevEnd int64
	off := FlattenedHeaderSize
	for i := range f.Extents {
		x := Extent{
			LogicalOffset:  int64(binary.LittleEndian.Uint64(data[off+0:])),
			Length:         int64(binary.LittleEndian.Uint64(data[off+8:])),
			PhysicalOffset: int64(binary.LittleEndian.Uint64(data[off+16:])),
			Pid:            binary.LittleEndian.Uint32(data[off+24:]),
			Dropping:       binary.LittleEndian.Uint32(data[off+28:]),
		}
		if x.Length <= 0 || x.LogicalOffset < 0 || x.PhysicalOffset < 0 {
			return nil, fmt.Errorf("index: flattened record: extent %d malformed (%+v)", i, x)
		}
		if x.LogicalOffset > math.MaxInt64-x.Length {
			// Overflowing end would wrap negative and defeat the overlap
			// and size checks below; a checksum is no defence against a
			// forged record, so reject here.
			return nil, fmt.Errorf("index: flattened record: extent %d end overflows (%+v)", i, x)
		}
		if x.LogicalOffset < prevEnd {
			return nil, fmt.Errorf("index: flattened record: extent %d at %d overlaps previous end %d",
				i, x.LogicalOffset, prevEnd)
		}
		prevEnd = x.LogicalOffset + x.Length
		f.Extents[i] = x
		off += FlattenedExtentSize
	}
	if f.Size < prevEnd {
		return nil, fmt.Errorf("index: flattened record: size %d below extent end %d", f.Size, prevEnd)
	}
	return f, nil
}

// WriteFlattened persists a flattened record at path atomically: the
// bytes go to fd, the caller's descriptor on the temp file tmp beside
// path, which is fsynced, closed and renamed over the final name, so
// readers only ever observe a complete record or none at all. That
// holds only while tmp is this writer's alone: two writers sharing one
// temp file write over each other's bytes, and the one that renames
// publishes whatever the other has written so far. So the caller
// creates tmp with O_EXCL, under a name no concurrent writer of path —
// in this process or another — means to share. fd is closed on every
// path, and tmp removed on failure.
func WriteFlattened(fs posix.FS, path, tmp string, fd int, f *Flattened) error {
	data := MarshalFlattened(f)
	if err := posix.WriteFull(fs, fd, data, 0); err != nil {
		fs.Close(fd)
		fs.Unlink(tmp)
		return fmt.Errorf("index: write flattened %s: %w", tmp, err)
	}
	if err := fs.Fsync(fd); err != nil {
		fs.Close(fd)
		fs.Unlink(tmp)
		return fmt.Errorf("index: sync flattened %s: %w", tmp, err)
	}
	if err := fs.Close(fd); err != nil {
		fs.Unlink(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Unlink(tmp)
		return fmt.Errorf("index: publish flattened %s: %w", path, err)
	}
	return nil
}

// ReadFlattened loads and validates the flattened record at path.
func ReadFlattened(fs posix.FS, path string) (*Flattened, error) {
	fd, err := fs.Open(path, posix.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("index: open flattened %s: %w", path, err)
	}
	defer fs.Close(fd)
	st, err := fs.Fstat(fd)
	if err != nil {
		return nil, err
	}
	data := make([]byte, st.Size)
	if err := posix.ReadFull(fs, fd, data, 0); err != nil {
		return nil, fmt.Errorf("index: read flattened %s: %w", path, err)
	}
	f, err := UnmarshalFlattened(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
