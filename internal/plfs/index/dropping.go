package index

import (
	"encoding/binary"
	"fmt"

	"ldplfs/internal/posix"
)

// droppingHeader prefixes every index dropping: magic plus a format version.
const (
	headerSize = 16
	version    = 1
)

// DroppingHeaderSize is the on-disk length of an index dropping's header
// — what inspection tools subtract before dividing by EntrySize to count
// records without parsing.
const DroppingHeaderSize = headerSize

// writeHeader appends the dropping header to a fresh (or emptied) fd.
func writeHeader(fs posix.FS, fd int) error {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], Magic)
	binary.LittleEndian.PutUint64(hdr[8:], version)
	if _, err := fs.Write(fd, hdr[:]); err != nil {
		return fmt.Errorf("index: write header: %w", err)
	}
	return nil
}

// wholeRecords is the one size/header rule of an index dropping, shared
// by every opener (ReadDropping directly; OpenDroppingStream and
// OpenWriter via probeDropping): given the file's size and its leading
// bytes it returns how many whole records follow the header. Two states are in-flight, not corrupt, and
// read as "no more records": a trailing partial record (a group flush
// or crash mid-append) and a file still shorter than its header (created,
// header not yet written). Neither was ever covered by a successful
// sync, so ignoring them loses nothing that was promised. A full-length
// header with the wrong magic or version is corruption and stays fatal.
func wholeRecords(path string, size int64, hdr []byte) (int64, error) {
	if size < headerSize {
		return 0, nil
	}
	if got := binary.LittleEndian.Uint64(hdr[0:]); got != Magic {
		return 0, fmt.Errorf("index: dropping %s: bad magic %#x", path, got)
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != version {
		return 0, fmt.Errorf("index: dropping %s: unsupported version %d", path, got)
	}
	return (size - headerSize) / EntrySize, nil
}

// probeDropping stats the open dropping and applies wholeRecords to its
// header: the file's size and the number of whole records it holds.
func probeDropping(fs posix.FS, fd int, path string) (size, records int64, err error) {
	st, err := fs.Fstat(fd)
	if err != nil {
		return 0, 0, err
	}
	var hdr [headerSize]byte
	if st.Size >= headerSize {
		if err := posix.ReadFull(fs, fd, hdr[:], 0); err != nil {
			return 0, 0, fmt.Errorf("index: read dropping %s header: %w", path, err)
		}
	}
	records, err = wholeRecords(path, st.Size, hdr[:])
	return st.Size, records, err
}

// Writer appends index records to an index dropping file through a posix
// backend. It buffers records and flushes on Sync/Close so that a long run
// of small writes costs one appended burst, as in PLFS's buffered index.
type Writer struct {
	fs  posix.FS
	fd  int
	buf []byte
}

// NewWriter creates (or truncates) the index dropping at path and writes
// its header.
func NewWriter(fs posix.FS, path string) (*Writer, error) {
	fd, err := fs.Open(path, posix.O_CREAT|posix.O_WRONLY|posix.O_TRUNC|posix.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("index: create dropping %s: %w", path, err)
	}
	if err := writeHeader(fs, fd); err != nil {
		fs.Close(fd)
		return nil, err
	}
	return &Writer{fs: fs, fd: fd}, nil
}

// Buffered returns the number of bytes of appended records not yet
// flushed to the dropping.
func (w *Writer) Buffered() int { return len(w.buf) }

// BufferedRecords returns the number of whole records not yet flushed —
// the unit the write engine's group-flush threshold counts in.
func (w *Writer) BufferedRecords() int { return len(w.buf) / EntrySize }

// Append buffers one entry.
func (w *Writer) Append(e Entry) {
	var rec [EntrySize]byte
	e.Marshal(rec[:])
	w.buf = append(w.buf, rec[:]...)
}

// Flush appends the buffered records to the dropping without forcing
// them to stable storage (the write engine's group flush; Sync adds the
// fsync). It returns the number of bytes that reached the dropping. On a
// short write the durable prefix is dropped from the buffer, so a retry
// continues exactly where the backend stopped instead of duplicating
// record bytes and tearing the dropping.
func (w *Writer) Flush() (int, error) {
	flushed := 0
	for len(w.buf) > 0 {
		n, err := w.fs.Write(w.fd, w.buf)
		if n > 0 {
			w.buf = w.buf[:copy(w.buf, w.buf[n:])]
			flushed += n
		}
		if err != nil {
			return flushed, fmt.Errorf("index: flush: %w", err)
		}
		if n <= 0 {
			return flushed, fmt.Errorf("index: flush: zero-length write")
		}
	}
	return flushed, nil
}

// Sync flushes buffered entries to the dropping and forces them down.
func (w *Writer) Sync() error {
	if _, err := w.Flush(); err != nil {
		return err
	}
	return w.fs.Fsync(w.fd)
}

// Close flushes and closes the dropping.
func (w *Writer) Close() error {
	if err := w.Sync(); err != nil {
		w.fs.Close(w.fd)
		return err
	}
	return w.fs.Close(w.fd)
}

// OpenWriter opens an existing index dropping for appending, after
// validating its header. New records land after the existing ones. The
// in-flight states wholeRecords tolerates are repaired first, so resumed
// appends stay record-aligned instead of corrupting everything written
// after them: a trailing partial record is truncated away, and a
// sub-header file (its creator died before the header write) is emptied
// and given its header.
func OpenWriter(fs posix.FS, path string) (*Writer, error) {
	fd, err := fs.Open(path, posix.O_RDWR|posix.O_APPEND, 0)
	if err != nil {
		return nil, fmt.Errorf("index: reopen dropping %s: %w", path, err)
	}
	if err := resumeDropping(fs, fd, path); err != nil {
		fs.Close(fd)
		return nil, err
	}
	return &Writer{fs: fs, fd: fd}, nil
}

func resumeDropping(fs posix.FS, fd int, path string) error {
	size, n, err := probeDropping(fs, fd, path)
	if err != nil {
		return err
	}
	if size < headerSize {
		if err := fs.Ftruncate(fd, 0); err != nil {
			return fmt.Errorf("index: reopen dropping %s: reset sub-header file: %w", path, err)
		}
		return writeHeader(fs, fd)
	}
	if end := headerSize + n*EntrySize; end != size {
		if err := fs.Ftruncate(fd, end); err != nil {
			return fmt.Errorf("index: reopen dropping %s: trim torn tail: %w", path, err)
		}
	}
	return nil
}

// ReadDropping loads every whole entry from the index dropping at path
// (see wholeRecords for the in-flight states it reads past: the write
// engine group-flushes record batches and creates droppings header-
// last, and readers racing those windows must see the whole records,
// not fail the container). Corruption inside whole records is still
// caught by the per-record checksum.
func ReadDropping(fs posix.FS, path string) ([]Entry, error) {
	fd, err := fs.Open(path, posix.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("index: open dropping %s: %w", path, err)
	}
	defer fs.Close(fd)

	st, err := fs.Fstat(fd)
	if err != nil {
		return nil, err
	}
	data := make([]byte, st.Size)
	if err := posix.ReadFull(fs, fd, data, 0); err != nil {
		return nil, fmt.Errorf("index: read dropping %s: %w", path, err)
	}
	n, err := wholeRecords(path, st.Size, data)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, n)
	for i := range entries {
		off := headerSize + i*EntrySize
		if err := entries[i].Unmarshal(data[off : off+EntrySize]); err != nil {
			return nil, fmt.Errorf("index: dropping %s record %d: %w", path, i, err)
		}
	}
	return entries, nil
}

// WriteDropping writes a complete dropping with the given entries,
// replacing any existing file. Used when a truncate consolidates a
// container's index.
func WriteDropping(fs posix.FS, path string, entries []Entry) error {
	w, err := NewWriter(fs, path)
	if err != nil {
		return err
	}
	for _, e := range entries {
		w.Append(e)
	}
	return w.Close()
}
