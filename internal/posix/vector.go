package posix

// VectorFS is the optional vectored positional-I/O capability: one
// contiguous file range moved to or from a list of buffers in a single
// backend operation, the preadv(2)/pwritev(2) shape. Backends that can
// coalesce (OSFS via the real syscalls on Linux, MemFS under one lock
// acquisition, the composing wrappers by delegation) implement it; the
// package helpers Preadv and Pwritev probe for it and fall back to a
// scalar Pread/Pwrite loop, so callers batch unconditionally and the
// capability only changes the operation count, never the bytes.
//
// Semantics: Preadv fills bufs in order from the single contiguous
// range starting at off, returning the total byte count transferred.
// Unlike raw preadv(2) the methods do not return transient short
// counts: implementations continue until every buffer is satisfied, a
// real error occurs, or (reads) EOF — so n < total with a nil error
// means EOF, exactly like a scalar Pread loop. Pwritev writes the
// buffers in order at off and returns the durable prefix with any
// error. Like Pread/Pwrite, the vectored forms carry no file-pointer
// state and must be safe to issue concurrently on one descriptor.
type VectorFS interface {
	Preadv(fd int, bufs [][]byte, off int64) (int64, error)
	Pwritev(fd int, bufs [][]byte, off int64) (int64, error)
}

// Preadv fills bufs in order from the contiguous range of fd starting
// at off, using the backend's vectored capability when it has one and a
// scalar Pread loop otherwise. It returns the number of bytes
// transferred; n < sum(len(bufs)) with a nil error means EOF.
func Preadv(fs FS, fd int, bufs [][]byte, off int64) (int64, error) {
	if v, ok := fs.(VectorFS); ok {
		return v.Preadv(fd, bufs, off)
	}
	return preadvFallback(fs, fd, bufs, off)
}

// Pwritev writes bufs in order at off, vectored when the backend can,
// as a scalar Pwrite loop otherwise. It returns the durable prefix in
// bytes; on error the prefix landed in buffer order.
func Pwritev(fs FS, fd int, bufs [][]byte, off int64) (int64, error) {
	if v, ok := fs.(VectorFS); ok {
		return v.Pwritev(fd, bufs, off)
	}
	return pwritevFallback(fs, fd, bufs, off)
}

// preadvFallback is the scalar decomposition of Preadv: one full Pread
// loop per buffer, stopping at EOF.
func preadvFallback(fs FS, fd int, bufs [][]byte, off int64) (int64, error) {
	var total int64
	for _, b := range bufs {
		got := 0
		for got < len(b) {
			n, err := fs.Pread(fd, b[got:], off+total+int64(got))
			if n > 0 {
				got += n
			}
			if err != nil {
				return total + int64(got), err
			}
			if n == 0 {
				return total + int64(got), nil // EOF
			}
		}
		total += int64(got)
	}
	return total, nil
}

// pwritevFallback is the scalar decomposition of Pwritev: one WriteFull
// per buffer.
func pwritevFallback(fs FS, fd int, bufs [][]byte, off int64) (int64, error) {
	var total int64
	for _, b := range bufs {
		put, err := WriteFull(fs, fd, b, off+total)
		total += int64(put)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// vectorLen sums the buffer lengths of one vectored request.
func vectorLen(bufs [][]byte) int64 {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	return n
}
