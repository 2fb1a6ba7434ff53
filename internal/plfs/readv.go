package plfs

import (
	"fmt"

	"ldplfs/internal/iostats"
	"ldplfs/internal/posix"
)

// ReadSeg is one segment of a vectored read: a logical offset and the
// destination slice its bytes land in.
type ReadSeg struct {
	Off int64
	Buf []byte
}

// ReadV fills every segment from the container in one pass — the read
// twin of WriteV. The index is resolved once for the whole vector, all
// segments' extents join a single scatter-gather plan, and the batched
// engine coalesces physically-contiguous extents across segment
// boundaries, so a strided vector costs the same backend ops as one
// covering read.
//
// Segments must be ascending and disjoint. Bytes past EOF zero-fill
// their destinations; the return value counts only bytes below EOF. On
// error, the bytes of every segment range below the first failing
// logical offset are valid, mirroring File.Read's prefix contract.
func (f *File) ReadV(segs []ReadSeg) (int64, error) {
	start := f.fs.opStart()
	n, err := f.readV(segs)
	f.fs.observeOp(iostats.Read, n, start, err)
	return n, err
}

func (f *File) readV(segs []ReadSeg) (int64, error) {
	if f.flags&posix.O_ACCMODE == posix.O_WRONLY {
		return 0, posix.EBADF
	}
	last := int64(-1)
	for _, s := range segs {
		if s.Off < 0 {
			return 0, posix.EINVAL
		}
		if s.Off < last {
			return 0, fmt.Errorf("plfs: readv segments not ascending at offset %d", s.Off)
		}
		last = s.Off + int64(len(s.Buf))
	}
	if len(segs) == 0 {
		return 0, nil
	}
	index, err := f.readIndex()
	if err != nil {
		return 0, err
	}
	return f.fs.scatterGather(f, segs, index)
}
