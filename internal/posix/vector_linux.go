//go:build linux

package posix

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// iovMax caps the iovec count of one preadv/pwritev submission — the
// kernel's IOV_MAX. Longer vectors are issued in successive syscalls,
// still far below one syscall per buffer.
const iovMax = 1024

// iovPool recycles iovec scratch arrays across vectored submissions so
// the raw-syscall path allocates nothing per call.
var iovPool = sync.Pool{New: func() any {
	s := make([]syscall.Iovec, 0, iovMax)
	return &s
}}

// shortVec is the longest vector whose iovecs live on the caller's
// stack: a dropping's header and first chunk, or a gather of a few
// extents, takes nothing from iovPool. The pool is not free for such
// reads: while every index dropping's first read took an iovMax array
// from it, n1_strided_shim's heap goal at its cold open rose from about
// 28 to 36 MB, and the open's 2.6 MB extent table landed on pages that
// were faulted in one by one (about 640 minor faults, open_ms 2.0 → 3.4
// ms); with the iovecs on the stack, neither happens.
const shortVec = 4

// Preadv implements VectorFS over the real preadv(2): the whole extent
// batch is one syscall (per iovMax window) instead of one pread per
// buffer.
func (o *OSFS) Preadv(fd int, bufs [][]byte, off int64) (int64, error) {
	h, err := o.fd(fd)
	if err != nil {
		return 0, err
	}
	n, rerr := sysReadv(h.f, bufs, off)
	return n, mapOSError(rerr)
}

// Pwritev implements VectorFS over the real pwritev(2).
func (o *OSFS) Pwritev(fd int, bufs [][]byte, off int64) (int64, error) {
	h, err := o.fd(fd)
	if err != nil {
		return 0, err
	}
	n, werr := sysWritev(h.f, bufs, off)
	return n, mapOSError(werr)
}

var _ VectorFS = (*OSFS)(nil)

// offsLoHi splits a file offset into the pos_l/pos_h register pair of
// the preadv/pwritev ABI: the low word carries the full offset on
// 64-bit (the high word shifts out in the kernel), the pair splits it
// on 32-bit.
func offsLoHi(off int64) (lo, hi uintptr) {
	return uintptr(off), uintptr(uint64(off) >> (bits.UintSize - 1) >> 1)
}

// buildIovec assembles the iovec window for the vector position (bi,
// bo): buffer index and intra-buffer offset. It reuses iov's backing
// array and returns the window plus its byte span.
func buildIovec(iov []syscall.Iovec, bufs [][]byte, bi, bo int) ([]syscall.Iovec, int64) {
	iov = iov[:0]
	var span int64
	for i := bi; i < len(bufs) && len(iov) < iovMax; i++ {
		b := bufs[i]
		if i == bi {
			b = b[bo:]
		}
		if len(b) == 0 {
			continue
		}
		var v syscall.Iovec
		v.Base = &b[0]
		v.SetLen(len(b))
		iov = append(iov, v)
		span += int64(len(b))
	}
	return iov, span
}

// advance moves the vector position (bi, bo) forward by n bytes.
func advance(bufs [][]byte, bi, bo, n int) (int, int) {
	for n > 0 && bi < len(bufs) {
		room := len(bufs[bi]) - bo
		if n < room {
			return bi, bo + n
		}
		n -= room
		bi++
		bo = 0
	}
	return bi, bo
}

// sysReadv drives preadv(2) to completion: short reads resume mid-
// vector, EINTR retries, EOF returns the partial total with a nil
// error. The descriptor is kept alive across the raw syscalls.
func sysReadv(f *os.File, bufs [][]byte, off int64) (int64, error) {
	defer runtime.KeepAlive(f)
	var stack [shortVec]syscall.Iovec
	scratch := stack[:0]
	if len(bufs) > shortVec {
		p := iovPool.Get().(*[]syscall.Iovec)
		defer iovPool.Put(p)
		scratch = (*p)[:0]
	}
	var total int64
	bi, bo := 0, 0
	for {
		iov, span := buildIovec(scratch, bufs, bi, bo)
		if span == 0 {
			return total, nil
		}
		lo, hi := offsLoHi(off + total)
		n, _, errno := syscall.Syscall6(syscall.SYS_PREADV, f.Fd(),
			uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)), lo, hi, 0)
		if errno != 0 {
			if errno == syscall.EINTR {
				continue
			}
			return total, os.NewSyscallError("preadv", errno)
		}
		if n == 0 {
			return total, nil // EOF
		}
		total += int64(n)
		bi, bo = advance(bufs, bi, bo, int(n))
	}
}

// sysWritev drives pwritev(2) to completion, returning the durable
// prefix on error.
func sysWritev(f *os.File, bufs [][]byte, off int64) (int64, error) {
	defer runtime.KeepAlive(f)
	var stack [shortVec]syscall.Iovec
	scratch := stack[:0]
	if len(bufs) > shortVec {
		p := iovPool.Get().(*[]syscall.Iovec)
		defer iovPool.Put(p)
		scratch = (*p)[:0]
	}
	var total int64
	bi, bo := 0, 0
	for {
		iov, span := buildIovec(scratch, bufs, bi, bo)
		if span == 0 {
			return total, nil
		}
		lo, hi := offsLoHi(off + total)
		n, _, errno := syscall.Syscall6(syscall.SYS_PWRITEV, f.Fd(),
			uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)), lo, hi, 0)
		if errno != 0 {
			if errno == syscall.EINTR {
				continue
			}
			return total, os.NewSyscallError("pwritev", errno)
		}
		if n == 0 {
			return total, fmt.Errorf("pwritev returned 0")
		}
		total += int64(n)
		bi, bo = advance(bufs, bi, bo, int(n))
	}
}
