package plfs

import "sync"

// copyBufChunk is the size of a pooled copy buffer: 1 MiB amortizes
// syscall count on bulk copies (Flatten) without
// pinning multi-megabyte allocations per call site.
const copyBufChunk = 1 << 20

// copyBufPool hands out 1 MiB scratch buffers for the bulk-copy paths
// (index flattening, layout-descriptor reads). Entries
// are pointers-to-slices so Put never re-boxes the header. Use is
// always the paired idiom — the bufpool lint check flags a Get whose
// function does not also Put:
//
//	b := copyBufPool.Get().(*[]byte)
//	defer copyBufPool.Put(b)
//	buf := *b
var copyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, copyBufChunk)
		return &b
	},
}
