// Package knownbad violates every invariant plfslint enforces, one
// per analyzer, plus both suppression meta-findings. The smoke tests
// run the multichecker over it and demand that each analyzer fires —
// if a future refactor quietly unwires one, the test fails.
package knownbad

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ldplfs/internal/iostats"
)

// Lock owners named like the data path's so the ranking applies.

type FS struct {
	hmu sync.RWMutex
}

type container struct {
	mu sync.RWMutex
}

type writer struct {
	mu sync.Mutex
}

// nilcollector: the PR 6 typed-nil shape.
func typedNil(p *iostats.Plane) iostats.Collector {
	return p
}

// lockorder: the PR 2 inversion shape.
func inverted(p *FS, c *container, w *writer) {
	w.mu.Lock()
	c.mu.Lock()
	p.hmu.RLock()
	p.hmu.RUnlock()
	c.mu.Unlock()
	w.mu.Unlock()
}

// errnopreserve: %v severs the errno chain.
func wrap(err error) error {
	return fmt.Errorf("open: %v", err)
}

// clockinject: wall time behind the injected clock's back.
func now() time.Time {
	return time.Now()
}

// bufpool: the PR 9 hot-path shapes — an engine hot function that
// leaks its pooled entry and allocates a payload buffer per call.
var scratch = sync.Pool{New: func() any {
	b := make([]byte, 64)
	return &b
}}

func scatterGather(n int) []byte {
	b := scratch.Get().(*[]byte)
	_ = b
	return make([]byte, n)
}

// atomicfield: mixed atomic/plain access of one variable.
var gen int64

func bump() {
	atomic.AddInt64(&gen, 1)
}

func read() int64 {
	return gen
}

// A stale ignore: no finding on this or the next line, so the driver
// reports the comment itself.
//
//plfslint:ignore nilcollector nothing to suppress here; pins the stale-ignore meta-finding
var placeholder = 0

// An undocumented suppression: the ignore silences the diagnostic but
// has no allowlist entry, so the driver surfaces it as a finding.
func undocumented(p *iostats.Plane) {
	//plfslint:ignore nilcollector undocumented on purpose; pins the allowlist meta-finding
	var c iostats.Collector = p
	_ = c
}
