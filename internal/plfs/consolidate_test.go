package plfs

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"ldplfs/internal/posix"
)

// windowStep is one operator action of a consolidation script and the
// flat-[]byte oracle of what it does to the file.
type windowStep struct {
	name string
	run  func(p *FS, path string) error
	next func(data []byte) []byte
}

// truncStep truncates to size: the oracle is cut, or zero-extended by
// the trailing hole an upward truncate leaves.
func truncStep(size int) windowStep {
	return windowStep{
		name: fmt.Sprintf("truncate(%d)", size),
		run:  func(p *FS, path string) error { return p.Truncate(path, int64(size)) },
		next: func(data []byte) []byte {
			if size <= len(data) {
				return data[:size]
			}
			return append(slices.Clip(data), make([]byte, size-len(data))...)
		},
	}
}

var compactStep = windowStep{
	name: "compact",
	run:  func(p *FS, path string) error { return p.CompactIndex(path) },
	next: func(data []byte) []byte { return data },
}

// newWindowFS pins the worker pool to one so the k-th backend op is
// the same op on every run.
func newWindowFS(backend posix.FS) *FS {
	p := New(backend)
	p.workers = 1
	return p
}

// buildWindowFile writes the 8 KiB two-writer file every script starts
// from: interleaved blocks, then two overwrites whose order only the
// timestamps record — so a consolidation that lets a stale source
// outrank its replacement shows up as wrong bytes, not just a wrong size.
func buildWindowFile(t *testing.T, backend posix.FS, path string) []byte {
	t.Helper()
	p := newWindowFS(backend)
	f, err := p.Open(path, posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	oracle := make([]byte, 8192)
	put := func(pid uint32, off, n int, fill byte) {
		data := bytes.Repeat([]byte{fill}, n)
		copy(oracle[off:], data)
		if _, err := f.Write(data, int64(off), pid); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < 8; b++ {
		put(uint32(b%2), b*1024, 1024, byte('a'+b))
	}
	put(0, 512, 1024, 'X')
	put(1, 1024, 256, 'Y')
	for pid := uint32(0); pid < 2; pid++ {
		if err := f.Close(pid); err != nil {
			t.Fatal(err)
		}
	}
	return oracle
}

// observe reads the container's bytes through a fresh instance, whose
// Stat must report exactly their length: the index is the one source
// of size, mid-operation too.
func observe(t *testing.T, where string, backend posix.FS, path string) []byte {
	t.Helper()
	p := newWindowFS(backend)
	st, err := p.Stat(path)
	if err != nil {
		t.Fatalf("%s: stat: %v", where, err)
	}
	data := readBack(t, p, path)
	if st.Size != int64(len(data)) {
		t.Fatalf("%s: Stat size = %d, but a whole-file read returns %d bytes", where, st.Size, len(data))
	}
	return data
}

// TestConsolidationWindow enumerates the window of every operation that
// replaces index droppings. For each script it fails each backend op k
// in turn — once as a lone EIO, once as the backend dying at k until
// revived — and checks the fourth tolerance rule through a fresh
// instance: an interrupted compaction changes no byte and no size; an
// interrupted truncate keeps every byte below the smaller of the two
// sizes and reports a size between them; Stat agrees with the read; and
// running the interrupted operation again reaches exactly the state an
// undisturbed run does.
func TestConsolidationWindow(t *testing.T) {
	const path = "/backend/f"
	scripts := []struct {
		name  string
		steps []windowStep
	}{
		{"truncate-down", []windowStep{truncStep(6000)}},
		{"truncate-up", []windowStep{truncStep(10000)}},
		{"compact", []windowStep{compactStep}},
		{"compact-twice", []windowStep{compactStep, compactStep}},
		{"truncate-after-compact", []windowStep{compactStep, truncStep(3000)}},
		{"compact-after-truncate-up", []windowStep{truncStep(10000), compactStep}},
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			for k := 1; ; k++ {
				reached := false
				for _, mode := range []string{"kill", "error"} {
					mem := posix.NewMemFS()
					if err := mem.Mkdir("/backend", 0o755); err != nil {
						t.Fatal(err)
					}
					state := buildWindowFile(t, mem, path)
					ff := posix.NewFaultFS(mem)
					sched := []*posix.FaultStep{{AfterOps: k, Kill: true}}
					if mode == "error" {
						sched = append(sched, &posix.FaultStep{AfterOps: k + 1, Revive: true})
					}
					ff.Schedule(sched...)

					p := newWindowFS(ff)
					failed := -1
					for i, st := range sc.steps {
						if err := st.run(p, path); err != nil {
							failed = i
							break
						}
						state = st.next(state)
					}
					reached = reached || ff.Killed()
					ff.Clear()
					where := fmt.Sprintf("%s at op %d", mode, k)
					if failed >= 0 {
						after := sc.steps[failed].next(state)
						where := where + ", interrupted " + sc.steps[failed].name
						checkBetween(t, where, observe(t, where, ff, path), state, after)
						retry := newWindowFS(ff)
						for _, st := range sc.steps[failed:] {
							if err := st.run(retry, path); err != nil {
								t.Fatalf("%s: re-running %s: %v", where, st.name, err)
							}
							state = st.next(state)
						}
					}
					where += ", script complete"
					checkBetween(t, where, observe(t, where, ff, path), state, state)
				}
				if !reached {
					if k < 10 {
						t.Fatalf("script ran only %d backend ops: the sweep is not reaching the operation", k-1)
					}
					return
				}
			}
		})
	}
}

// checkBetween asserts got lies between the states before and after one
// step: its size within the two, and every byte below the smaller size —
// which both oracles agree on — intact. (Above it a half-truncated file
// may read old bytes or zeros.)
func checkBetween(t *testing.T, where string, got, before, after []byte) {
	t.Helper()
	lo, hi := min(len(before), len(after)), max(len(before), len(after))
	if n := len(got); n < lo || n > hi {
		t.Fatalf("%s: Size() = %d, want within [%d, %d]", where, n, lo, hi)
	}
	if !bytes.Equal(got[:lo], before[:lo]) {
		t.Fatalf("%s: bytes differ from the oracle below %d", where, lo)
	}
}
