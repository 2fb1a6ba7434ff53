package plfs_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ldplfs/internal/core"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// sizeRig is one process image over a store: a PLFS instance and the
// shim preloaded onto it, mounting /mnt/plfs onto /backend.
type sizeRig struct {
	p *plfs.FS
	d *posix.Dispatch
}

func newSizeRig(t *testing.T, store posix.FS) sizeRig {
	t.Helper()
	p := plfs.New(store)
	d := posix.NewDispatch(store)
	if _, err := core.Preload(d, core.Config{
		Mounts: []core.Mount{{Point: "/mnt/plfs", Backend: "/backend"}},
		Pid:    42,
		Plfs:   p,
	}); err != nil {
		t.Fatal(err)
	}
	return sizeRig{p: p, d: d}
}

// agree asserts that every way of asking a container its size — path
// Stat, a handle's Size, SEEK_END through the shim, a whole-file read —
// gives len(want), and that the read returns want, zero-filled tail and
// all.
func (r sizeRig) agree(t *testing.T, name string, want []byte) {
	t.Helper()
	const path = "/backend/f"
	size := int64(len(want))
	st, err := r.p.Stat(path)
	if err != nil || st.Size != size {
		t.Errorf("%s: Stat size = %d, %v; want %d", name, st.Size, err, size)
	}
	f, err := r.p.Open(path, posix.O_RDONLY, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(7)
	if got, err := f.Size(); err != nil || got != size {
		t.Errorf("%s: File.Size = %d, %v; want %d", name, got, err, size)
	}
	buf := make([]byte, size+4096)
	n, err := f.Read(buf, 0)
	if err != nil || !bytes.Equal(buf[:n], want) {
		t.Errorf("%s: whole-file read = %d bytes, %v; want %d bytes as written, zero-filled past the data", name, n, err, size)
	}
	fd, err := r.d.Open("/mnt/plfs/f", posix.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.d.Close(fd)
	if got, err := r.d.Lseek(fd, 0, posix.SEEK_END); err != nil || got != size {
		t.Errorf("%s: SEEK_END through the shim = %d, %v; want %d", name, got, err, size)
	}
}

// write lands data at off for pid through a fresh handle, closing it
// when close is set.
func (r sizeRig) write(t *testing.T, pid uint32, data []byte, off int64, close bool) *plfs.File {
	t.Helper()
	f, err := r.p.Open("/backend/f", posix.O_CREAT|posix.O_WRONLY, pid, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data, off, pid); err != nil {
		t.Fatal(err)
	}
	if close {
		if err := f.Close(pid); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// zeroExtend returns data grown to size with zeros.
func zeroExtend(data []byte, size int) []byte {
	return append(bytes.Clone(data), make([]byte, size-len(data))...)
}

// TestSizeAgreesEverywhere pins one size per container: the index is its
// only source, so a trailing hole left by an upward or into-a-hole
// truncate, and records still buffered in the instance, show the same
// everywhere — in Stat, File.Size, SEEK_END and a read — over one MemFS
// and over a mod-3 StripedFS.
func TestSizeAgreesEverywhere(t *testing.T) {
	a, b := bytes.Repeat([]byte{'a'}, 300), bytes.Repeat([]byte{'b'}, 300)
	ab := append(bytes.Clone(a), b...)
	rows := []struct {
		name string
		run  func(t *testing.T, store posix.FS)
	}{
		{"buffered-writes-two-handles", func(t *testing.T, store posix.FS) {
			r := newSizeRig(t, store)
			f1 := r.write(t, 1, a, 0, false)
			f2 := r.write(t, 2, b, 300, false)
			r.agree(t, "before any close", ab)
			f1.Close(1)
			f2.Close(2)
		}},
		{"truncate-up-by-path-fd-open", func(t *testing.T, store posix.FS) {
			r := newSizeRig(t, store)
			fd, err := r.d.Open("/mnt/plfs/f", posix.O_CREAT|posix.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.d.Write(fd, ab); err != nil {
				t.Fatal(err)
			}
			if err := r.p.Truncate("/backend/f", 2000); err != nil {
				t.Fatal(err)
			}
			r.agree(t, "fd open", zeroExtend(ab, 2000))
			r.d.Close(fd)
			r.agree(t, "fd closed", zeroExtend(ab, 2000))
		}},
		{"ftruncate-up-new-file", func(t *testing.T, store posix.FS) {
			r := newSizeRig(t, store)
			fd, err := r.d.Open("/mnt/plfs/f", posix.O_CREAT|posix.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.d.Ftruncate(fd, 1000); err != nil {
				t.Fatal(err)
			}
			r.agree(t, "no byte written", make([]byte, 1000))
			r.d.Close(fd)
		}},
		{"truncate-up-fresh-instance", func(t *testing.T, store posix.FS) {
			r := newSizeRig(t, store)
			r.write(t, 1, ab, 0, true)
			if err := r.p.Truncate("/backend/f", 2000); err != nil {
				t.Fatal(err)
			}
			newSizeRig(t, store).agree(t, "fresh instance", zeroExtend(ab, 2000))
		}},
		{"truncate-down-into-hole", func(t *testing.T, store posix.FS) {
			r := newSizeRig(t, store)
			r.write(t, 1, a[:100], 0, true)
			r.write(t, 2, b[:100], 200, true)
			if err := r.p.Truncate("/backend/f", 150); err != nil {
				t.Fatal(err)
			}
			want := zeroExtend(a[:100], 150)
			r.agree(t, "same instance", want)
			newSizeRig(t, store).agree(t, "fresh instance", want)
		}},
		{"compact-after-truncate-up", func(t *testing.T, store posix.FS) {
			r := newSizeRig(t, store)
			r.write(t, 1, ab, 0, true)
			if err := r.p.Truncate("/backend/f", 2000); err != nil {
				t.Fatal(err)
			}
			if err := r.p.CompactIndex("/backend/f"); err != nil {
				t.Fatal(err)
			}
			newSizeRig(t, store).agree(t, "fresh instance", zeroExtend(ab, 2000))
		}},
		{"flatten-after-truncate-up", func(t *testing.T, store posix.FS) {
			r := newSizeRig(t, store)
			r.write(t, 1, ab, 0, true)
			if err := r.p.Truncate("/backend/f", 2000); err != nil {
				t.Fatal(err)
			}
			if err := r.p.Flatten("/backend/f", "/backend/flat"); err != nil {
				t.Fatal(err)
			}
			st, err := store.Stat("/backend/flat")
			if err != nil || st.Size != 2000 {
				t.Fatalf("flattened copy: size %d, %v; want 2000", st.Size, err)
			}
			got := make([]byte, 2000)
			fd, err := store.Open("/backend/flat", posix.O_RDONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close(fd)
			if err := posix.ReadFull(store, fd, got, 0); err != nil || !bytes.Equal(got, zeroExtend(ab, 2000)) {
				t.Fatalf("flattened copy differs from the container: %v", err)
			}
		}},
	}
	for _, st := range []struct {
		name     string
		backends int
	}{{"memfs", 1}, {"mod-3", 3}} {
		for _, row := range rows {
			t.Run(fmt.Sprintf("%s/%s", st.name, row.name), func(t *testing.T) {
				var store posix.FS = posix.NewMemFS()
				if st.backends > 1 {
					mems := make([]posix.FS, st.backends)
					for i := range mems {
						mems[i] = posix.NewMemFS()
					}
					store = posix.NewStripedFS(mems...)
				}
				if err := store.Mkdir("/backend", 0o755); err != nil {
					t.Fatal(err)
				}
				row.run(t, store)
			})
		}
	}
}

// TestStatDuringWrites runs path Stat, which flushes the instance's
// buffered records, against writers appending through their own
// handles: every size it reports lies on the way to the final one and
// never shrinks.
func TestStatDuringWrites(t *testing.T) {
	const writers, blocks, block = 4, 64, 512
	store := posix.NewMemFS()
	if err := store.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	p := plfs.New(store)
	files := make([]*plfs.File, writers)
	for w := range files {
		f, err := p.Open("/backend/f", posix.O_CREAT|posix.O_WRONLY, uint32(w), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		files[w] = f
	}
	var wg sync.WaitGroup
	for w, f := range files {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('a' + w)}, block)
			for b := 0; b < blocks; b++ {
				if _, err := f.Write(payload, int64((b*writers+w)*block), uint32(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	const total = writers * blocks * block
	var last int64
	for stop := false; !stop; {
		select {
		case <-done:
			stop = true
		default:
		}
		st, err := p.Stat("/backend/f")
		if err != nil {
			t.Fatal(err)
		}
		if st.Size < last || st.Size > total {
			t.Fatalf("Stat size %d after %d, final %d", st.Size, last, total)
		}
		last = st.Size
	}
	if last != total {
		t.Fatalf("Stat after the writes = %d, want %d", last, total)
	}
	for w, f := range files {
		if err := f.Close(uint32(w)); err != nil {
			t.Fatal(err)
		}
	}
}
