package plfs

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"ldplfs/internal/posix"
)

// TestFoldedRecordMatchesMerge: the record a last close publishes from
// its writers' folds is, byte for byte, the record the streaming merge
// writes from the same droppings — over an N-1 strided container, a
// random one and one whose writers overwrite each other, with chunk
// boundaries moved so both sides cross them. The close must have read
// no dropping back, or the comparison proves nothing.
func TestFoldedRecordMatchesMerge(t *testing.T) {
	const path = "/backend/folded"
	shapes := []struct {
		name  string
		write func(t *testing.T, f *File)
	}{
		{"n-1", func(t *testing.T, f *File) {
			for b := 0; b < 40; b++ {
				for w := 0; w < 5; w++ {
					off := int64((b*5 + w) * 64)
					if _, err := f.Write(bytes.Repeat([]byte{byte(w + b)}, 64), off, uint32(w)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}},
		{"random", func(t *testing.T, f *File) {
			rng := rand.New(rand.NewPCG(1, 2))
			for i := 0; i < 300; i++ {
				w := uint32(rng.IntN(4))
				n := 1 + rng.IntN(200)
				if _, err := f.Write(bytes.Repeat([]byte{byte(i)}, n), rng.Int64N(1<<16), w); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"overlapping", func(t *testing.T, f *File) {
			for pass := 0; pass < 6; pass++ {
				for w := 0; w < 3; w++ {
					segs := []WriteSeg{
						{Off: int64(100*w + 10*pass), Data: bytes.Repeat([]byte{byte(pass)}, 150)},
						{Off: int64(1000 + 7*pass), Data: bytes.Repeat([]byte{byte(w)}, 33)},
					}
					if _, err := f.WriteV(segs, uint32(w)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			mem := posix.NewMemFS()
			if err := mem.Mkdir("/backend", 0o755); err != nil {
				t.Fatal(err)
			}
			opens := &dropOpens{FS: mem}
			p := New(opens)
			p.streamChunk = 7
			f, err := p.Open(path, posix.O_CREAT|posix.O_RDWR, 0, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			sh.write(t, f)
			opens.n.Store(0)
			if err := f.Close(0); err != nil {
				t.Fatal(err)
			}
			if n := opens.n.Load(); n != 0 {
				t.Fatalf("the last close opened index droppings %d times, want 0", n)
			}
			folded := readFile(t, mem, flattenedPath(path, 1))

			if _, err := p.DropFlattenedIndex(path); err != nil {
				t.Fatal(err)
			}
			q := New(mem)
			q.streamChunk = 5
			if _, err := q.WriteFlattenedIndex(path); err != nil {
				t.Fatal(err)
			}
			if merged := readFile(t, mem, flattenedPath(path, 1)); !bytes.Equal(folded, merged) {
				t.Fatalf("the record from folds (%d bytes) differs from the merge's (%d bytes)", len(folded), len(merged))
			}
		})
	}
}

// TestOpenhostsListingFailureMeansWriters: a listing of openhosts that
// fails with anything but ENOENT proves no writer gone. A reader then
// does not trust the flattened record, and a last closer does not
// flatten.
func TestOpenhostsListingFailureMeansWriters(t *testing.T) {
	const path = "/backend/eio"
	p, mem := newTestFS(t)
	f, err := p.Open(path, posix.O_CREAT|posix.O_RDWR, 1, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("one"), 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(1); err != nil {
		t.Fatal(err)
	}

	ffs := posix.NewFaultFS(mem)
	ffs.Inject(&posix.FaultRule{Op: posix.FaultMeta, PathContains: "/" + openhostsDir, Err: posix.EIO})
	cold := New(ffs)
	if got := readAllBytes(t, cold, path); string(got) != "one" {
		t.Fatalf("content = %q", got)
	}
	if s := cacheStats(cold); s.FlattenedBuilds != 0 {
		t.Fatalf("a reader trusted the record with openhosts unreadable: %+v", s)
	}

	w := New(ffs)
	f, err = w.Open(path, posix.O_RDWR, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("two"), 3, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(2); err != nil {
		t.Fatal(err)
	}
	if names := flattenedNames(t, p, path); len(names) != 1 || names[0] != flattenedPrefix+"1" {
		t.Fatalf("a close flattened with openhosts unreadable: root holds %v", names)
	}
}
