package posix

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestMemFSMatchesOSFS drives identical randomized operation sequences
// against MemFS and a real OS-backed FS and demands byte-identical
// observable behaviour. This is the property that lets the rest of the
// stack trust MemFS as a stand-in for a real POSIX layer.
func TestMemFSMatchesOSFS(t *testing.T) {
	osfs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	memfs := NewMemFS()

	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDifferential(t, rand.New(rand.NewSource(seed)), memfs, osfs, 400)
		})
	}
}

// runDifferential applies n random ops to both file systems through
// parallel fd tables and compares every result.
func runDifferential(t *testing.T, rng *rand.Rand, a, b FS, n int) {
	t.Helper()
	dir := fmt.Sprintf("/run%d", rng.Int63())
	if err := a.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := b.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	names := []string{"f0", "f1", "f2", "deep/f3"}
	a.Mkdir(dir+"/deep", 0o755)
	b.Mkdir(dir+"/deep", 0o755)

	type pairFD struct {
		afd, bfd int
		flags    int
	}
	var open []pairFD

	var history []string
	logOp := func(format string, args ...any) {
		history = append(history, fmt.Sprintf(format, args...))
	}
	fail := func(format string, args ...any) {
		t.Helper()
		for _, h := range history {
			t.Log(h)
		}
		t.Fatalf(format, args...)
	}
	check := func(op string, aerr, berr error) bool {
		t.Helper()
		logOp("%s -> mem=%v os=%v", op, aerr, berr)
		if (aerr == nil) != (berr == nil) {
			fail("%s: memfs err=%v osfs err=%v", op, aerr, berr)
		}
		return aerr == nil
	}

	for i := 0; i < n; i++ {
		path := dir + "/" + names[rng.Intn(len(names))]
		switch rng.Intn(10) {
		case 0: // open
			flags := []int{O_RDONLY, O_WRONLY, O_RDWR}[rng.Intn(3)]
			if rng.Intn(2) == 0 {
				flags |= O_CREAT
			}
			if rng.Intn(4) == 0 {
				flags |= O_TRUNC
			}
			if rng.Intn(4) == 0 {
				flags |= O_APPEND
			}
			afd, aerr := a.Open(path, flags, 0o644)
			bfd, berr := b.Open(path, flags, 0o644)
			if check(fmt.Sprintf("Open(%s,%#x)", path, flags), aerr, berr) {
				open = append(open, pairFD{afd, bfd, flags})
			}
		case 1: // close
			if len(open) == 0 {
				continue
			}
			k := rng.Intn(len(open))
			p := open[k]
			check(fmt.Sprintf("Close(fd=%d/%d)", p.afd, p.bfd), a.Close(p.afd), b.Close(p.bfd))
			open = append(open[:k], open[k+1:]...)
		case 2: // write
			if len(open) == 0 {
				continue
			}
			p := open[rng.Intn(len(open))]
			buf := make([]byte, rng.Intn(300))
			rng.Read(buf)
			an, aerr := a.Write(p.afd, buf)
			bn, berr := b.Write(p.bfd, buf)
			if check(fmt.Sprintf("Write(fd=%d/%d len=%d) n=%d/%d", p.afd, p.bfd, len(buf), an, bn), aerr, berr) && an != bn {
				fail("Write n: mem=%d os=%d", an, bn)
			}
		case 3: // read
			if len(open) == 0 {
				continue
			}
			p := open[rng.Intn(len(open))]
			abuf := make([]byte, rng.Intn(300))
			bbuf := make([]byte, len(abuf))
			an, aerr := a.Read(p.afd, abuf)
			bn, berr := b.Read(p.bfd, bbuf)
			if check(fmt.Sprintf("Read(fd=%d/%d len=%d) n=%d/%d", p.afd, p.bfd, len(abuf), an, bn), aerr, berr) {
				if an != bn || !bytes.Equal(abuf[:an], bbuf[:bn]) {
					fail("Read diverged: mem=%d os=%d", an, bn)
				}
			}
		case 4: // pwrite
			if len(open) == 0 {
				continue
			}
			p := open[rng.Intn(len(open))]
			if p.flags&O_APPEND != 0 {
				// pwrite-on-O_APPEND semantics differ between POSIX and
				// Linux; Go's os package refuses it outright. Not exercised.
				continue
			}
			buf := make([]byte, rng.Intn(200))
			rng.Read(buf)
			off := int64(rng.Intn(1000))
			an, aerr := a.Pwrite(p.afd, buf, off)
			bn, berr := b.Pwrite(p.bfd, buf, off)
			if check(fmt.Sprintf("Pwrite(fd=%d/%d len=%d off=%d) n=%d/%d", p.afd, p.bfd, len(buf), off, an, bn), aerr, berr) && an != bn {
				fail("Pwrite n: mem=%d os=%d", an, bn)
			}
		case 5: // pread
			if len(open) == 0 {
				continue
			}
			p := open[rng.Intn(len(open))]
			abuf := make([]byte, rng.Intn(200))
			bbuf := make([]byte, len(abuf))
			off := int64(rng.Intn(1200))
			an, aerr := a.Pread(p.afd, abuf, off)
			bn, berr := b.Pread(p.bfd, bbuf, off)
			if check(fmt.Sprintf("Pread(fd=%d/%d len=%d off=%d) n=%d/%d", p.afd, p.bfd, len(abuf), off, an, bn), aerr, berr) {
				if an != bn || !bytes.Equal(abuf[:an], bbuf[:bn]) {
					fail("Pread diverged at off %d: mem=%d os=%d", off, an, bn)
				}
			}
		case 6: // lseek
			if len(open) == 0 {
				continue
			}
			p := open[rng.Intn(len(open))]
			off := int64(rng.Intn(500))
			whence := []int{SEEK_SET, SEEK_CUR, SEEK_END}[rng.Intn(3)]
			apos, aerr := a.Lseek(p.afd, off, whence)
			bpos, berr := b.Lseek(p.bfd, off, whence)
			if check(fmt.Sprintf("Lseek(fd=%d/%d off=%d whence=%d)", p.afd, p.bfd, off, whence), aerr, berr) && apos != bpos {
				fail("Lseek pos: mem=%d os=%d", apos, bpos)
			}
		case 7: // stat
			ast, aerr := a.Stat(path)
			bst, berr := b.Stat(path)
			if check("Stat "+path, aerr, berr) {
				if ast.Size != bst.Size || ast.IsDir() != bst.IsDir() {
					fail("Stat %s: mem={%d dir=%v} os={%d dir=%v}",
						path, ast.Size, ast.IsDir(), bst.Size, bst.IsDir())
				}
			}
		case 8: // unlink
			check("Unlink "+path, a.Unlink(path), b.Unlink(path))
		case 9: // truncate
			size := int64(rng.Intn(500))
			check(fmt.Sprintf("Truncate(%s, %d)", path, size), a.Truncate(path, size), b.Truncate(path, size))
		}
	}
	for _, p := range open {
		a.Close(p.afd)
		b.Close(p.bfd)
	}

	// Final state comparison over every path.
	for _, name := range names {
		path := dir + "/" + name
		ast, aerr := a.Stat(path)
		bst, berr := b.Stat(path)
		if (aerr == nil) != (berr == nil) {
			t.Fatalf("final Stat %s: mem=%v os=%v", path, aerr, berr)
		}
		if aerr != nil {
			continue
		}
		if ast.Size != bst.Size {
			t.Fatalf("final size %s: mem=%d os=%d", path, ast.Size, bst.Size)
		}
		if !ast.IsDir() {
			amem := readAll(t, a, path, ast.Size)
			bos := readAll(t, b, path, bst.Size)
			if !bytes.Equal(amem, bos) {
				t.Fatalf("final content of %s diverged", path)
			}
		}
	}
}

func readAll(t *testing.T, fs FS, path string, size int64) []byte {
	t.Helper()
	fd, err := fs.Open(path, O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close(fd)
	buf := make([]byte, size)
	if size > 0 {
		if err := ReadFull(fs, fd, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}
