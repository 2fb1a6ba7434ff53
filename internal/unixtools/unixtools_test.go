package unixtools

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ldplfs/internal/core"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// env builds a process with LDPLFS loaded over /mnt/plfs -> /backend.
func env(t *testing.T) (posix.FS, *posix.MemFS) {
	t.Helper()
	mem := posix.NewMemFS()
	for _, dir := range []string{"/backend", "/home"} {
		if err := mem.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	d, err := core.New(mem, core.Config{
		Mounts: []core.Mount{{Point: "/mnt/plfs", Backend: "/backend"}},
		Pid:    7,
		Plfs:   plfs.New(mem),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, mem
}

// writeVia writes content to path through d.
func writeVia(t *testing.T, d posix.FS, path string, content []byte) {
	t.Helper()
	fd, err := d.Open(path, posix.O_CREAT|posix.O_WRONLY|posix.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w := 0
	for w < len(content) {
		n, err := d.Write(fd, content[w:])
		if err != nil {
			t.Fatal(err)
		}
		w += n
	}
	if err := d.Close(fd); err != nil {
		t.Fatal(err)
	}
}

func randomContent(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, n)
	rng.Read(buf)
	return buf
}

func TestCpPlfsToUnix(t *testing.T) {
	d, mem := env(t)
	content := randomContent(3<<20+17, 1) // >1 dropping read, odd size
	writeVia(t, d, "/mnt/plfs/data.bin", content)

	n, err := Cp(d, "/mnt/plfs/data.bin", "/home/copy.bin")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(content)) {
		t.Fatalf("cp moved %d bytes, want %d", n, len(content))
	}
	// The copy is a plain file with identical bytes (checked via raw FS).
	fd, err := mem.Open("/home/copy.bin", posix.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(content))
	if err := posix.ReadFull(mem, fd, got, 0); err != nil {
		t.Fatal(err)
	}
	mem.Close(fd)
	if !bytes.Equal(got, content) {
		t.Fatal("cp out of a container corrupted bytes")
	}
}

func TestCpUnixToPlfs(t *testing.T) {
	d, _ := env(t)
	content := randomContent(1<<20, 2)
	writeVia(t, d, "/home/src.bin", content)

	if _, err := Cp(d, "/home/src.bin", "/mnt/plfs/dst.bin"); err != nil {
		t.Fatal(err)
	}
	// Read it back through the shim.
	sum, err := Md5sum(d, "/mnt/plfs/dst.bin")
	if err != nil {
		t.Fatal(err)
	}
	want := md5.Sum(content)
	if sum != hex.EncodeToString(want[:]) {
		t.Fatal("round-trip digest mismatch")
	}
}

func TestCatStreamsContainer(t *testing.T) {
	d, _ := env(t)
	content := []byte(strings.Repeat("streaming plfs bytes\n", 10000))
	writeVia(t, d, "/mnt/plfs/log.txt", content)

	var out bytes.Buffer
	n, err := Cat(d, "/mnt/plfs/log.txt", &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(content)) || !bytes.Equal(out.Bytes(), content) {
		t.Fatalf("cat produced %d bytes, want %d", n, len(content))
	}
}

func TestGrepFindsLinesAcrossBufferBoundaries(t *testing.T) {
	d, _ := env(t)
	var sb strings.Builder
	wantLines := []int{}
	lineNo := 1
	for sb.Len() < 3*StreamBufSize {
		if lineNo%997 == 0 {
			sb.WriteString(fmt.Sprintf("line %d contains the NEEDLE marker\n", lineNo))
			wantLines = append(wantLines, lineNo)
		} else {
			sb.WriteString(fmt.Sprintf("line %d is ordinary filler text\n", lineNo))
		}
		lineNo++
	}
	// Final line without trailing newline, also matching.
	sb.WriteString("last line NEEDLE no newline")
	wantLines = append(wantLines, lineNo)

	writeVia(t, d, "/mnt/plfs/big.txt", []byte(sb.String()))
	matches, err := Grep(d, "NEEDLE", "/mnt/plfs/big.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != len(wantLines) {
		t.Fatalf("grep found %d matches, want %d", len(matches), len(wantLines))
	}
	for i, m := range matches {
		if m.LineNo != wantLines[i] {
			t.Fatalf("match %d at line %d, want %d", i, m.LineNo, wantLines[i])
		}
		if !strings.Contains(m.Line, "NEEDLE") {
			t.Fatalf("non-matching line returned: %q", m.Line)
		}
	}
}

func TestMd5sumMatchesDirectDigest(t *testing.T) {
	d, _ := env(t)
	content := randomContent(2<<20+5, 3)
	writeVia(t, d, "/mnt/plfs/sum.bin", content)
	got, err := Md5sum(d, "/mnt/plfs/sum.bin")
	if err != nil {
		t.Fatal(err)
	}
	want := md5.Sum(content)
	if got != hex.EncodeToString(want[:]) {
		t.Fatalf("md5 = %s", got)
	}
}

func TestToolsIdenticalOnPlainAndPlfs(t *testing.T) {
	// The same tool over the same bytes must behave identically whether
	// the file is a container or a plain file — Table II's premise.
	d, _ := env(t)
	content := []byte(strings.Repeat("alpha beta gamma\n", 5000) + "needle line\n")
	writeVia(t, d, "/mnt/plfs/a.txt", content)
	writeVia(t, d, "/home/a.txt", content)

	sumP, err := Md5sum(d, "/mnt/plfs/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	sumU, err := Md5sum(d, "/home/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if sumP != sumU {
		t.Fatal("digests differ between plfs and unix file")
	}
	gp, err := Grep(d, "needle", "/mnt/plfs/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	gu, err := Grep(d, "needle", "/home/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(gp) != 1 || len(gu) != 1 || gp[0] != gu[0] {
		t.Fatalf("grep diverged: %v vs %v", gp, gu)
	}
}

func TestLsShowsContainersAsFiles(t *testing.T) {
	d, _ := env(t)
	writeVia(t, d, "/mnt/plfs/chk.h5", []byte("x"))
	d.Mkdir("/mnt/plfs/realdir", 0o755)
	names, err := Ls(d, "/mnt/plfs")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "chk.h5") || strings.Contains(joined, "chk.h5/") {
		t.Fatalf("container misrendered in ls: %v", names)
	}
	if !strings.Contains(joined, "realdir/") {
		t.Fatalf("directory misrendered in ls: %v", names)
	}
}

func TestToolErrorsOnMissingFiles(t *testing.T) {
	d, _ := env(t)
	if _, err := Cat(d, "/mnt/plfs/absent", &bytes.Buffer{}); err == nil {
		t.Fatal("cat of missing file succeeded")
	}
	if _, err := Cp(d, "/mnt/plfs/absent", "/home/x"); err == nil {
		t.Fatal("cp of missing file succeeded")
	}
	if _, err := Md5sum(d, "/home/absent"); err == nil {
		t.Fatal("md5sum of missing file succeeded")
	}
	if _, err := Ls(d, "/mnt/plfs/absent"); err == nil {
		t.Fatal("ls of missing dir succeeded")
	}
}
