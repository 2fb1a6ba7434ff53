package posix

import (
	"bytes"
	"sync"
	"testing"
)

// The PLFS read engine fans one logical read out across goroutines that
// share a cached read descriptor per data dropping. That is only sound
// if Pread is safe — and correct — under concurrent use of a single fd,
// for every backend. Run with -race in CI.
func testConcurrentPread(t *testing.T, fs FS) {
	t.Helper()
	const (
		chunk  = 4096
		chunks = 64
		fanout = 8 // goroutines per chunk, all hammering the same fd
	)
	data := make([]byte, chunk*chunks)
	for i := range data {
		data[i] = byte(i / chunk)
	}
	fd, err := fs.Open("/pread-contract", O_CREAT|O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFull(fs, fd, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}

	fd, err = fs.Open("/pread-contract", O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close(fd)

	var wg sync.WaitGroup
	errc := make(chan error, chunks*fanout)
	for c := 0; c < chunks; c++ {
		for g := 0; g < fanout; g++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				buf := make([]byte, chunk)
				if err := ReadFull(fs, fd, buf, int64(c*chunk)); err != nil {
					errc <- err
					return
				}
				want := bytes.Repeat([]byte{byte(c)}, chunk)
				if !bytes.Equal(buf, want) {
					errc <- EIO
				}
			}(c)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent pread: %v", err)
	}
}

func TestMemFSConcurrentPread(t *testing.T) {
	testConcurrentPread(t, NewMemFS())
}

func TestOSFSConcurrentPread(t *testing.T) {
	fs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testConcurrentPread(t, fs)
}

// The PLFS write engine fans one vectored write out across goroutines
// issuing positional writes to disjoint, pre-reserved ranges of a single
// descriptor — including ranges past the current EOF. That is only sound
// if concurrent Pwrites on one fd are safe and extend the file with
// zero-filled gaps, for every backend. Run with -race in CI.
func testConcurrentPwrite(t *testing.T, fs FS) {
	t.Helper()
	const (
		chunk  = 4096
		chunks = 64
	)
	fd, err := fs.Open("/pwrite-contract", O_CREAT|O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, chunks)
	for c := 0; c < chunks; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(c + 1)}, chunk)
			if _, err := WriteFull(fs, fd, buf, int64(c*chunk)); err != nil {
				errc <- err
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent pwrite: %v", err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Stat("/pwrite-contract")
	if err != nil || st.Size != chunk*chunks {
		t.Fatalf("size after concurrent pwrites = %d, %v (want %d)", st.Size, err, chunk*chunks)
	}
	fd, err = fs.Open("/pwrite-contract", O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close(fd)
	got := make([]byte, chunk)
	for c := 0; c < chunks; c++ {
		if err := ReadFull(fs, fd, got, int64(c*chunk)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(c + 1)}, chunk)) {
			t.Fatalf("chunk %d corrupted by concurrent pwrites", c)
		}
	}
}

func TestMemFSConcurrentPwrite(t *testing.T) {
	testConcurrentPwrite(t, NewMemFS())
}

func TestOSFSConcurrentPwrite(t *testing.T) {
	fs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testConcurrentPwrite(t, fs)
}
