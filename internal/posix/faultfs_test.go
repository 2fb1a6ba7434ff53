package posix

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestFaultFSTransparentWithoutRules(t *testing.T) {
	f := NewFaultFS(NewMemFS())
	fd, err := f.Open("/x", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(fd, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Lseek(fd, 0, SEEK_SET); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if n, err := f.Read(fd, buf); err != nil || n != 2 {
		t.Fatalf("read = %d, %v", n, err)
	}
	if err := f.Close(fd); err != nil {
		t.Fatal(err)
	}
	if f.Fired() != 0 {
		t.Fatal("rules fired with none installed")
	}
}

func TestFaultRuleAfterAndTimes(t *testing.T) {
	f := NewFaultFS(NewMemFS())
	fd, _ := f.Open("/x", O_CREAT|O_WRONLY, 0o644)
	f.Inject(&FaultRule{Op: FaultWrite, After: 2, Times: 2, Err: ENOSPC})
	results := make([]error, 6)
	for i := range results {
		_, results[i] = f.Write(fd, []byte("a"))
	}
	for i, wantErr := range []bool{false, false, true, true, false, false} {
		if (results[i] != nil) != wantErr {
			t.Fatalf("write %d: err=%v, want failing=%v", i, results[i], wantErr)
		}
	}
	if f.Fired() != 2 {
		t.Fatalf("fired %d, want 2", f.Fired())
	}
	f.Close(fd)
}

func TestFaultRulePathFilter(t *testing.T) {
	f := NewFaultFS(NewMemFS())
	f.Inject(&FaultRule{Op: FaultOpen, PathContains: "victim", Err: EACCES})
	if _, err := f.Open("/bystander", O_CREAT|O_WRONLY, 0o644); err != nil {
		t.Fatalf("bystander affected: %v", err)
	}
	if _, err := f.Open("/victim", O_CREAT|O_WRONLY, 0o644); !errors.Is(err, EACCES) {
		t.Fatalf("victim open = %v, want EACCES", err)
	}
	f.Clear()
	if _, err := f.Open("/victim", O_CREAT|O_WRONLY, 0o644); err != nil {
		t.Fatalf("after Clear: %v", err)
	}
}

func TestFaultAnyMatchesEverything(t *testing.T) {
	f := NewFaultFS(NewMemFS())
	f.Inject(&FaultRule{Op: FaultAny, Err: EIO})
	if _, err := f.Open("/a", O_CREAT|O_WRONLY, 0o644); !errors.Is(err, EIO) {
		t.Fatal("open passed under FaultAny")
	}
	if _, err := f.Stat("/a"); !errors.Is(err, EIO) {
		t.Fatal("stat passed under FaultAny")
	}
	if err := f.Mkdir("/d", 0o755); !errors.Is(err, EIO) {
		t.Fatal("mkdir passed under FaultAny")
	}
}

func TestNullFSLargeScaleWorkload(t *testing.T) {
	// A paper-scale write volume (8 GiB) through the dataless backend
	// completes quickly and tracks size exactly — the mechanism that lets
	// class D BT (136 GB) replay op-for-op.
	fs := NewNullFS()
	fd, err := fs.Open("/huge", O_CREAT|O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 8 << 20
	buf := make([]byte, chunk)
	var want int64
	for i := 0; i < 1024; i++ { // 8 GiB
		n, err := fs.Write(fd, buf)
		if err != nil {
			t.Fatal(err)
		}
		want += int64(n)
	}
	st, _ := fs.Fstat(fd)
	if st.Size != want || want != 8<<30 {
		t.Fatalf("size = %d, want %d", st.Size, want)
	}
	fs.Close(fd)
}

func TestNullFSSemanticsMatchMemFS(t *testing.T) {
	// Namespace behaviour (not payload) must match MemFS exactly: same
	// random op sequence, same errors and sizes.
	null := NewNullFS()
	mem := NewMemFS()
	type op struct {
		f    func(FS) error
		name string
	}
	ops := []op{
		{func(f FS) error { return f.Mkdir("/d", 0o755) }, "mkdir"},
		{func(f FS) error { return f.Mkdir("/d", 0o755) }, "mkdir-again"},
		{func(f FS) error {
			fd, err := f.Open("/d/f", O_CREAT|O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			f.Write(fd, make([]byte, 123))
			return f.Close(fd)
		}, "create+write"},
		{func(f FS) error { return f.Truncate("/d/f", 1000) }, "truncate-up"},
		{func(f FS) error { return f.Rename("/d/f", "/d/g") }, "rename"},
		{func(f FS) error { return f.Unlink("/d/missing") }, "unlink-missing"},
		{func(f FS) error { return f.Rmdir("/d") }, "rmdir-nonempty"},
	}
	for _, o := range ops {
		errN := o.f(null)
		errM := o.f(mem)
		if (errN == nil) != (errM == nil) {
			t.Fatalf("%s: null=%v mem=%v", o.name, errN, errM)
		}
	}
	stN, _ := null.Stat("/d/g")
	stM, _ := mem.Stat("/d/g")
	if stN.Size != stM.Size {
		t.Fatalf("size diverged: null=%d mem=%d", stN.Size, stM.Size)
	}
}

func TestFaultFSServiceTimeSerializes(t *testing.T) {
	f := NewFaultFS(NewMemFS())
	fd, err := f.Open("/svc", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFull(f, fd, make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}

	const d = 4 * time.Millisecond
	f.SetServiceTime(FaultRead, d)
	const ops = 6
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8)
			if _, err := f.Pread(fd, buf, 0); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// The single service slot serializes the preads: total time is at
	// least ops x d no matter how many goroutines issue them.
	if got := time.Since(start); got < ops*d {
		t.Fatalf("concurrent preads took %v, want >= %v (service slot not serialized)", got, ops*d)
	}
	// Writes are a different class: unaffected. Issue 2*ops of them
	// concurrently — if they were wrongly subject to the service slot
	// they would serialize to at least 2*ops*d; finishing well under
	// that proves they bypassed it, with enough slack that a scheduler
	// pause cannot fail a correct implementation.
	concurrent := func(op func() error) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < 2*ops; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := op(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	if got := concurrent(func() error { _, err := WriteFull(f, fd, make([]byte, 8), 0); return err }); got >= 2*ops*d {
		t.Fatalf("%d writes took %v under a read service time (wrongly serialized?)", 2*ops, got)
	}
	// Disabling restores full speed.
	f.SetServiceTime(FaultRead, 0)
	if got := concurrent(func() error { return ReadFull(f, fd, make([]byte, 8), 0) }); got >= 2*ops*d {
		t.Fatalf("%d reads took %v after disabling service time (still serialized?)", 2*ops, got)
	}
	f.Close(fd)
}

// TestFaultFSKillRevive pins whole-backend failure: every op (except
// Close) fails with EIO while killed, and Revive restores service with
// pre-kill data intact.
func TestFaultFSKillRevive(t *testing.T) {
	f := NewFaultFS(NewMemFS())
	fd, err := f.Open("/x", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Pwrite(fd, []byte("before"), 0); err != nil {
		t.Fatal(err)
	}
	f.Kill()
	if !f.Killed() {
		t.Fatal("Killed() false after Kill")
	}
	if _, err := f.Pread(fd, make([]byte, 1), 0); !errors.Is(err, EIO) {
		t.Fatalf("pread on killed backend = %v, want EIO", err)
	}
	if _, err := f.Open("/y", O_CREAT|O_WRONLY, 0o644); !errors.Is(err, EIO) {
		t.Fatalf("open on killed backend = %v, want EIO", err)
	}
	if _, err := f.Stat("/x"); !errors.Is(err, EIO) {
		t.Fatalf("stat on killed backend = %v, want EIO", err)
	}
	if err := f.Close(fd); err != nil {
		t.Fatalf("close must survive a kill: %v", err)
	}
	f.Revive()
	buf := make([]byte, 6)
	fd2, err := f.Open("/x", O_RDONLY, 0)
	if err != nil {
		t.Fatalf("open after revive: %v", err)
	}
	if err := ReadFull(f, fd2, buf, 0); err != nil || string(buf) != "before" {
		t.Fatalf("pre-kill data lost: %q, %v", buf, err)
	}
	f.Close(fd2)
}

// TestFaultFSScheduleOps pins the deterministic op-count schedule: a
// kill fires exactly after the configured operation, a later step
// revives, and replaying the same op sequence reproduces the same
// failure pattern (no wall clock involved).
func TestFaultFSScheduleOps(t *testing.T) {
	run := func() []bool {
		f := NewFaultFS(NewMemFS())
		fd, err := f.Open("/x", O_CREAT|O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Schedule(
			&FaultStep{AfterOps: 3, Op: FaultWrite, Kill: true},
			&FaultStep{AfterOps: 5, Op: FaultWrite, Revive: true},
		)
		var outcomes []bool
		for i := 0; i < 7; i++ {
			_, err := f.Pwrite(fd, []byte{byte(i)}, int64(i))
			outcomes = append(outcomes, err == nil)
		}
		f.Close(fd)
		return outcomes
	}
	got := run()
	// Writes 1-2 succeed; write 3 reaches the threshold and is the first
	// casualty (the step fires atomically with the op that reaches it);
	// write 5 reaches the revive threshold and completes; 6-7 succeed.
	want := []bool{true, true, false, false, true, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d: ok=%v, want %v (all: %v)", i+1, got[i], want[i], got)
		}
	}
	again := run()
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("schedule not deterministic across runs: %v vs %v", got, again)
		}
	}
}

// TestFaultFSClearRevives pins that Clear resets kill state and
// schedules.
func TestFaultFSClearRevives(t *testing.T) {
	f := NewFaultFS(NewMemFS())
	f.Kill()
	f.Schedule(&FaultStep{AfterOps: 1, Kill: true})
	f.Clear()
	if f.Killed() {
		t.Fatal("Clear did not revive")
	}
	if _, err := f.Open("/x", O_CREAT|O_WRONLY, 0o644); err != nil {
		t.Fatalf("op after Clear: %v", err)
	}
}

// TestFaultFSPartialWriteRules pins the short-write-then-error shape:
// a write rule with Partial lets the first Partial bytes land in the
// inner FS before the injected error surfaces, clamped to the request,
// on both the streaming and positional write paths.
func TestFaultFSPartialWriteRules(t *testing.T) {
	f := NewFaultFS(NewMemFS())
	fd, err := f.Open("/p", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}

	f.Inject(&FaultRule{Op: FaultWrite, Err: ENOSPC, Partial: 3, Times: 1})
	if n, err := f.Write(fd, []byte("abcdef")); n != 3 || !errors.Is(err, ENOSPC) {
		t.Fatalf("partial Write = %d, %v; want 3, ENOSPC", n, err)
	}

	// Partial larger than the request clamps to the request.
	f.Inject(&FaultRule{Op: FaultWrite, Err: ENOSPC, Partial: 100, Times: 1})
	if n, err := f.Pwrite(fd, []byte("XY"), 0); n != 2 || !errors.Is(err, ENOSPC) {
		t.Fatalf("clamped Pwrite = %d, %v; want 2, ENOSPC", n, err)
	}

	// Zero Partial fails the whole op: nothing lands.
	f.Inject(&FaultRule{Op: FaultWrite, Err: EIO, Times: 1})
	if n, err := f.Pwrite(fd, []byte("ZZZZ"), 0); n != 0 || !errors.Is(err, EIO) {
		t.Fatalf("whole-op Pwrite = %d, %v; want 0, EIO", n, err)
	}

	// The surviving bytes are exactly the partial prefixes: "XYc".
	got := make([]byte, 8)
	n, err := f.Pread(fd, got, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:n]) != "XYc" {
		t.Fatalf("file contents after partial writes = %q, want %q", got[:n], "XYc")
	}
	if err := f.Close(fd); err != nil {
		t.Fatal(err)
	}
}

// TestFaultFSOpClassRules drives a rule through every fd-based op class —
// read, sync and meta — pinning which class each method checks.
func TestFaultFSOpClassRules(t *testing.T) {
	f := NewFaultFS(NewMemFS())
	fd, err := f.Open("/cls", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(fd, []byte("data")); err != nil {
		t.Fatal(err)
	}

	f.Inject(&FaultRule{Op: FaultRead, Err: EIO, Times: 1})
	if _, err := f.Read(fd, make([]byte, 4)); !errors.Is(err, EIO) {
		t.Fatalf("Read under read rule = %v, want EIO", err)
	}
	f.Inject(&FaultRule{Op: FaultSync, Err: EIO, Times: 1})
	if err := f.Fsync(fd); !errors.Is(err, EIO) {
		t.Fatalf("Fsync under sync rule = %v, want EIO", err)
	}
	f.Inject(&FaultRule{Op: FaultMeta, Err: EIO, Times: 2})
	if err := f.Ftruncate(fd, 2); !errors.Is(err, EIO) {
		t.Fatalf("Ftruncate under meta rule = %v, want EIO", err)
	}
	if _, err := f.Fstat(fd); !errors.Is(err, EIO) {
		t.Fatalf("Fstat under meta rule = %v, want EIO", err)
	}

	// Rules exhausted: every op recovers, and the streaming pointer
	// never advanced on the failed Read.
	if off, err := f.Lseek(fd, 0, SEEK_CUR); err != nil || off != 4 {
		t.Fatalf("Lseek after failed read = %d, %v; want 4", off, err)
	}
	if err := f.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	if st, err := f.Fstat(fd); err != nil || st.Size != 4 {
		t.Fatalf("Fstat after rules drained = %+v, %v", st, err)
	}
	if err := f.Close(fd); err != nil {
		t.Fatal(err)
	}
}
