package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ldplfs/internal/posix"
	"ldplfs/internal/service/client"
)

// TestDaemonSmoke boots plfsd in-process on an ephemeral port and
// drives it with three concurrent clients across two tenants — the CI
// e2e smoke.
func TestDaemonSmoke(t *testing.T) {
	ready := make(chan string, 1)
	var stdout, stderr bytes.Buffer
	go runNotify([]string{
		"-listen", "127.0.0.1:0",
		"-tenants", "gold:0:2,batch:1:1",
	}, &stdout, &stderr, ready)
	addr := <-ready

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		i := i
		tenant := "gold"
		if i == 2 {
			tenant = "batch"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr, tenant)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			path := fmt.Sprintf("/mnt/plfs/smoke%d", i)
			payload := bytes.Repeat([]byte{byte(i + 1)}, 4096)
			fd, err := c.Open(path, posix.O_CREAT|posix.O_RDWR, 0o644)
			if err != nil {
				errs <- err
				return
			}
			if _, err := c.Pwrite(fd, payload, 0); err != nil {
				errs <- err
				return
			}
			got := make([]byte, len(payload))
			if _, err := c.Pread(fd, got, 0); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, payload) {
				errs <- fmt.Errorf("client %d read-back mismatch", i)
				return
			}
			if err := c.CloseFd(fd); err != nil {
				errs <- err
				return
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	c, err := client.Dial(addr, "gold")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "tenant:gold") {
		t.Fatalf("stats missing tenant layer:\n%s", stats)
	}
	if !strings.Contains(stdout.String(), "listening on") {
		t.Fatalf("banner missing: %q", stdout.String())
	}
}

// TestDaemonStripedStats boots plfsd over real directory trees striped
// with -backends and reads a container back through it: the striped
// composite's replica counters must be on the gateway plane the Stats
// op serves, beside the tenants'.
func TestDaemonStripedStats(t *testing.T) {
	root, b1, b2 := t.TempDir(), t.TempDir(), t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "backend"), 0o755); err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	var stdout, stderr bytes.Buffer
	go runNotify([]string{
		"-listen", "127.0.0.1:0",
		"-root", root,
		"-backends", b1 + "," + b2,
	}, &stdout, &stderr, ready)
	addr := <-ready

	c, err := client.Dial(addr, "default")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte{0x42}, 4096)
	fd, err := c.Open("/mnt/plfs/striped", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pwrite(fd, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseFd(fd); err != nil {
		t.Fatal(err)
	}
	fd, err = c.Open("/mnt/plfs/striped", posix.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := c.Pread(fd, got, 0); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read-back mismatch: %v", err)
	}
	if err := c.CloseFd(fd); err != nil {
		t.Fatal(err)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tenant:default", "replica_read_primary"} {
		if !strings.Contains(stats, want) {
			t.Fatalf("stats missing %q:\n%s", want, stats)
		}
	}
	if strings.Contains(stats, "replica_read_primary = 0\n") {
		t.Fatalf("the read-back was not counted:\n%s", stats)
	}
}

func TestParseTenants(t *testing.T) {
	tcs, err := parseTenants("gold:0:2,batch:1:1:1048576:524288, ops:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tcs) != 3 {
		t.Fatalf("parsed %d tenants", len(tcs))
	}
	if tcs[0].Name != "gold" || tcs[0].Priority != 0 || tcs[0].Weight != 2 {
		t.Fatalf("gold = %+v", tcs[0])
	}
	if tcs[1].ReadBytesPerSec != 1048576 || tcs[1].WriteBytesPerSec != 524288 {
		t.Fatalf("batch = %+v", tcs[1])
	}
	if tcs[2].Weight != 1 {
		t.Fatalf("ops default weight = %d", tcs[2].Weight)
	}
	for _, bad := range []string{"", ":1", "a:b", "a:1:2:3:4:5"} {
		if _, err := parseTenants(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-tenants", ""}, &out, &out); code == 0 {
		t.Fatal("empty tenants accepted")
	}
	if code := run([]string{"-nosuchflag"}, &out, &out); code != 2 {
		t.Fatalf("bad flag exit = %d", code)
	}
}
