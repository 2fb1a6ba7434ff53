package client_test

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"ldplfs/internal/core"
	"ldplfs/internal/posix"
	"ldplfs/internal/service"
	"ldplfs/internal/service/client"
	"ldplfs/internal/unixtools"
)

// startGateway brings up a loopback plfsd-equivalent and returns its
// address.
func startGateway(t *testing.T) string {
	t.Helper()
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	mounts, err := core.ParseMounts("/mnt/plfs=/backend")
	if err != nil {
		t.Fatal(err)
	}
	g, err := service.NewGateway(service.Config{
		Backend: mem,
		Mounts:  mounts,
		Tenants: []service.TenantConfig{
			{Name: "gold", Priority: 0},
			{Name: "batch", Priority: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := service.NewServer(g)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func TestClientRoundTrip(t *testing.T) {
	addr := startGateway(t)
	c, err := client.Dial(addr, "gold")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const path = "/mnt/plfs/wire"
	fd, err := c.Open(path, posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("remote"), 2000)
	if n, err := c.Pwrite(fd, payload, 0); err != nil || n != len(payload) {
		t.Fatalf("Pwrite = %d, %v", n, err)
	}
	if err := c.Sync(fd); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseFd(fd); err != nil {
		t.Fatal(err)
	}

	if st, err := c.Stat(path); err != nil || st.Size != int64(len(payload)) {
		t.Fatalf("Stat = %+v, %v", st, err)
	}

	fd, err = c.Open(path, posix.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if n, err := c.Pread(fd, got, 0); err != nil || n != len(payload) {
		t.Fatalf("Pread = %d, %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back mismatch over the wire")
	}
	if st, err := c.Fstat(fd); err != nil || st.Size != int64(len(payload)) {
		t.Fatalf("Fstat = %+v, %v", st, err)
	}
	if err := c.CloseFd(fd); err != nil {
		t.Fatal(err)
	}

	if err := c.Truncate(path, 3); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.Stat(path); st.Size != 3 {
		t.Fatalf("size after truncate = %d", st.Size)
	}
	if err := c.Unlink(path); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(path); err != posix.ENOENT {
		t.Fatalf("stat after unlink: %v, want ENOENT", err)
	}
}

func TestClientErrorsCrossTheWire(t *testing.T) {
	addr := startGateway(t)
	c, err := client.Dial(addr, "gold")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Open("/mnt/plfs/absent", posix.O_RDONLY, 0); err != posix.ENOENT {
		t.Fatalf("open absent: %v, want ENOENT", err)
	}
	if err := c.CloseFd(9999); err != posix.EBADF {
		t.Fatalf("close bad fd: %v, want EBADF", err)
	}
}

func TestClientUnknownTenantRefused(t *testing.T) {
	addr := startGateway(t)
	if _, err := client.Dial(addr, "nosuch"); err == nil {
		t.Fatal("undeclared tenant connected")
	}
}

// TestThreeConcurrentClients is the loopback e2e smoke from the issue:
// three clients on two tenants write and read back distinct containers
// concurrently, then one pulls stats and a doctor report.
func TestThreeConcurrentClients(t *testing.T) {
	addr := startGateway(t)
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
			path := fmt.Sprintf("/mnt/plfs/c%d", i)
			payload := bytes.Repeat([]byte{byte('a' + i)}, 8192)
			fd, err := c.Open(path, posix.O_CREAT|posix.O_RDWR, 0o644)
			if err != nil {
				errs <- err
				return
			}
			for k := 0; k < 10; k++ {
				if _, err := c.Pwrite(fd, payload, int64(k*len(payload))); err != nil {
					errs <- err
					return
				}
			}
			got := make([]byte, len(payload))
			if _, err := c.Pread(fd, got, 3*int64(len(payload))); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, payload) {
				errs <- fmt.Errorf("client %d: read-back mismatch", i)
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
	if !strings.Contains(stats, "tenant:gold") || !strings.Contains(stats, "tenant:batch") {
		t.Fatalf("stats missing tenant layers:\n%s", stats)
	}
	report, err := c.Doctor("/mnt/plfs/c0", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "openhosts records") {
		t.Fatalf("doctor report:\n%s", report)
	}
}

// TestDispatchAdapter runs an unmodified unixtool against the remote
// gateway through the connection's posix.FS view — the ldrun -remote
// path.
func TestDispatchAdapter(t *testing.T) {
	addr := startGateway(t)
	c, err := client.Dial(addr, "gold")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d := c.FS()

	// Seed a file through the streaming write path (offset-tracked fd).
	fd, err := d.Open("/mnt/plfs/tool", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := d.Write(fd, []byte("stream-write\n")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(fd); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if _, err := unixtools.Cat(d, "/mnt/plfs/tool", &out); err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("stream-write\n", 4)
	if out.String() != want {
		t.Fatalf("cat = %q", out.String())
	}
	sum, err := unixtools.Md5sum(d, "/mnt/plfs/tool")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != 32 {
		t.Fatalf("md5 = %q", sum)
	}

	// Lseek through the view: END then read the tail.
	fd, err = d.Open("/mnt/plfs/tool", posix.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	off, err := d.Lseek(fd, -6, posix.SEEK_END)
	if err != nil || off != int64(len(want)-6) {
		t.Fatalf("Lseek = %d, %v", off, err)
	}
	tail := make([]byte, 6)
	if _, err := d.Read(fd, tail); err != nil {
		t.Fatal(err)
	}
	if string(tail) != "write\n" {
		t.Fatalf("tail = %q", tail)
	}
	if err := d.Close(fd); err != nil {
		t.Fatal(err)
	}
}
