package harness

import (
	"bytes"
	"net"
	"testing"

	"ldplfs/internal/core"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/posix"
	"ldplfs/internal/service"
	"ldplfs/internal/service/client"
)

type testDialer struct {
	addr string
}

func (d *testDialer) Enabled() bool { return d.addr != "" }
func (d *testDialer) Dial() (*client.Conn, error) {
	return client.Dial(d.addr, "default")
}

func startRemoteGateway(t *testing.T) string {
	t.Helper()
	mem := posix.NewMemFS()
	if err := mem.Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	mounts, err := core.ParseMounts(MountPoint + "=/backend")
	if err != nil {
		t.Fatal(err)
	}
	g, err := service.NewGateway(service.Config{
		Backend: mem,
		Mounts:  mounts,
		Tenants: []service.TenantConfig{{Name: "default"}},
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

func TestRemoteDriverRoundTrip(t *testing.T) {
	addr := startRemoteGateway(t)
	d, pathFor, err := RankDriver(&testDialer{addr: addr}, "ldplfs", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "ufs" {
		t.Fatalf("driver %q", d.Name())
	}
	path := pathFor("ckpt")

	f, err := d.Open(path, mpiio.ModeCreate|mpiio.ModeRdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("rank0"), 4000)
	if n, err := f.PwriteAt(payload, 0); err != nil || n != len(payload) {
		t.Fatalf("PwriteAt = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if size, err := f.Size(); err != nil || size != int64(len(payload)) {
		t.Fatalf("Size = %d, %v", size, err)
	}
	got := make([]byte, len(payload))
	if n, err := f.PreadAt(got, 0); err != nil || n != len(payload) {
		t.Fatalf("PreadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("remote read-back mismatch")
	}
	// Short read at EOF: ask past the end.
	tail := make([]byte, 64)
	if n, err := f.PreadAt(tail, int64(len(payload))-32); err != nil || n != 32 {
		t.Fatalf("short PreadAt = %d, %v", n, err)
	}
	if err := f.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if size, _ := f.Size(); size != 10 {
		t.Fatalf("size after truncate = %d", size)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(path); err != nil {
		t.Fatal(err)
	}
}

func TestRankDriverLocalFallback(t *testing.T) {
	mem := posix.NewMemFS()
	if err := mem.Mkdir(BackendDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, rd := range []RemoteDialer{nil, &testDialer{}} {
		d, pathFor, err := RankDriver(rd, "ldplfs", mem, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d.Name() != "ufs" {
			t.Fatalf("local fallback: driver %q, want the ldplfs method's ufs", d.Name())
		}
		if pathFor("x") == "" {
			t.Fatal("empty path")
		}
	}
}
