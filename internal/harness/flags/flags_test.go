package flags

import (
	"flag"
	"net"
	"slices"
	"testing"

	"ldplfs/internal/core"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
	"ldplfs/internal/service"
)

func TestPlfsGroup(t *testing.T) {
	var p Plfs
	fl := flag.NewFlagSet("test", flag.ContinueOnError)
	p.Register(fl)
	// The group is the whole PLFS surface of the workload CLIs: a flag
	// added here is a knob added everywhere.
	var names []string
	fl.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if want := []string{"no-auto-flatten", "stats"}; !slices.Equal(names, want) {
		t.Fatalf("Plfs registers %v, want exactly %v", names, want)
	}
	if err := fl.Parse([]string{"-no-auto-flatten", "-stats"}); err != nil {
		t.Fatal(err)
	}

	plane := p.NewPlane()
	if plane == nil {
		t.Fatal("-stats must build a plane")
	}
	var idx plfs.IndexOptions
	var tel plfs.TelemetryOptions
	for _, o := range p.Options(plane) {
		switch v := o.(type) {
		case plfs.IndexOptions:
			idx = v
		case plfs.TelemetryOptions:
			tel = v
		default:
			t.Fatalf("unexpected option type %T", o)
		}
	}
	if want := (plfs.IndexOptions{DisableAutoFlatten: true}); idx != want {
		t.Fatalf("index group = %+v", idx)
	}
	if tel.Stats != plane {
		t.Fatal("telemetry group not rendered")
	}

	var off Plfs
	if off.NewPlane() != nil {
		t.Fatal("plane without -stats")
	}
}

func TestMPIIOGroup(t *testing.T) {
	var m MPIIO
	fl := flag.NewFlagSet("test", flag.ContinueOnError)
	m.Register(fl)
	// The group is the whole mpiio surface of the workload CLIs: ROMIO's
	// static cb_* and sieving hints, nothing that steers them at runtime.
	var names []string
	fl.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if want := []string{"cb-aggregators", "cb-buffer-size", "sieve-buffer-size"}; !slices.Equal(names, want) {
		t.Fatalf("MPIIO registers %v, want exactly %v", names, want)
	}
	if h, d := m.Hints(), mpiio.DefaultHints(); h != d {
		t.Fatalf("unset flags render %+v, want the defaults %+v", h, d)
	}
	if err := fl.Parse([]string{"-cb-buffer-size", "65536", "-cb-aggregators", "2", "-sieve-buffer-size", "1024"}); err != nil {
		t.Fatal(err)
	}
	want := mpiio.DefaultHints()
	want.CBBufferSize, want.CBAggregators, want.SieveBufferSize = 65536, 2, 1024
	if h := m.Hints(); h != want {
		t.Fatalf("hints = %+v, want %+v", h, want)
	}
}

func TestJobGroup(t *testing.T) {
	var j Job
	fl := flag.NewFlagSet("test", flag.ContinueOnError)
	j.Register(fl, 8, "ldplfs")
	if err := fl.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if j.NP != 8 || j.Method != "ldplfs" || j.PPN != 2 || j.Backends != 1 || !j.Verify {
		t.Fatalf("defaults = %+v", j)
	}
}

func TestRemoteGroup(t *testing.T) {
	var r Remote
	fl := flag.NewFlagSet("test", flag.ContinueOnError)
	r.Register(fl)
	if err := fl.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if r.Enabled() {
		t.Fatal("enabled without -remote")
	}
	if _, err := r.Dial(); err == nil {
		t.Fatal("Dial without -remote succeeded")
	}

	// Against a live loopback gateway.
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
	defer srv.Close()

	fl = flag.NewFlagSet("test", flag.ContinueOnError)
	r = Remote{}
	r.Register(fl)
	if err := fl.Parse([]string{"-remote", ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	if !r.Enabled() {
		t.Fatal("not enabled with -remote")
	}
	conn, err := r.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fd, err := conn.Open("/mnt/plfs/x", posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.CloseFd(fd); err != nil {
		t.Fatal(err)
	}
}
