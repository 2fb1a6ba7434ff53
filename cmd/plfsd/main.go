// Command plfsd is the multi-tenant PLFS gateway daemon: it mounts
// container trees over a backing store and serves concurrent clients
// over the length-prefixed wire protocol of internal/service, with
// per-tenant QoS (token-bucket rate caps, priority admission) enforced
// in the data path and per-tenant telemetry on the iostats plane.
//
//	plfsd -listen :7725 -root /tmp/store
//	plfsd -listen :7725 -root /tmp/store -backends /tmp/b1,/tmp/b2 \
//	      -tenants 'gold:0:2,batch:1:1:8388608' -governor
//
// Tenant specs are name:priority[:weight[:readBps[:writeBps]]], comma
// separated; priority 0 is served strictly first under contention and
// byte rates are token-bucket caps (0 = unlimited). Without -tenants a
// single unlimited tenant "default" is declared. Clients (the workload
// CLIs with -remote, or plfsctl -remote stats/doctor) name their
// tenant in the connection hello.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"

	"ldplfs/internal/core"
	"ldplfs/internal/iostats"
	"ldplfs/internal/posix"
	"ldplfs/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one plfsd invocation — split from main so the e2e tests
// can drive the daemon in-process. When ready is non-nil it receives
// the bound listener address once accepting.
func run(argv []string, stdout, stderr io.Writer) int {
	return runNotify(argv, stdout, stderr, nil)
}

func runNotify(argv []string, stdout, stderr io.Writer, ready chan<- string) int {
	fl := flag.NewFlagSet("plfsd", flag.ContinueOnError)
	fl.SetOutput(stderr)
	listen := fl.String("listen", "127.0.0.1:7725", "address to listen on")
	root := fl.String("root", "", "host directory backing the store (empty = in-memory store)")
	backends := fl.String("backends", "", "comma-separated extra host directories the containers' droppings stripe across")
	mnt := fl.String("mnt", "/mnt/plfs=/backend", "mount spec (point=backend[,point=backend])")
	tenants := fl.String("tenants", "default:0", "tenant specs name:priority[:weight[:readBps[:writeBps]]], comma separated")
	inflight := fl.Int("inflight", 64, "concurrently executing operations across all tenants")
	governor := fl.Bool("governor", false, "enable the QoS governor: throttle background tenants when priority-0 demand rises")
	if err := fl.Parse(argv); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "plfsd: "+format+"\n", a...)
		return 1
	}

	// One plane for the gateway and the striped composite under it, so
	// `plfsctl -remote stats` shows the replica counters beside the
	// tenants'.
	plane := iostats.NewPlane()
	store, err := buildStore(*root, *backends, plane)
	if err != nil {
		return fail("%v", err)
	}
	mounts, err := core.ParseMounts(*mnt)
	if err != nil {
		return fail("%v", err)
	}
	tcs, err := parseTenants(*tenants)
	if err != nil {
		return fail("%v", err)
	}

	g, err := service.NewGateway(service.Config{
		Backend:     store,
		Mounts:      mounts,
		Tenants:     tcs,
		MaxInflight: *inflight,
		Plane:       plane,
		Governor:    *governor,
	})
	if err != nil {
		return fail("%v", err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail("listen %s: %v", *listen, err)
	}
	fmt.Fprintf(stdout, "plfsd: listening on %s (%d tenants, inflight %d)\n", ln.Addr(), len(tcs), *inflight)
	if ready != nil {
		ready <- ln.Addr().String()
	}
	srv := service.NewServer(g)
	if err := srv.Serve(ln); err != nil {
		// Serve always exits with the listener's close error; a torn
		// down listener is the normal shutdown path.
		fmt.Fprintf(stderr, "plfsd: %v\n", err)
	}
	return 0
}

// buildStore assembles the backing FS: OS-backed (optionally striped
// over extra roots, the composite counting on stats) or a fresh
// in-memory store for demos and tests.
func buildStore(root, backends string, stats *iostats.Plane) (posix.FS, error) {
	if root == "" {
		mem := posix.NewMemFS()
		if err := mem.Mkdir("/backend", 0o755); err != nil {
			return nil, err
		}
		return mem, nil
	}
	osfs, err := posix.NewOSFS(root)
	if err != nil {
		return nil, fmt.Errorf("root %s: %w", root, err)
	}
	return posix.NewStripedRoots(osfs, backends, "", stats)
}

// parseTenants decodes the -tenants spec.
func parseTenants(spec string) ([]service.TenantConfig, error) {
	var out []service.TenantConfig
	for _, s := range strings.Split(spec, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		parts := strings.Split(s, ":")
		if parts[0] == "" {
			return nil, fmt.Errorf("tenant spec %q has no name", s)
		}
		tc := service.TenantConfig{Name: parts[0], Weight: 1}
		fields := []*int64{nil, nil, nil, nil}
		var pri, weight int64
		var rd, wr int64
		fields[0], fields[1], fields[2], fields[3] = &pri, &weight, &rd, &wr
		for i, p := range parts[1:] {
			if i >= len(fields) {
				return nil, fmt.Errorf("tenant spec %q has too many fields", s)
			}
			v, err := strconv.ParseInt(p, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("tenant spec %q: %w", s, err)
			}
			*fields[i] = v
		}
		tc.Priority = int(pri)
		if weight > 0 {
			tc.Weight = int(weight)
		}
		tc.ReadBytesPerSec = rd
		tc.WriteBytesPerSec = wr
		out = append(out, tc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tenants declared")
	}
	return out, nil
}
