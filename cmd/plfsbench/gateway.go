package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldplfs/internal/core"
	"ldplfs/internal/iostats"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
	"ldplfs/internal/service"
	"ldplfs/internal/service/client"
)

// gwRig runs gateway_mixed: an in-process plfsd (gateway + server) over
// an OSFS backend, one tenant, two client connections on in-memory
// pipes. A writer streams checkpoints while a reader preads a
// container written at set-up, so one plfs instance serves writes
// beside reads through the wire protocol and the QoS stage.
type gwRig struct {
	e      *env
	tr     *tracer
	root   string
	bare   posix.FS // around the gateway: checks and what the checkpoints cost
	admin  *plfs.FS
	gw     *service.Gateway
	srv    *service.Server
	served chan struct{}
	wconn  *client.Conn
	rconn  *client.Conn
	baseFD int
	order  []int // shuffled block numbers of the base container
	next   int
	lat    [2]lats
	rbuf   []byte
	prev   []string // last cycle's checkpoint, unlinked by the next
}

const tenant = "bench"

func newGateway(e *env, tr *tracer) (instance, error) {
	sz := e.sz
	root, err := e.freshOSRoot()
	if err != nil {
		return nil, err
	}
	bare, err := posix.NewOSFS(root)
	if err != nil {
		return nil, err
	}
	r := &gwRig{e: e, tr: tr, root: root, bare: bare, admin: plfs.New(bare), served: make(chan struct{}),
		rbuf: make([]byte, sz.gwBlock)}
	backend, err := e.osBackend(root)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// One wrapper under the tenant's shared plfs instance: both
		// sessions reach it concurrently, hence a shared lane.
		backend = &spanFS{inner: backend, tr: tr, layer: lPosix, lane: sharedLane(0)}
	}
	r.gw, err = service.NewGateway(service.Config{
		Backend: backend,
		Mounts:  []core.Mount{{Point: mountPoint, Backend: storeDir}},
		Tenants: []service.TenantConfig{{Name: tenant}},
		Plane:   iostats.NewPlane(),
	})
	if err != nil {
		return nil, err
	}
	ln := newPipeListener()
	r.srv = service.NewServer(r.gw)
	go func() {
		defer close(r.served)
		r.srv.Serve(ln) // returns when close() closes the listener
	}()
	for _, c := range []**client.Conn{&r.wconn, &r.rconn} {
		nc, err := ln.dial()
		if err != nil {
			r.close()
			return nil, err
		}
		if *c, err = client.New(nc, tenant); err != nil {
			nc.Close()
			r.close()
			return nil, err
		}
	}

	// The container the reader works on, written through the gateway.
	base := mountPoint + "/base"
	fd, err := r.wconn.Open(base, posix.O_CREAT|posix.O_WRONLY, 0o644)
	if err != nil {
		r.close()
		return nil, err
	}
	for b := 0; b < sz.gwBaseBlocks; b++ {
		off := int64(b) * int64(sz.gwBlock)
		if n, err := r.wconn.Pwrite(fd, e.gen.at(off, sz.gwBlock), off); err != nil || n != sz.gwBlock {
			r.close()
			return nil, fmt.Errorf("writing %s: n=%d err=%v", base, n, err)
		}
	}
	if err := r.wconn.Sync(fd); err != nil {
		r.close()
		return nil, err
	}
	if err := r.wconn.CloseFd(fd); err != nil {
		r.close()
		return nil, err
	}
	if r.baseFD, err = r.rconn.Open(base, posix.O_RDONLY, 0); err != nil {
		r.close()
		return nil, err
	}
	if _, err := r.rconn.Pread(r.baseFD, r.rbuf, 0); err != nil {
		r.close()
		return nil, err
	}
	r.order = rand.New(rand.NewSource(e.seed)).Perm(sz.gwBaseBlocks)
	r.lat[0].w = make([]int32, 0, sz.gwBlocks)
	r.lat[1].r = make([]int32, 0, 1<<16)
	return r, nil
}

// pipeListener is the gateway's transport: every dial hands the server
// one end of an in-memory net.Pipe. The wire protocol, its framing and
// copies are all there; the kernel's loopback stack is not. The contract
// keeps the benchmark inside its checkout, and on the two-core reference
// box loopback TCP made the gateway's rates swing about four times as
// much from run to run as the same script over a pipe (±13 % against
// ±3 % in alternating runs), up to 28 % between two sets of ten runs.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (r *gwRig) close() {
	if r.wconn != nil {
		r.wconn.Close()
	}
	if r.rconn != nil {
		r.rconn.Close()
	}
	r.srv.Close()
	<-r.served
	os.RemoveAll(r.root)
}

// tenantOps reads the tenant's operation and error totals.
func (r *gwRig) tenantOps() (ops, errs float64) {
	ls := r.gw.Tenant(tenant).Layer()
	for op := iostats.Op(0); op < iostats.NumOps; op++ {
		ops += float64(ls.OpCount(op))
		errs += float64(ls.OpErrors(op))
	}
	return ops, errs
}

// span records a service-layer span around one client call of the
// writer's connection. The two hot loops record theirs inline: a closure
// per call there would allocate inside the region whose allocations are
// being counted.
func (r *gwRig) span(op opKind, call func() error) error {
	t := r.tr.now()
	err := call()
	r.tr.add(lService, op, 0, t, 0, 0, err)
	return err
}

// ckptFiles is how many containers make up one checkpoint. There are
// two so that a cycle can take both cold opens: the tenant's plfs
// instance builds a container's index once, so each open needs a
// container it has not read yet.
const ckptFiles = 2

func (r *gwRig) cycle(k int) (*cycleOut, error) {
	t0 := time.Now()
	sz, g, tr := r.e.sz, r.e.gen, r.tr
	c := &cycleOut{lanes: 2, layer: map[string]float64{}}
	var fail failCount
	c0 := snapshotReadcache(r.gw.Plane())
	ops0, errs0 := r.tenantOps()
	r.lat[0].reset()
	r.lat[1].reset()
	var names [ckptFiles]string
	for i := range names {
		names[i] = fmt.Sprintf("/ckpt.%d.%d", k, i)
	}
	fileBlocks := sz.gwBlocks / ckptFiles
	fileBytes := int64(fileBlocks) * int64(sz.gwBlock)

	// Timed mixed phase: the writer's whole checkpoint script beside the
	// reader, which stops when the writer is done.
	tr.setPhase(phWrite)
	var done atomic.Bool
	var readBytes int64
	d := c.m.timed(func() {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // writer: per file create, strided pwrites (even blocks, then odd), sync, close; then unlink the previous checkpoint
			defer wg.Done()
			defer done.Store(true)
			l := &r.lat[0]
			for _, name := range names {
				var fd int
				err := r.span(opOpen, func() (err error) {
					fd, err = r.wconn.Open(mountPoint+name, posix.O_CREAT|posix.O_WRONLY, 0o644)
					return err
				})
				if !fail.check(err == nil) {
					return
				}
				for pass := 0; pass < 2; pass++ {
					for b := pass; b < fileBlocks; b += 2 {
						off := int64(b) * int64(sz.gwBlock)
						w0 := time.Now()
						t := tr.now()
						n, err := r.wconn.Pwrite(fd, g.at(off, sz.gwBlock), off)
						tr.add(lService, opWrite, 0, t, n, 1, err)
						l.w = append(l.w, since32(w0))
						fail.check(err == nil && n == sz.gwBlock)
					}
				}
				fail.check(r.span(opSync, func() error { return r.wconn.Sync(fd) }) == nil)
				fail.check(r.span(opClose, func() error { return r.wconn.CloseFd(fd) }) == nil)
			}
			for _, old := range r.prev {
				fail.check(r.span(opMeta, func() error { return r.wconn.Unlink(mountPoint + old) }) == nil)
			}
		}()
		go func() { // reader: shuffled block preads over the base container
			defer wg.Done()
			l := &r.lat[1]
			for !done.Load() {
				off := int64(r.order[r.next%len(r.order)]) * int64(sz.gwBlock)
				r.next++
				r0 := time.Now()
				t := tr.now()
				n, err := r.rconn.Pread(r.baseFD, r.rbuf, off)
				tr.add(lService, opRead, 1, t, n, 1, err)
				l.r = append(l.r, since32(r0))
				fail.check(err == nil && n == len(r.rbuf) && g.endsOK(r.rbuf, off))
				readBytes += int64(n)
			}
		}()
		wg.Wait()
	})
	ckptBytes := ckptFiles * fileBytes
	c.writeMBps, c.readMBps = mbps(ckptBytes, d), mbps(readBytes, d)
	c.ops += int64(len(r.lat[0].w) + len(r.lat[1].r))
	c.userBytes = ckptBytes + readBytes

	// Cold opens through the gateway, open to first byte: file 0 as it
	// was closed, file 1 after its flattened record is dropped.
	err := coldOpens(tr, c, r.admin, storeDir+names[0], storeDir+names[1], func(container string) (time.Duration, error) {
		path := mountPoint + strings.TrimPrefix(container, storeDir)
		return c.m.timed(func() {
			var fd int
			err := r.span(opOpen, func() (err error) {
				fd, err = r.wconn.Open(path, posix.O_RDONLY, 0)
				return err
			})
			if !fail.check(err == nil) {
				return
			}
			var n int
			err = r.span(opRead, func() (err error) {
				n, err = r.wconn.Pread(fd, r.rbuf, 0)
				return err
			})
			fail.check(err == nil && n == len(r.rbuf) && g.endsOK(r.rbuf, 0))
			fail.check(r.span(opClose, func() error { return r.wconn.CloseFd(fd) }) == nil)
		}), nil
	})
	if err != nil {
		return nil, err
	}

	// Untimed: the checkpoint's bytes as they lie on the backend, and
	// what they cost there.
	tr.setPhase(phSetup)
	vbuf := make([]byte, maxIO)
	var total, index int64
	for _, name := range names {
		f, err := r.admin.Open(storeDir+name, posix.O_RDONLY, 0, 0)
		if err != nil {
			return nil, err
		}
		for off := int64(0); off < fileBytes; off += maxIO {
			n := int(min(maxIO, fileBytes-off))
			got, err := f.Read(vbuf[:n], off)
			fail.check(err == nil && got == n && g.fullOK(vbuf[:n], off))
		}
		fail.check(f.Close(0) == nil)
		t, i, err := treeBytes(r.bare, storeDir+name)
		if err != nil {
			return nil, err
		}
		total, index = total+t, index+i
	}
	c.spaceAmp = ratio(float64(total), float64(ckptBytes))
	c.layer["index.B_per_user_MB"] = ratio(float64(index), float64(ckptBytes)/1e6)
	ops1, errs1 := r.tenantOps()
	c.layer["service.tenant_ops"], c.layer["service.tenant_errors"] = ops1-ops0, errs1-errs0
	readcacheDelta(c.layer, r.gw.Plane(), c0)
	r.prev = names[:]
	c.wlat = mergeLats(r.lat[:], func(l *lats) []int32 { return l.w })
	c.rlat = mergeLats(r.lat[:], func(l *lats) []int32 { return l.r })
	c.attempted, c.failed = fail.totals()
	c.total = time.Since(t0)
	return c, nil
}

func (r *gwRig) extras(map[string]float64, func(string) float64) error { return nil }
