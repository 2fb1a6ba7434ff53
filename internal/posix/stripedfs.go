package posix

import (
	"errors"
	gopath "path"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldplfs/internal/iostats"
)

// StripedFS composes N backends into one FS, the multi-backend layout
// PLFS uses to aggregate bandwidth across file servers: a logical file's
// droppings fan out over independent stores instead of funnelling
// through one.
//
// Placement is delegated to a Layout (see layout.go) and is purely
// path-based, so every instance over the same backend list agrees
// without coordination. Each path has an ordered replica set of
// Layout.Width() backends, primary first:
//
//   - A path containing a hostdir component ("hostdir.K") has primary
//     K mod N — hostdirs, and hence data and index droppings, spread
//     deterministically across all backends.
//   - Every other path (container marker, version, meta/, openhosts/,
//     plain files and directories) has primary 0, the canonical
//     backend.
//
// One replica loop serves every width: writes fan out to every live
// replica, reads serve from the primary and fail over in replica order
// — or are hedged against the next replica after a deadline — and a
// backend failure degrades the file to its surviving replicas.
// Divergence introduced by degraded writes is repaired offline by
// plfsctl doctor (see internal/plfs's replication scanner). Mod-N is the
// width-1 case: its sole owner has nothing to fail over to, so the loop
// is a pass-through and every error comes back exactly as the backend
// returned it. The package doc states the three rules the loop obeys
// (failure budget, liveVerdict, last replica stays live).
//
// Directory structure is mirrored so each backend can hold its share of
// hostdirs: creating a canonical directory creates it on every backend
// (shadow copies are created with parents, EEXIST-tolerant), removing or
// renaming one removes or renames it everywhere, and listing one merges
// the per-backend listings. A container written with one backend list
// must be read with the same list, exactly as a PLFS mount must keep its
// backend configuration stable.
//
// File descriptors are scoped to the composite and translated to the
// owning backend(s), so StripedFS satisfies the full FS contract —
// including concurrent Pread/Pwrite safety, which it inherits from the
// backends.
type StripedFS struct {
	backends []FS
	layout   Layout
	ropts    ReplicaOptions

	// Replica data-path counters, registered on layer "posix" when a
	// collector is wired (standalone otherwise — Counter is nil-safe).
	readPrimary   *iostats.Counter
	readFailover  *iostats.Counter
	readHedged    *iostats.Counter
	writeDegraded *iostats.Counter

	mu     sync.Mutex
	fds    map[int]*stripedFD
	nextFD int
}

// ReplicaOptions tunes the replica data path of a StripedFS. The zero
// value disables hedging and telemetry.
type ReplicaOptions struct {
	// HedgeDeadline races a read against the next replica when the
	// primary has not answered within the deadline — the classic
	// tail-latency hedge against a straggling backend. Zero disables
	// hedging; reads then fail over only on error. Callers typically
	// derive the deadline from the backends' known service time (e.g.
	// a small multiple of the FaultFS per-op service time). A width-1
	// layout has no second replica to race, so the deadline is ignored.
	HedgeDeadline time.Duration

	// HedgeTimer injects the hedge trigger for deterministic tests:
	// given the deadline it returns the channel whose receipt launches
	// the hedge. Nil uses the wall clock (time.After).
	HedgeTimer func(time.Duration) <-chan time.Time

	// Stats registers the replica read/write counters on layer "posix"
	// of the collector. Nil keeps standalone (invisible) counters.
	Stats iostats.Collector
}

// stripedFD is one composite descriptor: the path it was opened under
// and its ordered replica set.
type stripedFD struct {
	path string
	reps []replica // primary first
}

// replica is one member of a descriptor's replica set. Its state is
// atomic so the data path takes no per-descriptor lock.
type replica struct {
	b    int          // backend index
	fd   atomic.Int64 // backend descriptor; -1 = not opened (lazy, or the open failed)
	dead atomic.Bool  // disabled: another replica served an op this one failed
}

// open returns r's backend descriptor, or -1 when r is disabled or was
// never opened.
func (r *replica) open() int {
	if r.dead.Load() {
		return -1
	}
	return int(r.fd.Load())
}

// retire disables every replica ahead of i and reports how many were
// live until now. It is called when replica i has just served an op:
// each replica ahead of it failed that op or was already out. Being the
// only way a replica is disabled, it keeps the third StripedFS rule — a
// replica dies only when another served in its stead, so the last live
// one never does.
func (e *stripedFD) retire(i int) (n int64) {
	for j := range e.reps[:i] {
		if e.reps[j].dead.CompareAndSwap(false, true) {
			n++
		}
	}
	return n
}

// NewStripedFS composes backends into one striped FS under the mod-N
// layout. Backend 0 is the canonical backend. At least one backend is
// required; with exactly one, the composite is a pass-through.
func NewStripedFS(backends ...FS) *StripedFS {
	return NewLayoutFS(ModNLayout{}, ReplicaOptions{}, backends...)
}

// NewLayoutFS composes backends under an explicit layout (nil means
// ModNLayout); ropts governs the replica data path.
func NewLayoutFS(layout Layout, ropts ReplicaOptions, backends ...FS) *StripedFS {
	if len(backends) == 0 {
		panic("posix: NewStripedFS needs at least one backend")
	}
	if layout == nil {
		layout = ModNLayout{}
	}
	s := &StripedFS{
		backends: slices.Clone(backends),
		layout:   layout,
		ropts:    ropts,
		fds:      make(map[int]*stripedFD),
		nextFD:   3,
	}
	if s.LayoutWidth() == 1 {
		s.ropts.HedgeDeadline = 0 // no second replica to race
	}
	var layer *iostats.LayerStats
	if ropts.Stats != nil {
		layer = ropts.Stats.Layer("posix")
	}
	s.readPrimary = layer.Counter("replica_read_primary")
	s.readFailover = layer.Counter("replica_read_failover")
	s.readHedged = layer.Counter("replica_read_hedged")
	s.writeDegraded = layer.Counter("replica_write_degraded")
	return s
}

// NumBackends returns the number of composed backends.
func (s *StripedFS) NumBackends() int { return len(s.backends) }

// Backends returns the composed backends (index 0 is canonical).
func (s *StripedFS) Backends() []FS { return slices.Clone(s.backends) }

// Layout returns the placement layout.
func (s *StripedFS) Layout() Layout { return s.layout }

// LayoutWidth returns the effective replica count per path.
func (s *StripedFS) LayoutWidth() int { return min(s.layout.Width(), len(s.backends)) }

// ReplicasFor returns the ordered replica set owning path.
func (s *StripedFS) ReplicasFor(path string) []int {
	return s.layout.Replicas(path, len(s.backends))
}

// hostdirComponent returns the first "hostdir.*" component of path, or "".
func hostdirComponent(path string) string {
	for _, comp := range strings.Split(gopath.Clean("/"+path), "/") {
		if strings.HasPrefix(comp, "hostdir.") {
			return comp
		}
	}
	return ""
}

// BackendFor returns the index of the backend holding the primary copy
// of path: hostdir.K routes to K mod N, everything else to 0 —
// identical across layouts, so every instance agrees on where the
// authoritative copy lives.
func (s *StripedFS) BackendFor(path string) int {
	return primaryIndex(path, len(s.backends))
}

// routed reports whether path is owned by the hostdir placement rule
// (it contains a hostdir component) rather than the canonical rule.
func routed(path string) bool { return hostdirComponent(path) != "" }

// MkdirAll creates path and any missing parents on b, tolerating
// existing directories — used to materialise the mirrored directory
// skeleton on shadow backends, and by the replication repairer to
// rebuild a revived backend's tree. The final component is created with
// mode; intermediate parents (whose original modes are unknown here)
// default to 0o755, as os.MkdirAll does.
func MkdirAll(b FS, path string, mode uint32) error {
	clean := gopath.Clean("/" + path)
	if clean == "/" {
		return nil
	}
	comps := strings.Split(clean[1:], "/")
	var prefix string
	var lastErr error
	for i, comp := range comps {
		m := uint32(0o755)
		if i == len(comps)-1 {
			m = mode
		}
		prefix += "/" + comp
		lastErr = b.Mkdir(prefix, m)
		if lastErr != nil && !errors.Is(lastErr, EEXIST) {
			return lastErr
		}
	}
	if errors.Is(lastErr, EEXIST) {
		return nil
	}
	return lastErr
}

// track registers a descriptor entry and returns the composite fd.
func (s *StripedFS) track(e *stripedFD) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfd := s.nextFD
	s.nextFD++
	s.fds[cfd] = e
	return cfd
}

// entry translates a composite fd to its descriptor entry.
func (s *StripedFS) entry(fd int) (*stripedFD, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.fds[fd]
	if !ok {
		return nil, EBADF
	}
	return e, nil
}

// openOn opens path on backend b. A create under a hostdir rebuilds
// missing parent directories first (a container adopted mid-stream, a
// mirror that raced, or a revived replica whose skeleton is gone); a
// canonical path's missing parent is the caller's ENOENT.
func (s *StripedFS) openOn(b int, path string, flags int, mode uint32) (int, error) {
	fd, err := s.backends[b].Open(path, flags, mode)
	if errors.Is(err, ENOENT) && flags&O_CREAT != 0 && routed(path) {
		if merr := MkdirAll(s.backends[b], gopath.Dir(gopath.Clean("/"+path)), 0o755); merr != nil {
			return -1, merr
		}
		fd, err = s.backends[b].Open(path, flags, mode)
	}
	return fd, err
}

// Open implements FS. A write-mode open fans out to every replica
// (succeeding while at least one answers; the rest start disabled, for
// the doctor to heal) and a read-only open takes the first replica that
// answers, leaving the rest to open lazily on failover. On total
// failure the error is chosen by liveVerdict.
func (s *StripedFS) Open(path string, flags int, mode uint32) (int, error) {
	owners := s.ReplicasFor(path)
	e := &stripedFD{path: path, reps: make([]replica, len(owners))}
	readOnly := flags&O_ACCMODE == O_RDONLY
	opened := 0
	var verdict error
	for i, b := range owners {
		r := &e.reps[i]
		r.b = b
		r.fd.Store(-1)
		if readOnly && opened > 0 {
			continue
		}
		fd, err := s.openOn(b, path, flags, mode)
		if err != nil {
			r.dead.Store(true)
			verdict = liveVerdict(verdict, err)
			continue
		}
		r.fd.Store(int64(fd))
		opened++
	}
	if opened == 0 {
		return -1, verdict
	}
	if !readOnly && opened < len(owners) {
		s.writeDegraded.Add(1)
	}
	return s.track(e), nil
}

// Close implements FS: every replica descriptor is released; the first
// error (if any) is reported.
func (s *StripedFS) Close(fd int) error {
	s.mu.Lock()
	e, ok := s.fds[fd]
	delete(s.fds, fd)
	s.mu.Unlock()
	if !ok {
		return EBADF
	}
	var firstErr error
	for i := range e.reps {
		r := &e.reps[i]
		if bfd := r.fd.Swap(-1); bfd >= 0 {
			if err := s.backends[r.b].Close(int(bfd)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// readable returns an open backend descriptor for replica r, opening it
// read-only on first use (the lazy failover open). Racing openers are
// reconciled: the loser's descriptor is closed.
func (s *StripedFS) readable(e *stripedFD, r *replica) (int, error) {
	if fd := r.fd.Load(); fd >= 0 {
		return int(fd), nil
	}
	fd, err := s.backends[r.b].Open(e.path, O_RDONLY, 0)
	if err != nil {
		return -1, err
	}
	if !r.fd.CompareAndSwap(-1, int64(fd)) {
		_ = s.backends[r.b].Close(fd) // lost the race; the winner's descriptor serves
		return int(r.fd.Load()), nil
	}
	return fd, nil
}

// fanOut applies op to every open replica of e — the write side of the
// replica loop. The primary-most success is the result, and a replica
// that failed while another succeeded is disabled (a degraded write the
// doctor later heals). When every replica fails none is disabled and the
// primary-most failure comes back exactly as its backend returned it,
// count included — which is all a sole owner (mod-N) ever sees.
func fanOut[N int | int64](s *StripedFS, e *stripedFD, op func(b FS, bfd int) (N, error)) (N, error) {
	var n N
	var firstErr error
	served := false
	for i := range e.reps {
		r := &e.reps[i]
		bfd := r.open()
		if bfd < 0 {
			continue
		}
		rn, err := op(s.backends[r.b], bfd)
		switch {
		case err == nil && !served:
			n, served = rn, true
			if lost := e.retire(i); lost > 0 {
				s.writeDegraded.Add(lost)
			}
		case err == nil:
		case served:
			r.dead.Store(true)
			s.writeDegraded.Add(1)
		case firstErr == nil:
			n, firstErr = rn, err
		}
	}
	if served {
		return n, nil
	}
	if firstErr == nil {
		firstErr = EIO // no replica left open
	}
	return n, firstErr
}

// serve runs op on the first replica of e that answers, in replica
// order — the read side of the replica loop — and returns its result
// with the index that served (-1 on failure). With lazy set, replicas
// not yet opened are opened read-only on demand; pointer I/O passes
// false, since a fresh descriptor would not share the file position.
// Replicas that failed ahead of the one that served are retired; on
// total failure none is, and the primary-most failure comes back as its
// backend returned it.
func serve[T any](s *StripedFS, e *stripedFD, lazy bool, op func(b FS, bfd int) (T, error)) (T, int, error) {
	var first T
	var firstErr error
	for i := range e.reps {
		r := &e.reps[i]
		if r.dead.Load() || (!lazy && r.fd.Load() < 0) {
			continue
		}
		var v T
		bfd, err := s.readable(e, r)
		if err == nil {
			if v, err = op(s.backends[r.b], bfd); err == nil {
				e.retire(i)
				return v, i, nil
			}
		}
		if firstErr == nil {
			first, firstErr = v, err
		}
	}
	if firstErr == nil {
		firstErr = EIO // no replica left to ask
	}
	return first, -1, firstErr
}

// countRead records which replica served a positional read.
func (s *StripedFS) countRead(i int) {
	switch {
	case i == 0:
		s.readPrimary.Add(1)
	case i > 0:
		s.readFailover.Add(1)
	}
}

// Read implements FS: served from the first live replica, after which
// the others' file pointers are advanced to match, keeping the replica
// set interchangeable for subsequent pointer I/O.
func (s *StripedFS) Read(fd int, p []byte) (int, error) {
	e, err := s.entry(fd)
	if err != nil {
		return 0, err
	}
	n, i, err := serve(s, e, false, func(b FS, bfd int) (int, error) { return b.Read(bfd, p) })
	if err != nil {
		return n, err
	}
	for j := i + 1; j < len(e.reps); j++ {
		r := &e.reps[j]
		if bfd := r.open(); bfd >= 0 {
			if _, serr := s.backends[r.b].Lseek(bfd, int64(n), SEEK_CUR); serr != nil {
				r.dead.Store(true)
			}
		}
	}
	return n, nil
}

// Write implements FS.
func (s *StripedFS) Write(fd int, p []byte) (int, error) {
	e, err := s.entry(fd)
	if err != nil {
		return 0, err
	}
	return fanOut(s, e, func(b FS, bfd int) (int, error) { return b.Write(bfd, p) })
}

// Pread implements FS: served from the primary, failing over in replica
// order; with a hedge deadline configured, a slow primary is raced
// against the next replica and the first answer wins.
func (s *StripedFS) Pread(fd int, p []byte, off int64) (int, error) {
	e, err := s.entry(fd)
	if err != nil {
		return 0, err
	}
	if s.ropts.HedgeDeadline > 0 {
		return s.hedgedPread(e, p, off)
	}
	n, i, err := serve(s, e, true, func(b FS, bfd int) (int, error) { return b.Pread(bfd, p, off) })
	s.countRead(i)
	return n, err
}

// Preadv implements VectorFS: the whole vector is served by one replica,
// failing over exactly like Pread. Under a hedge deadline the vector
// degrades to per-buffer hedged reads — the hedge races private buffers
// per request, and its deterministic tests count those requests, so
// hedging keeps the scalar shape.
func (s *StripedFS) Preadv(fd int, bufs [][]byte, off int64) (int64, error) {
	e, err := s.entry(fd)
	if err != nil {
		return 0, err
	}
	if s.ropts.HedgeDeadline > 0 {
		var total int64
		for _, b := range bufs {
			n, err := s.hedgedPread(e, b, off+total)
			total += int64(n)
			if err != nil {
				return total, err
			}
			if n < len(b) {
				return total, nil // EOF
			}
		}
		return total, nil
	}
	n, i, err := serve(s, e, true, func(b FS, bfd int) (int64, error) { return Preadv(b, bfd, bufs, off) })
	s.countRead(i)
	return n, err
}

// hedgeTimer returns the channel that triggers a hedge after d.
func (s *StripedFS) hedgeTimer(d time.Duration) <-chan time.Time {
	if s.ropts.HedgeTimer != nil {
		return s.ropts.HedgeTimer(d)
	}
	return time.After(d)
}

// hedgedPread races replicas: the primary read is launched, and if it
// has not answered by the hedge deadline the next replica is launched
// too; the first successful answer wins. Each racer reads into a
// private buffer so a late loser never scribbles on the caller's
// buffer. Errors fail over to further replicas immediately, and — as in
// serve — the replicas that failed are disabled only once another has
// answered.
func (s *StripedFS) hedgedPread(e *stripedFD, p []byte, off int64) (int, error) {
	type result struct {
		idx int
		n   int
		err error
		buf []byte
	}
	ch := make(chan result, len(e.reps))
	var firstErr error
	var failed []int
	next := 0
	inflight := 0
	launch := func() {
		for next < len(e.reps) {
			i := next
			next++
			r := &e.reps[i]
			if r.dead.Load() {
				continue
			}
			bfd, err := s.readable(e, r)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				failed = append(failed, i)
				continue
			}
			inflight++
			go func() {
				buf := make([]byte, len(p))
				n, err := s.backends[r.b].Pread(bfd, buf, off)
				ch <- result{idx: i, n: n, err: err, buf: buf}
			}()
			return
		}
	}
	launch()
	timer := s.hedgeTimer(s.ropts.HedgeDeadline)
	for inflight > 0 {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				copy(p, r.buf[:r.n])
				for _, j := range failed {
					e.reps[j].dead.Store(true)
				}
				s.countRead(r.idx)
				return r.n, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			failed = append(failed, r.idx)
			launch()
		case <-timer:
			timer = nil // fire at most once; nil channel never selects
			before := inflight
			launch()
			if inflight > before {
				s.readHedged.Add(1)
			}
		}
	}
	if firstErr == nil {
		firstErr = EIO // no replica left to ask
	}
	return 0, firstErr
}

// Pwrite implements FS.
func (s *StripedFS) Pwrite(fd int, p []byte, off int64) (int, error) {
	e, err := s.entry(fd)
	if err != nil {
		return 0, err
	}
	return fanOut(s, e, func(b FS, bfd int) (int, error) { return b.Pwrite(bfd, p, off) })
}

// Pwritev implements VectorFS: the whole vector goes to every live
// replica at the same offset — one vectored submission per replica
// instead of one per segment per replica.
func (s *StripedFS) Pwritev(fd int, bufs [][]byte, off int64) (int64, error) {
	e, err := s.entry(fd)
	if err != nil {
		return 0, err
	}
	return fanOut(s, e, func(b FS, bfd int) (int64, error) { return Pwritev(b, bfd, bufs, off) })
}

// Lseek implements FS: applied to every live replica so their file
// pointers stay interchangeable; the primary-most result is returned.
func (s *StripedFS) Lseek(fd int, offset int64, whence int) (int64, error) {
	e, err := s.entry(fd)
	if err != nil {
		return 0, err
	}
	return fanOut(s, e, func(b FS, bfd int) (int64, error) { return b.Lseek(bfd, offset, whence) })
}

// Fsync implements FS: one durable copy is enough to succeed.
func (s *StripedFS) Fsync(fd int) error {
	e, err := s.entry(fd)
	if err != nil {
		return err
	}
	_, err = fanOut(s, e, func(b FS, bfd int) (int, error) { return 0, b.Fsync(bfd) })
	return err
}

// Ftruncate implements FS.
func (s *StripedFS) Ftruncate(fd int, size int64) error {
	e, err := s.entry(fd)
	if err != nil {
		return err
	}
	_, err = fanOut(s, e, func(b FS, bfd int) (int, error) { return 0, b.Ftruncate(bfd, size) })
	return err
}

// Fstat implements FS: the first live replica answers.
func (s *StripedFS) Fstat(fd int) (Stat, error) {
	e, err := s.entry(fd)
	if err != nil {
		return Stat{}, err
	}
	st, _, err := serve(s, e, false, func(b FS, bfd int) (Stat, error) { return b.Fstat(bfd) })
	return st, err
}

// liveVerdict folds one more owner's failure into the running error of
// a multi-owner op. The first error stands unless it is a dead
// backend's EIO and err is a live backend's verdict (ENOENT, EACCES,
// ...): the survivor actually looked, so its answer outranks the dead
// backend's. This is the one statement of that rule; every owner loop
// that can meet a dead replica folds its errors through it.
func liveVerdict(cur, err error) error {
	if cur == nil || (errors.Is(cur, EIO) && !errors.Is(err, EIO)) {
		return err
	}
	return cur
}

// across applies op to the backends in scan, in order, on behalf of a
// path owned by owners (a subset of scan) — the one loop behind every
// mutating path op and Readdir. It succeeds when at least one owner
// did, and is the one statement of the failure budget: a layout of
// width W keeps a survivor in every replica set while fewer than W
// backends have failed, so W-1 dead backends (EIO) are ridden out and
// the next one aborts — mod-N tolerates none and fails fast on its
// primary. ENOENT is never a failure: a shadow may never have held the
// path and an owner may have missed it while degraded, though once no
// owner is left to serve, the owners' liveVerdict is returned without
// touching what remains of scan. Any other error is a live backend's
// refusal (ENOTEMPTY, EEXIST, EACCES): a verdict, returned at once, not
// a failure to ride out.
func (s *StripedFS) across(scan, owners []int, op func(i int) error) error {
	budget := len(owners) - 1
	pending := len(owners)
	served := false
	var verdict error
	for _, i := range scan {
		owner := slices.Contains(owners, i)
		err := op(i)
		switch {
		case err == nil:
			served = served || owner
		case errors.Is(err, EIO):
			if budget--; budget < 0 {
				return err
			}
		case errors.Is(err, ENOENT):
		default:
			return err
		}
		if owner {
			verdict = liveVerdict(verdict, err)
			if pending--; pending == 0 && !served {
				return verdict
			}
		}
	}
	return nil
}

// mirrored returns every backend index in the order a canonical
// directory op visits them: owners in replica order, then the shadows.
func (s *StripedFS) mirrored(owners []int) []int {
	order := append(make([]int, 0, len(s.backends)), owners...)
	for i := range s.backends {
		if !slices.Contains(owners, i) {
			order = append(order, i)
		}
	}
	return order
}

// pathFirst applies op to each owner of path in replica order and
// returns the first success — the read-side semantics for path ops. On
// total failure the error is chosen by liveVerdict.
func (s *StripedFS) pathFirst(path string, op func(b FS) error) error {
	var verdict error
	for _, i := range s.ReplicasFor(path) {
		err := op(s.backends[i])
		if err == nil {
			return nil
		}
		verdict = liveVerdict(verdict, err)
	}
	return verdict
}

// pathAll applies op to every owner of path under the rules of across —
// the write-side semantics for path ops (a dead replica degrades the
// copy set; the doctor heals it later).
func (s *StripedFS) pathAll(path string, op func(b FS) error) error {
	owners := s.ReplicasFor(path)
	return s.across(owners, owners, func(i int) error { return op(s.backends[i]) })
}

// Stat implements FS.
func (s *StripedFS) Stat(path string) (Stat, error) {
	var st Stat
	err := s.pathFirst(path, func(b FS) (err error) {
		st, err = b.Stat(path)
		return err
	})
	return st, err
}

// Truncate implements FS.
func (s *StripedFS) Truncate(path string, size int64) error {
	return s.pathAll(path, func(b FS) error { return b.Truncate(path, size) })
}

// Unlink implements FS.
func (s *StripedFS) Unlink(path string) error {
	return s.pathAll(path, func(b FS) error { return b.Unlink(path) })
}

// Mkdir implements FS. A routed (hostdir) directory is created on its
// owners, rebuilding a missing parent skeleton there. A canonical
// directory is created on its primary with authoritative error
// semantics, then mirrored — with parents, EEXIST-tolerant — onto every
// other backend so later hostdirs have a home there.
func (s *StripedFS) Mkdir(path string, mode uint32) error {
	if routed(path) {
		return s.pathAll(path, func(b FS) error {
			err := b.Mkdir(path, mode)
			if errors.Is(err, ENOENT) {
				if merr := MkdirAll(b, gopath.Dir(gopath.Clean("/"+path)), 0o755); merr != nil {
					return merr
				}
				err = b.Mkdir(path, mode)
			}
			return err
		})
	}
	owners := s.ReplicasFor(path)
	return s.across(s.mirrored(owners), owners, func(i int) error {
		if i == owners[0] {
			return s.backends[i].Mkdir(path, mode)
		}
		return MkdirAll(s.backends[i], path, mode)
	})
}

// Rmdir implements FS. A canonical directory comes down on every
// backend, shadows first and the primary last: a shadow still holding
// hostdirs refuses (ENOTEMPTY) before any owner is touched.
func (s *StripedFS) Rmdir(path string) error {
	if routed(path) {
		return s.pathAll(path, func(b FS) error { return b.Rmdir(path) })
	}
	owners := s.ReplicasFor(path)
	order := s.mirrored(owners)
	slices.Reverse(order)
	return s.across(order, owners, func(i int) error { return s.backends[i].Rmdir(path) })
}

// Readdir implements FS. A directory's listing is the name-ordered,
// name-deduplicated union across the backends that may hold entries —
// every backend for a canonical directory, which is how a container
// walk discovers hostdirs wherever they live. Under the failure budget
// a listing is either complete or an error, never silently short.
func (s *StripedFS) Readdir(path string) ([]DirEntry, error) {
	owners := s.ReplicasFor(path)
	scan := owners
	if !routed(path) {
		scan = s.mirrored(owners)
	}
	var entries []DirEntry
	err := s.across(scan, owners, func(i int) error {
		list, err := s.backends[i].Readdir(path)
		if entries == nil {
			entries = list
		} else {
			entries = append(entries, list...)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// Map-free merge: the stable sort keeps the primary-most copy of a
	// name first, and that is the one CompactFunc keeps.
	slices.SortStableFunc(entries, func(a, b DirEntry) int { return strings.Compare(a.Name, b.Name) })
	return slices.CompactFunc(entries, func(a, b DirEntry) bool { return a.Name == b.Name }), nil
}

// Rename implements FS. Routed paths rename within their owning replica
// set; a rename that would move data between replica sets is refused
// (EXDEV, as between real mounts). Canonical paths rename on their
// owners first — so the common failures (destination occupied,
// permissions) fail fast before any shadow moves — then on every shadow
// holding the old path, carrying a container's shadow hostdir trees
// along.
func (s *StripedFS) Rename(oldpath, newpath string) error {
	owners := s.ReplicasFor(oldpath)
	scan := owners
	if routed(oldpath) || routed(newpath) {
		if !slices.Equal(owners, s.ReplicasFor(newpath)) {
			return EXDEV
		}
	} else {
		scan = s.mirrored(owners)
	}
	return s.across(scan, owners, func(i int) error { return s.backends[i].Rename(oldpath, newpath) })
}

// Access implements FS.
func (s *StripedFS) Access(path string, mode int) error {
	return s.pathFirst(path, func(b FS) error { return b.Access(path, mode) })
}

var _ FS = (*StripedFS)(nil)
var _ VectorFS = (*StripedFS)(nil)
