package posix

import (
	"strings"
	"sync"
	"time"
)

// FaultFS wraps an FS and injects failures according to programmable
// rules — the substrate for the failure-injection tests that check PLFS
// and LDPLFS degrade cleanly when the backend misbehaves (full file
// system, flaky metadata server, torn writes) — and, via SetServiceTime,
// models a backend with a finite service rate, the substrate for the
// multi-backend aggregation benchmarks.
//
// Beyond per-operation rules, a FaultFS models whole-backend failure:
// Kill fails every subsequent operation (except Close) with EIO until
// Revive, and Schedule arms a deterministic sequence of kill/revive/
// slow transitions triggered by operation counts or by an injected
// clock — no wall-clock sleeps, so chaos tests replay identically
// under -race.
type FaultFS struct {
	inner FS

	mu     sync.Mutex
	rules  []*FaultRule
	fds    map[int]string // open path per fd, so fd-based ops match PathContains
	killed bool

	sched    []*FaultStep
	clock    Clock
	schedAt  time.Time       // clock reading when Schedule armed
	opsAny   int             // matching-op counter for schedules
	opsClass map[FaultOp]int // per-class counters for schedules

	svcOp    FaultOp       // operation class the global service time applies to
	svcD     time.Duration // per-op service time (0 = disabled)
	svcMu    sync.Mutex    // the backend's single (global) service slot
	svcRules []*serviceSlot
}

// Clock is the injectable time source for scheduled faults; tune.Clock
// satisfies it (tests drive tune.ManualClock).
type Clock interface{ Now() time.Time }

// FaultOp names an operation class a rule can target.
type FaultOp string

// Operation classes for fault rules.
const (
	FaultOpen  FaultOp = "open"
	FaultRead  FaultOp = "read"
	FaultWrite FaultOp = "write"
	FaultMeta  FaultOp = "meta" // stat/unlink/mkdir/...
	FaultSync  FaultOp = "sync"
	FaultAny   FaultOp = "any"
)

// FaultRule describes one injected failure.
type FaultRule struct {
	// Op selects the operation class (FaultAny matches everything).
	Op FaultOp
	// PathContains restricts the rule to paths containing the substring
	// (empty matches all; fd-based ops match the fd's open path).
	PathContains string
	// After skips the first N matching operations before firing.
	After int
	// Times limits how often the rule fires (0 = forever).
	Times int
	// Err is the injected error.
	Err error
	// Partial, on write rules, lets the first Partial bytes reach the
	// inner FS before the error fires — the kernel's short-write-then-
	// error shape (e.g. ENOSPC after a page). Zero fails the whole op.
	Partial int
	// Gate, when non-nil, blocks a firing operation until the channel
	// is closed (or receives) — a deterministic stall, used to hold a
	// replica's read in flight while a hedged read races past it. A
	// rule with a Gate and a nil Err stalls and then proceeds normally.
	Gate <-chan struct{}

	matched int
	fired   int
}

// FaultStep is one transition of a deterministic fault schedule: when
// its trigger is reached the step fires exactly once, in order of
// arming. Triggers are operation counts (AfterOps matching operations
// of class Op, FaultAny when empty) or, with a clock injected via
// Schedule, elapsed injected time (After since Schedule).
type FaultStep struct {
	// AfterOps fires the step once the backend has seen this many
	// operations of class Op (counted from Schedule; Close and Lseek
	// are exempt, as everywhere in FaultFS).
	AfterOps int
	// Op is the operation class AfterOps counts (default FaultAny).
	Op FaultOp
	// After fires the step once the injected clock has advanced this
	// far past the Schedule call. Ignored without a clock.
	After time.Duration

	// Kill fails all subsequent operations with EIO; Revive undoes it.
	Kill   bool
	Revive bool
	// SetService, when true, installs ServiceOp/Service as the global
	// service time (a backend turning into a straggler mid-run).
	SetService bool
	ServiceOp  FaultOp
	Service    time.Duration

	done bool
}

// serviceSlot is one per-rule service time with its own slot, so
// differently-scoped rules (per backend directory, per op class)
// serialize independently instead of behind the global slot.
type serviceSlot struct {
	op           FaultOp
	pathContains string
	d            time.Duration
	mu           sync.Mutex
}

// NewFaultFS wraps inner with no rules (transparent until Inject).
// FaultFS carries no operation counters of its own: observe it by
// wrapping in an InstrumentFS attached to a collector.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner, fds: make(map[int]string), opsClass: make(map[FaultOp]int)}
}

// pathOf returns the path fd was opened under ("" if unknown).
func (f *FaultFS) pathOf(fd int) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fds[fd]
}

// Inject adds a rule.
func (f *FaultFS) Inject(r *FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, r)
}

// Clear removes all rules, schedules and per-rule service times, and
// revives a killed backend.
func (f *FaultFS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
	f.sched = nil
	f.killed = false
	f.svcRules = nil
}

// Kill fails every subsequent operation (except Close) with EIO — the
// whole backend going dark, as distinct from per-op rules. Idempotent.
func (f *FaultFS) Kill() {
	f.mu.Lock()
	f.killed = true
	f.mu.Unlock()
}

// Revive brings a killed backend back. Data written before the kill is
// intact (the inner FS never saw the failed operations); data the
// composite wrote elsewhere while this backend was dark is missing
// until re-replication heals it.
func (f *FaultFS) Revive() {
	f.mu.Lock()
	f.killed = false
	f.mu.Unlock()
}

// Killed reports whether the backend is currently dark.
func (f *FaultFS) Killed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed
}

// Schedule arms a deterministic fault schedule. Operation counting
// starts at zero now; clock triggers are measured from now on the
// injected clock (nil clock disables clock triggers). Steps fire in
// order as their triggers are reached, atomically with the operation
// that reaches them: an AfterOps=N kill step means operation N+1 and
// later fail.
func (f *FaultFS) Schedule(clock Clock, steps ...*FaultStep) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sched = steps
	f.clock = clock
	f.opsAny = 0
	f.opsClass = make(map[FaultOp]int)
	if clock != nil {
		f.schedAt = clock.Now()
	}
}

// step advances the fault schedule by one operation of class op and
// applies every newly-triggered step. Called with f.mu held.
func (f *FaultFS) stepLocked(op FaultOp) {
	if len(f.sched) == 0 {
		return
	}
	f.opsAny++
	f.opsClass[op]++
	var now time.Time
	if f.clock != nil {
		now = f.clock.Now()
	}
	for _, st := range f.sched {
		if st.done {
			continue
		}
		trig := false
		if st.AfterOps > 0 {
			cls := st.Op
			if cls == "" {
				cls = FaultAny
			}
			n := f.opsAny
			if cls != FaultAny {
				n = f.opsClass[cls]
			}
			trig = n >= st.AfterOps
		} else if st.After > 0 && f.clock != nil {
			trig = !now.Before(f.schedAt.Add(st.After))
		}
		if !trig {
			continue
		}
		st.done = true
		if st.Kill {
			f.killed = true
		}
		if st.Revive {
			f.killed = false
		}
		if st.SetService {
			f.svcOp, f.svcD = st.ServiceOp, st.Service
		}
	}
}

// SetServiceTime models the backend's service rate: every operation of
// class op (FaultAny for all classes; Close and Lseek are exempt, like
// injected faults) occupies the backend's single service slot for d
// before proceeding, like a store that retires one request at a time.
// Concurrent operations against one FaultFS therefore serialize behind
// each other — the regime where striping containers across several
// backends aggregates bandwidth, which is exactly what the
// multi-backend benchmarks need a stand-in for. d = 0 disables.
func (f *FaultFS) SetServiceTime(op FaultOp, d time.Duration) {
	f.mu.Lock()
	f.svcOp, f.svcD = op, d
	f.mu.Unlock()
}

// SetServiceTimeRule adds a scoped service time: operations of class op
// whose path contains pathContains occupy this rule's own slot for d.
// Unlike the global SetServiceTime slot, each rule serializes
// independently — so one FaultFS standing in for several stores (or one
// store with independent queues) can give each path family its own
// service rate without the families serializing behind each other.
// The global slot, when also set, still applies; keep it unset to model
// fully independent queues.
func (f *FaultFS) SetServiceTimeRule(op FaultOp, pathContains string, d time.Duration) {
	f.mu.Lock()
	f.svcRules = append(f.svcRules, &serviceSlot{op: op, pathContains: pathContains, d: d})
	f.mu.Unlock()
}

// service occupies the matching service slots for the configured times:
// first the backend's global slot, then every matching scoped rule's
// own slot.
func (f *FaultFS) service(op FaultOp, path string) {
	f.mu.Lock()
	d := f.svcD
	match := f.svcOp == FaultAny || f.svcOp == op
	var scoped []*serviceSlot
	for _, r := range f.svcRules {
		if r.d <= 0 {
			continue
		}
		if r.op != FaultAny && r.op != op {
			continue
		}
		if r.pathContains != "" && !strings.Contains(path, r.pathContains) {
			continue
		}
		scoped = append(scoped, r)
	}
	f.mu.Unlock()
	if d > 0 && match {
		f.svcMu.Lock()
		time.Sleep(d)
		f.svcMu.Unlock()
	}
	for _, r := range scoped {
		r.mu.Lock()
		time.Sleep(r.d)
		r.mu.Unlock()
	}
}

// Fired reports how many times any rule has fired.
func (f *FaultFS) Fired() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := 0
	for _, r := range f.rules {
		total += r.fired
	}
	return total
}

// admit is the one prologue of every faultable operation: advance the
// schedule, fail with EIO if the backend is dark, occupy the matching
// service slots, then consult the rules. A non-nil error is the one to
// surface in place of the inner call; partial is the firing rule's byte
// budget, for the write paths that honor a short-write-then-error
// injection. A firing rule's Gate (if any) is waited on outside the
// lock, so a gated operation stalls without blocking the rest of the
// backend.
func (f *FaultFS) admit(op FaultOp, path string) (partial int, err error) {
	f.mu.Lock()
	f.stepLocked(op)
	killed := f.killed
	f.mu.Unlock()
	if killed {
		return 0, EIO
	}
	f.service(op, path)
	f.mu.Lock()
	var fired *FaultRule
	for _, r := range f.rules {
		if r.Op != FaultAny && r.Op != op {
			continue
		}
		if r.PathContains != "" && !strings.Contains(path, r.PathContains) {
			continue
		}
		r.matched++
		if r.matched <= r.After {
			continue
		}
		if r.Times > 0 && r.fired >= r.Times {
			continue
		}
		r.fired++
		fired = r
		break
	}
	f.mu.Unlock()
	if fired == nil {
		return 0, nil
	}
	if fired.Gate != nil {
		<-fired.Gate
	}
	return fired.Partial, fired.Err
}

// admitFD is admit for an fd-based operation, matched under the path
// the descriptor was opened with.
func (f *FaultFS) admitFD(op FaultOp, fd int) (partial int, err error) {
	return f.admit(op, f.pathOf(fd))
}

// short lands the first partial bytes of bufs (clamped to the request,
// spanning buffer boundaries) through put, which is handed each piece
// with the count already landed, and returns the total — the kernel's
// short-write-then-error shape, shared by every write path.
func short(bufs [][]byte, partial int, put func(q []byte, done int64) (int, error)) (done int64) {
	budget := min(int64(partial), vectorLen(bufs))
	for _, b := range bufs {
		if budget <= 0 {
			break
		}
		q := b[:min(int64(len(b)), budget)]
		n, _ := put(q, done)
		done += int64(n)
		budget -= int64(n)
		if n < len(q) {
			break
		}
	}
	return done
}

// Open implements FS.
func (f *FaultFS) Open(path string, flags int, mode uint32) (int, error) {
	if _, err := f.admit(FaultOpen, path); err != nil {
		return -1, err
	}
	fd, err := f.inner.Open(path, flags, mode)
	if err == nil {
		f.mu.Lock()
		f.fds[fd] = path
		f.mu.Unlock()
	}
	return fd, err
}

// Close implements FS (never injected, and exempt from kill: close must
// stay reliable so tests can clean up).
func (f *FaultFS) Close(fd int) error {
	f.mu.Lock()
	delete(f.fds, fd)
	f.mu.Unlock()
	return f.inner.Close(fd)
}

// Read implements FS.
func (f *FaultFS) Read(fd int, p []byte) (int, error) {
	if _, err := f.admitFD(FaultRead, fd); err != nil {
		return 0, err
	}
	return f.inner.Read(fd, p)
}

// Write implements FS. A firing rule with Partial > 0 lets that many
// bytes (clamped to the request) through before surfacing the error.
func (f *FaultFS) Write(fd int, p []byte) (int, error) {
	if partial, err := f.admitFD(FaultWrite, fd); err != nil {
		return int(short([][]byte{p}, partial, func(q []byte, _ int64) (int, error) {
			return f.inner.Write(fd, q)
		})), err
	}
	return f.inner.Write(fd, p)
}

// Pread implements FS.
func (f *FaultFS) Pread(fd int, p []byte, off int64) (int, error) {
	if _, err := f.admitFD(FaultRead, fd); err != nil {
		return 0, err
	}
	return f.inner.Pread(fd, p, off)
}

// Preadv implements VectorFS. The whole vector is one faultable
// operation: it advances schedules and matches rules once, like the
// single backend submission it stands for — so batching reads changes
// how often rules are consulted exactly as it changes the syscall
// count.
func (f *FaultFS) Preadv(fd int, bufs [][]byte, off int64) (int64, error) {
	if _, err := f.admitFD(FaultRead, fd); err != nil {
		return 0, err
	}
	return Preadv(f.inner, fd, bufs, off)
}

// Pwrite implements FS. Partial rules behave as in Write.
func (f *FaultFS) Pwrite(fd int, p []byte, off int64) (int, error) {
	if partial, err := f.admitFD(FaultWrite, fd); err != nil {
		return int(short([][]byte{p}, partial, func(q []byte, _ int64) (int, error) {
			return f.inner.Pwrite(fd, q, off)
		})), err
	}
	return f.inner.Pwrite(fd, p, off)
}

// Pwritev implements VectorFS. Rules match once per vector; a firing
// rule's Partial budget is a byte prefix of the whole vector, spanning
// buffer boundaries — the short-write-then-error shape of a failed
// pwritev(2).
func (f *FaultFS) Pwritev(fd int, bufs [][]byte, off int64) (int64, error) {
	if partial, err := f.admitFD(FaultWrite, fd); err != nil {
		return short(bufs, partial, func(q []byte, done int64) (int, error) {
			return f.inner.Pwrite(fd, q, off+done)
		}), err
	}
	return Pwritev(f.inner, fd, bufs, off)
}

// Lseek implements FS (exempt from faults, service and kill — a pure
// pointer move).
func (f *FaultFS) Lseek(fd int, offset int64, whence int) (int64, error) {
	return f.inner.Lseek(fd, offset, whence)
}

// Fsync implements FS.
func (f *FaultFS) Fsync(fd int) error {
	if _, err := f.admitFD(FaultSync, fd); err != nil {
		return err
	}
	return f.inner.Fsync(fd)
}

// Ftruncate implements FS.
func (f *FaultFS) Ftruncate(fd int, size int64) error {
	if _, err := f.admitFD(FaultMeta, fd); err != nil {
		return err
	}
	return f.inner.Ftruncate(fd, size)
}

// Fstat implements FS.
func (f *FaultFS) Fstat(fd int) (Stat, error) {
	if _, err := f.admitFD(FaultMeta, fd); err != nil {
		return Stat{}, err
	}
	return f.inner.Fstat(fd)
}

// Stat implements FS.
func (f *FaultFS) Stat(path string) (Stat, error) {
	if _, err := f.admit(FaultMeta, path); err != nil {
		return Stat{}, err
	}
	return f.inner.Stat(path)
}

// Truncate implements FS.
func (f *FaultFS) Truncate(path string, size int64) error {
	if _, err := f.admit(FaultMeta, path); err != nil {
		return err
	}
	return f.inner.Truncate(path, size)
}

// Unlink implements FS.
func (f *FaultFS) Unlink(path string) error {
	if _, err := f.admit(FaultMeta, path); err != nil {
		return err
	}
	return f.inner.Unlink(path)
}

// Mkdir implements FS.
func (f *FaultFS) Mkdir(path string, mode uint32) error {
	if _, err := f.admit(FaultMeta, path); err != nil {
		return err
	}
	return f.inner.Mkdir(path, mode)
}

// Rmdir implements FS.
func (f *FaultFS) Rmdir(path string) error {
	if _, err := f.admit(FaultMeta, path); err != nil {
		return err
	}
	return f.inner.Rmdir(path)
}

// Readdir implements FS.
func (f *FaultFS) Readdir(path string) ([]DirEntry, error) {
	if _, err := f.admit(FaultMeta, path); err != nil {
		return nil, err
	}
	return f.inner.Readdir(path)
}

// Rename implements FS.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if _, err := f.admit(FaultMeta, oldpath); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// Access implements FS.
func (f *FaultFS) Access(path string, mode int) error {
	if _, err := f.admit(FaultMeta, path); err != nil {
		return err
	}
	return f.inner.Access(path, mode)
}

var _ FS = (*FaultFS)(nil)
var _ VectorFS = (*FaultFS)(nil)
