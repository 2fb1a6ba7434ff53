package posix

import (
	"strings"
	"sync"
	"time"

	"ldplfs/internal/iostats"
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
// Revive, and Schedule arms a deterministic sequence of kill/revive
// transitions triggered by operation counts — no wall-clock sleeps, so
// chaos tests replay identically under -race.
//
// FaultFS is a hook set on an Interposer: one Before per op, in the
// order the Interposer states (a vector is one op; Close and Lseek are
// exempt).
type FaultFS struct {
	*Interposer

	mu     sync.Mutex
	rules  []*FaultRule
	killed bool

	sched    []*FaultStep
	opsAny   int             // matching-op counter for schedules
	opsClass map[FaultOp]int // per-class counters for schedules

	svcOp FaultOp       // operation class the service time applies to
	svcD  time.Duration // per-op service time (0 = disabled)
	svcMu sync.Mutex    // the backend's single service slot
}

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

// faultClasses names each iostats class in the rules' vocabulary.
var faultClasses = [iostats.NumOps]FaultOp{
	iostats.Open: FaultOpen, iostats.Read: FaultRead, iostats.Write: FaultWrite,
	iostats.Sync: FaultSync, iostats.Meta: FaultMeta,
}

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
	// is closed (or receives) — a deterministic stall, used to hold one
	// operation in flight while others race past it. A rule with a Gate
	// and a nil Err stalls and then proceeds normally.
	Gate <-chan struct{}

	matched int
	fired   int
}

// FaultStep is one transition of a deterministic fault schedule: once
// the backend has seen AfterOps operations of class Op, the step fires
// exactly once, in order of arming.
type FaultStep struct {
	// AfterOps fires the step once the backend has seen this many
	// operations of class Op, counted from Schedule.
	AfterOps int
	// Op is the operation class AfterOps counts (default FaultAny).
	Op FaultOp

	// Kill fails all subsequent operations with EIO; Revive undoes it.
	Kill   bool
	Revive bool

	done bool
}

// NewFaultFS wraps inner with no rules (transparent until Inject).
// FaultFS carries no operation counters of its own: observe it by
// wrapping in an InstrumentFS attached to a plane.
func NewFaultFS(inner FS) *FaultFS {
	f := &FaultFS{opsClass: make(map[FaultOp]int)}
	f.Interposer = Interpose(inner, faultHook{f})
	return f
}

// Inject adds a rule.
func (f *FaultFS) Inject(r *FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, r)
}

// Clear removes all rules and schedules, and revives a killed backend.
func (f *FaultFS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
	f.sched = nil
	f.killed = false
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
// starts at zero now. Steps fire in order as their triggers are
// reached, atomically with the operation that reaches them: an
// AfterOps=N kill step means operation N and later fail.
func (f *FaultFS) Schedule(steps ...*FaultStep) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sched = steps
	f.opsAny = 0
	f.opsClass = make(map[FaultOp]int)
}

// stepLocked advances the fault schedule by one operation of class op
// and applies every newly-triggered step. Called with f.mu held.
func (f *FaultFS) stepLocked(op FaultOp) {
	if len(f.sched) == 0 {
		return
	}
	f.opsAny++
	f.opsClass[op]++
	for _, st := range f.sched {
		n := f.opsAny
		if st.Op != "" && st.Op != FaultAny {
			n = f.opsClass[st.Op]
		}
		if st.done || n < st.AfterOps {
			continue
		}
		st.done = true
		if st.Kill {
			f.killed = true
		}
		if st.Revive {
			f.killed = false
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

// faultHook is FaultFS's hook on its Interposer.
type faultHook struct{ f *FaultFS }

// Before admits one op: advance the schedule, fail with EIO if the
// backend is dark, occupy the service slot, then consult the rules. A
// firing rule's Gate is waited on outside the lock, so a gated op
// stalls without blocking the rest of the backend.
func (h faultHook) Before(op Op) (Op, error) {
	f, class := h.f, faultClasses[op.Class]
	f.mu.Lock()
	f.stepLocked(class)
	killed := f.killed
	svc := f.svcD
	if f.svcOp != FaultAny && f.svcOp != class {
		svc = 0
	}
	f.mu.Unlock()
	if killed {
		return op, EIO
	}
	if svc > 0 {
		f.svcMu.Lock()
		time.Sleep(svc)
		f.svcMu.Unlock()
	}
	f.mu.Lock()
	var fired *FaultRule
	for _, r := range f.rules {
		if r.Op != FaultAny && r.Op != class {
			continue
		}
		if r.PathContains != "" && !strings.Contains(op.Path, r.PathContains) {
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
		return op, nil
	}
	if fired.Gate != nil {
		<-fired.Gate
	}
	op.Keep = int64(fired.Partial)
	return op, fired.Err
}

// After does nothing: a fault only acts ahead of the call.
func (faultHook) After(Op, int64, error) {}
