// Package tune is an online feedback controller for I/O-path knobs, in
// the style of IOPathTune (Rashid et al.): it observes nothing but the
// throughput the stack is actually delivering and hill-climbs a small
// set of bounded knobs toward the configuration that maximises it — no
// model of the backend, no application modification, no operator.
//
// The controller is deliberately generic: a knob is a name, an
// ascending ladder of candidate values (whose ends are the hard
// bounds) and an Apply function; the throughput signal is a cumulative
// byte counter. One user in this repository: the service's QoS governor
// steers background tenants' rate caps with it.
//
// Operation: the data path calls Tick after each operation (a nil-ish
// fast path — two atomic loads — until a window's worth of bytes has
// accumulated). When a window closes, throughput = window bytes /
// window wall time from the injectable Clock. The controller then runs
// one step of coordinate descent: measure the current configuration
// (baseline), try the adjacent ladder value (trial), keep it only if
// it improved throughput by at least Epsilon, otherwise revert and try
// the other direction, then move to the next knob. A full cycle over
// every knob with no accepted trial means the climb has converged; the
// controller goes dormant for HoldWindows windows before probing
// again, so a converged system runs at its best configuration instead
// of perpetually paying for rejected experiments.
package tune

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clock abstracts time for the controller, so tests drive the climb
// deterministically with a manual clock.
type Clock interface {
	Now() time.Time
}

type wallClock struct{}

//plfslint:ignore clockinject wallClock IS the injectable clock's real-time implementation; every other wall-time read must route through it
func (wallClock) Now() time.Time { return time.Now() }

// WallClock returns the real-time clock.
func WallClock() Clock { return wallClock{} }

// ManualClock is a test clock advanced by hand. The zero value starts
// at an arbitrary fixed epoch.
type ManualClock struct {
	mu sync.Mutex
	t  time.Time
}

// Now implements Clock.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Defaults.
const (
	// DefaultWindowBytes closes a measurement window after 1 MiB of
	// observed traffic — small enough to converge within a modest
	// checkpoint, large enough to amortise per-window noise.
	DefaultWindowBytes = 1 << 20
	// DefaultEpsilon is the relative throughput improvement a trial
	// must show to be accepted (5%): anything smaller is treated as
	// noise and reverted.
	DefaultEpsilon = 0.05
	// DefaultHoldWindows is how many windows a converged controller
	// stays dormant before probing again.
	DefaultHoldWindows = 32
)

// Knob describes one tunable: an ascending ladder of candidate values
// whose first and last entries are the hard bounds the controller will
// never leave, and the function that applies a value to the live
// system. Apply is called from Tick (i.e. from a data-path goroutine)
// under the controller's lock; it must be cheap and thread-safe — an
// atomic store in practice.
type Knob struct {
	Name   string
	Ladder []int
	Apply  func(int)
	// Start is the initial value; it is snapped to the nearest ladder
	// entry (and applied) when the controller starts.
	Start int
}

// Config configures a Controller. Zero values take the defaults above.
type Config struct {
	WindowBytes int64
	Epsilon     float64
	HoldWindows int
	Clock       Clock
}

// Decision is one completed trial, kept in a bounded log for tests,
// stats dumps and post-mortems.
type Decision struct {
	Knob       string
	From, To   int
	Throughput float64 // bytes/sec measured while To was applied
	Baseline   float64 // bytes/sec of the configuration trialled against
	Accepted   bool
}

// String renders one decision.
func (d Decision) String() string {
	verdict := "reverted"
	if d.Accepted {
		verdict = "accepted"
	}
	return fmt.Sprintf("%s %d->%d %s (%.0f vs %.0f B/s)", d.Knob, d.From, d.To, verdict, d.Throughput, d.Baseline)
}

// KnobState is a knob's current position and bounds.
type KnobState struct {
	Name     string
	Value    int
	Min, Max int
}

// knob is the controller-side state of one Knob.
type knob struct {
	Knob
	idx      int // committed ladder position
	trialIdx int // position under trial
}

// maxDecisions bounds the decision log.
const maxDecisions = 256

// Controller runs the climb. All methods are safe for concurrent use;
// Tick is designed to be called from every data-path operation.
type Controller struct {
	cfg Config
	src func() int64

	// winBase is the source value the open window started at — the
	// Tick fast path compares against it without taking the lock.
	winBase atomic.Int64

	mu        sync.Mutex
	knobs     []*knob
	winStart  time.Time
	ki        int  // knob being worked on
	dir       int  // ladder direction of the current probe (+1/-1)
	trial     bool // the window that just closed measured a trial value
	triedBoth bool // both directions already probed for this knob
	baseT     float64
	barren    int // consecutive knob advances without an accepted trial
	dormant   int // windows to sleep before probing again
	converged atomic.Bool
	windows   int
	decisions []Decision
}

// New builds a controller over source (a cumulative byte counter; the
// difference between two reads is the traffic of that interval) and
// the given knobs, applying each knob's snapped Start value
// immediately. Knobs with fewer than two ladder values are accepted
// but never probed.
func New(cfg Config, source func() int64, knobs ...Knob) *Controller {
	if cfg.WindowBytes <= 0 {
		cfg.WindowBytes = DefaultWindowBytes
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = DefaultEpsilon
	}
	if cfg.HoldWindows <= 0 {
		cfg.HoldWindows = DefaultHoldWindows
	}
	if cfg.Clock == nil {
		cfg.Clock = WallClock()
	}
	c := &Controller{cfg: cfg, src: source, dir: 1}
	for _, k := range knobs {
		if len(k.Ladder) == 0 {
			continue
		}
		kn := &knob{Knob: k, idx: nearestIdx(k.Ladder, k.Start)}
		kn.Apply(kn.Ladder[kn.idx])
		c.knobs = append(c.knobs, kn)
	}
	c.winBase.Store(source())
	c.winStart = cfg.Clock.Now()
	return c
}

// nearestIdx returns the index of the ladder entry closest to v.
func nearestIdx(ladder []int, v int) int {
	best, bestDist := 0, -1
	for i, lv := range ladder {
		d := lv - v
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// Tick advances the controller. The fast path — window still open —
// is two atomic loads and a subtraction; call it after every data-path
// operation.
func (c *Controller) Tick() {
	cur := c.src()
	if cur-c.winBase.Load() < c.cfg.WindowBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	base := c.winBase.Load()
	if cur-base < c.cfg.WindowBytes {
		return // another Tick closed the window first
	}
	now := c.cfg.Clock.Now()
	elapsed := now.Sub(c.winStart)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	tput := float64(cur-base) / elapsed.Seconds()
	c.windows++
	c.step(tput)
	c.winBase.Store(cur)
	c.winStart = now
}

// step consumes one closed window's throughput measurement.
func (c *Controller) step(tput float64) {
	if len(c.knobs) == 0 {
		return
	}
	if c.dormant > 0 {
		c.dormant--
		if c.dormant == 0 {
			// Wake up and re-probe from scratch: the workload may have
			// shifted while we slept.
			c.barren = 0
			c.converged.Store(false)
		}
		return
	}
	k := c.knobs[c.ki]
	if !c.trial {
		// This window measured the committed configuration.
		c.baseT = tput
		c.beginProbe()
		return
	}
	// This window measured k.trialIdx.
	if tput > c.baseT*(1+c.cfg.Epsilon) {
		c.log(Decision{Knob: k.Name, From: k.Ladder[k.idx], To: k.Ladder[k.trialIdx],
			Throughput: tput, Baseline: c.baseT, Accepted: true})
		k.idx = k.trialIdx
		c.baseT = tput
		c.barren = 0
		// The reverse neighbour of the newly committed value is the
		// value the climb just left behind — known worse by at least
		// epsilon — so a later momentum rejection must not re-trial it.
		c.triedBoth = true
		// Momentum: keep walking the profitable direction. Reaching the
		// ladder end here is not a barren advance — this knob's cycle
		// accepted an improvement, so move on without convergence
		// accounting.
		if !c.tryStep(c.dir) {
			c.nextKnob()
		}
		return
	}
	// Trial lost: put the committed value back.
	k.Apply(k.Ladder[k.idx])
	c.log(Decision{Knob: k.Name, From: k.Ladder[k.idx], To: k.Ladder[k.trialIdx],
		Throughput: tput, Baseline: c.baseT, Accepted: false})
	if !c.triedBoth {
		c.triedBoth = true
		if c.tryStep(-c.dir) {
			c.dir = -c.dir
			return
		}
	}
	c.advanceKnob()
}

// beginProbe starts a trial on the current knob, hunting across knobs
// for one with room to move. If no knob can move at all the controller
// parks itself dormant.
func (c *Controller) beginProbe() {
	for probed := 0; probed < len(c.knobs); probed++ {
		if c.tryStep(c.dir) {
			return
		}
		if c.tryStep(-c.dir) {
			c.dir = -c.dir
			return
		}
		c.nextKnob()
	}
	c.dormant = c.cfg.HoldWindows
	c.converged.Store(true)
}

// tryStep applies the ladder neighbour of the current knob in
// direction dir as a trial, if the ladder has room. Reports whether a
// trial started.
func (c *Controller) tryStep(dir int) bool {
	k := c.knobs[c.ki]
	next := k.idx + dir
	if next < 0 || next >= len(k.Ladder) {
		return false
	}
	k.trialIdx = next
	k.Apply(k.Ladder[next])
	c.trial = true
	return true
}

// nextKnob moves the probe cursor without convergence accounting.
func (c *Controller) nextKnob() {
	c.ki = (c.ki + 1) % len(c.knobs)
	c.dir = 1
	c.triedBoth = false
	c.trial = false
}

// advanceKnob finishes work on the current knob and moves on. A full
// barren cycle — every knob probed, nothing accepted — marks the climb
// converged and parks the controller for HoldWindows windows.
func (c *Controller) advanceKnob() {
	c.barren++
	c.nextKnob()
	if c.barren >= len(c.knobs) {
		c.dormant = c.cfg.HoldWindows
		c.converged.Store(true)
		c.barren = 0
	}
}

// log appends to the bounded decision log.
func (c *Controller) log(d Decision) {
	if len(c.decisions) >= maxDecisions {
		copy(c.decisions, c.decisions[1:])
		c.decisions = c.decisions[:maxDecisions-1]
	}
	c.decisions = append(c.decisions, d)
}

// State reports every knob's committed value and bounds.
func (c *Controller) State() []KnobState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]KnobState, len(c.knobs))
	for i, k := range c.knobs {
		out[i] = KnobState{
			Name:  k.Name,
			Value: k.Ladder[k.idx],
			Min:   k.Ladder[0],
			Max:   k.Ladder[len(k.Ladder)-1],
		}
	}
	return out
}

// Decisions returns a copy of the (bounded) decision log.
func (c *Controller) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Decision(nil), c.decisions...)
}

// Windows reports how many measurement windows have closed.
func (c *Controller) Windows() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.windows
}

// Converged reports whether the last full probe cycle accepted nothing
// (the controller is dormant or was woken from dormancy and has not
// accepted since).
func (c *Controller) Converged() bool { return c.converged.Load() }
