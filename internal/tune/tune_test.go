package tune

import (
	"testing"
	"time"
)

// sim drives a Controller against a deterministic throughput model:
// each simulated window moves WindowBytes through the "system" and
// advances the manual clock by the time that traffic would take at the
// model's rate for the currently applied knob values — so the
// controller observes exactly the modelled throughput, window after
// window, with no real time involved.
type sim struct {
	clock   *ManualClock
	ctl     *Controller
	bytes   int64
	model   func() float64 // bytes/sec for the live knob values
	applied map[string][]int
	workers int
	batch   int
}

const simWindow = 1 << 20

func newSim(t *testing.T, startWorkers, startBatch int, model func(workers, batch int) float64) *sim {
	t.Helper()
	s := &sim{clock: &ManualClock{}, applied: map[string][]int{}}
	s.model = func() float64 { return model(s.workers, s.batch) }
	cfg := Config{WindowBytes: simWindow, Epsilon: 0.05, HoldWindows: 8, Clock: s.clock}
	s.ctl = New(cfg, func() int64 { return s.bytes },
		Knob{Name: "workers", Ladder: []int{1, 2, 4, 8, 16}, Start: startWorkers,
			Apply: func(v int) { s.workers = v; s.applied["workers"] = append(s.applied["workers"], v) }},
		Knob{Name: "batch", Ladder: []int{1, 8, 64, 512}, Start: startBatch,
			Apply: func(v int) { s.batch = v; s.applied["batch"] = append(s.applied["batch"], v) }},
	)
	return s
}

// window pushes one window of traffic through the model and ticks.
func (s *sim) window() {
	rate := s.model()
	s.bytes += simWindow
	s.clock.Advance(time.Duration(float64(simWindow) / rate * float64(time.Second)))
	s.ctl.Tick()
}

// modelSurface is unimodal: workers help up to 4 (8 and 16 are flat or
// slightly worse), batching helps up to 64 (512 is flat).
func modelSurface(workers, batch int) float64 {
	w := map[int]float64{1: 1.0, 2: 1.8, 4: 2.6, 8: 2.6, 16: 2.4}[workers]
	b := map[int]float64{1: 1.0, 8: 1.5, 64: 1.8, 512: 1.8}[batch]
	return 50e6 * w * b
}

func knobValue(states []KnobState, name string) int {
	for _, st := range states {
		if st.Name == name {
			return st.Value
		}
	}
	return -1
}

func TestHillClimbConvergesToOptimum(t *testing.T) {
	s := newSim(t, 1, 1, modelSurface)
	for i := 0; i < 60 && !s.ctl.Converged(); i++ {
		s.window()
	}
	if !s.ctl.Converged() {
		t.Fatalf("controller did not converge in 60 windows; decisions: %v", s.ctl.Decisions())
	}
	st := s.ctl.State()
	// 8 workers is not >5% better than 4, and 512 batch not >5% better
	// than 64, so the climb should settle exactly at the knee.
	if got := knobValue(st, "workers"); got != 4 {
		t.Errorf("workers converged to %d, want 4 (decisions: %v)", got, s.ctl.Decisions())
	}
	if got := knobValue(st, "batch"); got != 64 {
		t.Errorf("batch converged to %d, want 64 (decisions: %v)", got, s.ctl.Decisions())
	}
}

func TestAppliedValuesNeverLeaveBounds(t *testing.T) {
	s := newSim(t, 16, 512, modelSurface) // start at the top rungs
	for i := 0; i < 80; i++ {
		s.window()
	}
	bounds := map[string][2]int{"workers": {1, 16}, "batch": {1, 512}}
	for name, vals := range s.applied {
		for _, v := range vals {
			if b := bounds[name]; v < b[0] || v > b[1] {
				t.Fatalf("knob %s applied out-of-bounds value %d (bounds %v)", name, v, b)
			}
		}
	}
	for _, d := range s.ctl.Decisions() {
		b := bounds[d.Knob]
		if d.To < b[0] || d.To > b[1] || d.From < b[0] || d.From > b[1] {
			t.Fatalf("decision %v outside bounds %v", d, b)
		}
	}
}

func TestDormancyAfterConvergence(t *testing.T) {
	s := newSim(t, 4, 64, modelSurface) // already optimal
	for i := 0; i < 40 && !s.ctl.Converged(); i++ {
		s.window()
	}
	if !s.ctl.Converged() {
		t.Fatal("never converged")
	}
	before := len(s.ctl.Decisions())
	// HoldWindows is 8 in the sim config: the next few windows must be
	// silent — a converged system runs its best config, it does not
	// keep paying for experiments.
	for i := 0; i < 6; i++ {
		s.window()
	}
	if after := len(s.ctl.Decisions()); after != before {
		t.Fatalf("controller kept experimenting while dormant: %d -> %d decisions", before, after)
	}
}

func TestReprobeAdaptsAfterWorkloadShift(t *testing.T) {
	shifted := false
	s := newSim(t, 1, 64, func(workers, batch int) float64 {
		if !shifted {
			return modelSurface(workers, batch)
		}
		// The new regime rewards maximum fan-out.
		return 50e6 * float64(workers) * map[int]float64{1: 1.0, 8: 1.5, 64: 1.8, 512: 1.8}[batch]
	})
	for i := 0; i < 60 && !s.ctl.Converged(); i++ {
		s.window()
	}
	if got := knobValue(s.ctl.State(), "workers"); got != 4 {
		t.Fatalf("pre-shift workers = %d, want 4", got)
	}
	shifted = true
	// Ride out dormancy (8 windows) and let the re-probe climb again.
	for i := 0; i < 80; i++ {
		s.window()
	}
	if got := knobValue(s.ctl.State(), "workers"); got != 16 {
		t.Fatalf("post-shift workers = %d, want 16 (decisions: %v)", got, s.ctl.Decisions())
	}
}

// TestAcceptedEdgeStepIsNotBarren is the regression test for the
// convergence rule: a knob whose trial is ACCEPTED and whose momentum
// step merely ran out of ladder must not count toward the barren cycle
// that declares convergence. With two knobs where A improves at its
// top rung and B never improves, the controller must not declare
// convergence in the very cycle that accepted A's improvement — only
// after a subsequent full cycle with no accepts.
func TestAcceptedEdgeStepIsNotBarren(t *testing.T) {
	clock := &ManualClock{}
	var bytes int64
	a := 1
	model := func() float64 {
		if a == 2 {
			return 200e6
		}
		return 100e6
	}
	c := New(Config{WindowBytes: simWindow, Epsilon: 0.05, HoldWindows: 8, Clock: clock}, func() int64 { return bytes },
		Knob{Name: "a", Ladder: []int{1, 2}, Start: 1, Apply: func(v int) { a = v }},
		Knob{Name: "b", Ladder: []int{1, 2}, Start: 1, Apply: func(int) {}},
	)
	window := func() {
		bytes += simWindow
		clock.Advance(time.Duration(float64(simWindow) / model() * float64(time.Second)))
		c.Tick()
	}
	// W1 baseline, W2 accepts a=2 (momentum hits the ladder top), W3
	// baseline for b, W4 rejects b=2 (no other direction). That cycle
	// accepted an improvement, so it must not read as converged.
	for i := 0; i < 4; i++ {
		window()
	}
	if c.Converged() {
		t.Fatalf("converged declared in a cycle that accepted a trial; decisions: %v", c.Decisions())
	}
	// The next full barren cycle (a's only remaining move 2->1 rejects,
	// then b rejects again) is allowed to converge.
	for i := 0; i < 8 && !c.Converged(); i++ {
		window()
	}
	if !c.Converged() {
		t.Fatalf("never converged; decisions: %v", c.Decisions())
	}
	if got := knobValue(c.State(), "a"); got != 2 {
		t.Fatalf("a = %d after convergence, want 2", got)
	}
}

// TestNoReverseTrialAfterAcceptedClimb pins the wasted-window fix: when
// a climb accepts 1->2 and the momentum trial of the top rung rejects,
// the controller must NOT re-trial the value it just climbed away from
// (it is known worse by at least epsilon) — the next decision after the
// momentum rejection belongs to another knob.
func TestNoReverseTrialAfterAcceptedClimb(t *testing.T) {
	clock := &ManualClock{}
	var bytes int64
	a := 1
	model := func() float64 {
		switch a {
		case 2:
			return 200e6
		case 4:
			return 190e6 // momentum rung: worse than 2, rejected
		default:
			return 100e6
		}
	}
	c := New(Config{WindowBytes: simWindow, Epsilon: 0.05, HoldWindows: 8, Clock: clock}, func() int64 { return bytes },
		Knob{Name: "a", Ladder: []int{1, 2, 4}, Start: 1, Apply: func(v int) { a = v }},
		Knob{Name: "b", Ladder: []int{1, 2}, Start: 1, Apply: func(int) {}},
	)
	// W1 baseline, W2 accept a 1->2, W3 reject momentum a 2->4. No
	// window may then be spent re-trialling a=1.
	for i := 0; i < 8; i++ {
		bytes += simWindow
		clock.Advance(time.Duration(float64(simWindow) / model() * float64(time.Second)))
		c.Tick()
	}
	for _, d := range c.Decisions() {
		if d.Knob == "a" && d.From == 2 && d.To == 1 {
			t.Fatalf("controller re-trialled the abandoned baseline: %v", c.Decisions())
		}
	}
	if got := knobValue(c.State(), "a"); got != 2 {
		t.Fatalf("a = %d, want 2", got)
	}
}

func TestDecisionStringAndWallClock(t *testing.T) {
	d := Decision{Knob: "workers", From: 1, To: 2, Throughput: 200, Baseline: 100, Accepted: true}
	if s := d.String(); s != "workers 1->2 accepted (200 vs 100 B/s)" {
		t.Fatalf("accepted decision renders %q", s)
	}
	d.Accepted = false
	if s := d.String(); s != "workers 1->2 reverted (200 vs 100 B/s)" {
		t.Fatalf("reverted decision renders %q", s)
	}
	if WallClock().Now().IsZero() {
		t.Fatal("wall clock returned the zero time")
	}
}

func TestStartSnapsToLadder(t *testing.T) {
	var applied int
	c := New(Config{Clock: &ManualClock{}}, func() int64 { return 0 },
		Knob{Name: "k", Ladder: []int{1, 2, 4, 8}, Start: 3, Apply: func(v int) { applied = v }})
	if applied != 2 && applied != 4 {
		t.Fatalf("Start=3 applied %d, want a nearest ladder rung", applied)
	}
	if st := c.State(); st[0].Min != 1 || st[0].Max != 8 {
		t.Fatalf("bounds = %+v", st[0])
	}
}

func TestTickFastPathBelowWindow(t *testing.T) {
	var bytes int64
	c := New(Config{WindowBytes: 1000, Clock: &ManualClock{}}, func() int64 { return bytes },
		Knob{Name: "k", Ladder: []int{1, 2}, Apply: func(int) {}})
	for i := 0; i < 50; i++ {
		bytes += 10 // never reaches the window
		c.Tick()
	}
	if c.Windows() != 0 {
		t.Fatalf("windows = %d, want 0 below the byte threshold", c.Windows())
	}
	bytes += 1000
	c.Tick()
	if c.Windows() != 1 {
		t.Fatalf("windows = %d, want 1 after crossing the threshold", c.Windows())
	}
}

func TestSingleRungKnobsParkController(t *testing.T) {
	var bytes int64
	c := New(Config{WindowBytes: 100, Clock: &ManualClock{}}, func() int64 { return bytes },
		Knob{Name: "pinned", Ladder: []int{7}, Apply: func(int) {}})
	bytes += 200
	c.Tick() // baseline window: no knob can move; must not spin or panic
	if !c.Converged() {
		t.Fatal("controller with no movable knobs should park as converged")
	}
	if got := c.State()[0].Value; got != 7 {
		t.Fatalf("pinned knob = %d, want 7", got)
	}
}
