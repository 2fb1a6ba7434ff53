package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ldplfs/internal/posix"
)

// loadSpec reads the contract from the repository root.
func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := readBenchmarkSpec(filepath.Join("..", "..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkSpec checks the contract's own limits and that it and
// the program agree on every name and unit.
func TestBenchmarkSpec(t *testing.T) {
	spec := loadSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || (u != "" && !unit.MatchString(u)) {
			t.Errorf("bad name or unit: %q %q", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("contract lists %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		check(w.Name, "")
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in the contract, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("contract lists %d+%d metrics, program has %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: contract %s [%s], program %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for i, m := range spec.PerLayer {
		check(m.Name, m.Unit)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: contract %s [%s], program %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke runs every workload at -tiny sizes, plain and traced, and
// checks what a run must print: every metric of the contract exactly
// once with its unit, nothing failed, and the four-key result line last.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	t.Chdir(t.TempDir())
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "7", "--seconds", "0.05", "--trace", trace, "--tiny"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
			}
			if len(raw) != 4 {
				t.Errorf("%s: result line has %d keys, want correct, attempted, failed, metrics", w.Name, len(raw))
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics in the result, contract has %d", w.Name, trace, len(res.Metrics), len(want))
			}
			printed := map[string]int{}
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) >= 3 {
					if u, ok := want[f[0]]; ok && f[2] == u {
						printed[f[0]]++
					}
				}
			}
			for n, u := range want {
				if got, ok := res.Metrics[n]; !ok || got.Unit != u {
					t.Errorf("%s trace=%s: metric %s [%s] missing from the result line", w.Name, trace, n, u)
				}
				if trace == "0" && res.Metrics[n].Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, n)
				}
				if printed[n] != 1 {
					t.Errorf("%s trace=%s: metric %s printed %d times with its unit", w.Name, trace, n, printed[n])
				}
			}
			if trace == "1" {
				if _, err := os.Stat(".plfsbench-trace." + w.Name + ".jsonl"); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
				if res.Metrics["trace.dropped"].Value != 0 {
					t.Errorf("%s: %v spans dropped", w.Name, res.Metrics["trace.dropped"].Value)
				}
			}
		}
	}
	if left, _ := filepath.Glob(".plfsbench-data-*"); len(left) > 0 {
		t.Errorf("data directories left behind: %v", left)
	}
}

// TestPrimingTurnstile runs the write set-up of n1_strided_shim twenty
// times: with every writer's first write issued in turn, no run may
// fail an operation (ROADMAP 1b would fail about one in five to ten).
func TestPrimingTurnstile(t *testing.T) {
	t.Chdir(t.TempDir())
	e, err := newEnv(1, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	inst, err := newN1(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c, err := inst.cycle(i)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if c.failed != 0 || c.attempted == 0 {
			t.Fatalf("cycle %d: %d of %d operations failed", i, c.failed, c.attempted)
		}
	}
}

// countFS counts, at the bottom of the stack, the data operations that
// reach data droppings and the segments they carry.
type countFS struct {
	posix.FS
	mu        sync.Mutex
	data      map[int]bool // fds open on a data dropping
	ops, segs int64
}

func (c *countFS) Open(path string, flags int, mode uint32) (int, error) {
	fd, err := c.FS.Open(path, flags, mode)
	if err == nil {
		c.mu.Lock()
		c.data[fd] = strings.Contains(path, "dropping.data.")
		c.mu.Unlock()
	}
	return fd, err
}

func (c *countFS) count(fd, segs int) {
	c.mu.Lock()
	if c.data[fd] {
		c.ops++
		c.segs += int64(segs)
	}
	c.mu.Unlock()
}

func (c *countFS) Pread(fd int, p []byte, off int64) (int, error) {
	c.count(fd, 1)
	return c.FS.Pread(fd, p, off)
}

func (c *countFS) Pwrite(fd int, p []byte, off int64) (int, error) {
	c.count(fd, 1)
	return c.FS.Pwrite(fd, p, off)
}

func (c *countFS) Preadv(fd int, bufs [][]byte, off int64) (int64, error) {
	c.count(fd, len(bufs))
	return posix.Preadv(c.FS, fd, bufs, off)
}

func (c *countFS) Pwritev(fd int, bufs [][]byte, off int64) (int64, error) {
	c.count(fd, len(bufs))
	return posix.Pwritev(c.FS, fd, bufs, off)
}

// TestWrappersPreserveCapabilities runs one cycle of n1_strided_shim
// (one driver goroutine) and of collective_romio_svc3 with and without
// the span wrappers and demands the same data operations and vector
// segments at the bottom of the stack: a wrapper that hid
// posix.VectorFS or mpiio.VectorWriter/VectorReader would turn vectored
// calls into scalar loops and measure a different program.
func TestWrappersPreserveCapabilities(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range []*workload{workloads[0], workloads[2]} {
		var got [2][2]int64
		for i, tr := range []*tracer{nil, newTracer(tinySizes.spanCap)} {
			e, err := newEnv(1, tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			e.drivers = 1
			var mu sync.Mutex
			var counters []*countFS
			e.under = func(fs posix.FS) posix.FS {
				c := &countFS{FS: fs, data: map[int]bool{}}
				mu.Lock()
				counters = append(counters, c)
				mu.Unlock()
				return c
			}
			inst, err := w.setup(e, tr)
			if err != nil {
				t.Fatal(err)
			}
			c, err := inst.cycle(0)
			if err != nil || c.failed != 0 {
				t.Fatalf("%s: cycle: failed=%v err=%v", w.name, c, err)
			}
			inst.close()
			e.close()
			for _, c := range counters {
				got[i][0] += c.ops
				got[i][1] += c.segs
			}
		}
		t.Logf("%s: %d data ops, %d segments", w.name, got[0][0], got[0][1])
		if got[0] != got[1] {
			t.Errorf("%s: plain run made %d data ops / %d segments, traced run %d / %d", w.name, got[0][0], got[0][1], got[1][0], got[1][1])
		}
		if got[0][1] <= got[0][0] && w.name == "collective_romio_svc3" {
			t.Errorf("%s: no vectored operation reached the backends (%d ops, %d segments)", w.name, got[0][0], got[0][1])
		}
	}
}

// TestCompare checks the comparator's verdicts on synthetic run sets.
func TestCompare(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		want         string
	}{
		{"identical", base, base, false, "same"},
		{"within bound", base, scale(1.05), false, "same"},
		{"slower beyond bound", base, scale(1.2), false, "worse"},
		{"faster", base, scale(0.8), false, "better"},
		{"throughput down", base, scale(0.8), true, "worse"},
		{"throughput up", base, scale(1.2), true, "better"},
		{"noise hides the answer", noisy, noisy, false, "unresolved"},
		{"noisy but every run better", noisy, scale(0.3), false, "better"},
	} {
		if got, _, _, _ := judge(tc.a, tc.b, tc.higherBetter, 0.10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}

	// Files from different rigs must be refused.
	dir := t.TempDir()
	write := func(name string, nproc int) string {
		p := filepath.Join(dir, name)
		hdr, _ := json.Marshal(map[string]rig{"rig": {Workload: "stream_shim", Nproc: nproc, Go: "go1.24.0", Backend: "osfs-tmpfs"}})
		res, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]value{"wall_s": {1, "s"}}})
		if err := os.WriteFile(p, []byte(string(hdr)+"\nwall_s 1 s\n"+string(res)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a.json", 2), write("b.json", 2), write("c.json", 8)
	spec := loadSpec(t)
	ra, err := readRuns(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := readRuns(b)
	rc, _ := readRuns(c)
	var out, errb bytes.Buffer
	if code := compareSets(spec, ra, rb, &out, &errb); code != 0 {
		t.Errorf("same rig, same numbers: exit %d\n%s%s", code, out.String(), errb.String())
	}
	if code := compareSets(spec, ra, rc, &out, &errb); code != 2 || !strings.Contains(errb.String(), "different rigs") {
		t.Errorf("different rigs: exit %d, stderr %q", code, errb.String())
	}
}
