package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the contract at the repository root; -compare takes
// each end-to-end metric's direction and regression bound from it.
const benchmarkFile = "BENCHMARK.json"

// benchmarkSpec is the part of the contract the program reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// runSet is the runs of one file: per workload its rig, the values each
// metric took, and the operations attempted and failed.
type runSet struct {
	rigs              map[string]rig
	vals              map[string]map[string][]float64 // workload -> metric -> one value per run
	attempted, failed map[string]int64
}

// readRuns parses the concatenated output of any number of runs: each
// run is a {"rig":…} line followed, after text lines, by its result line.
func readRuns(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{rigs: map[string]rig{}, vals: map[string]map[string][]float64{},
		attempted: map[string]int64{}, failed: map[string]int64{}}
	var cur *rig
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var hdr struct {
			Rig *rig `json:"rig"`
		}
		if err := json.Unmarshal(line, &hdr); err == nil && hdr.Rig != nil {
			cur = hdr.Rig
			if prev, ok := rs.rigs[cur.Workload]; ok && !sameRig(prev, *cur) {
				return nil, fmt.Errorf("%s: runs of %s on different rigs: %+v and %+v", path, cur.Workload, prev, *cur)
			}
			rs.rigs[cur.Workload] = *cur
			continue
		}
		var res result
		if err := json.Unmarshal(line, &res); err != nil || res.Metrics == nil {
			return nil, fmt.Errorf("%s: unrecognised line %.60q", path, line)
		}
		if cur == nil {
			return nil, fmt.Errorf("%s: result line before any rig header", path)
		}
		w := cur.Workload
		if rs.vals[w] == nil {
			rs.vals[w] = map[string][]float64{}
		}
		for name, v := range res.Metrics {
			rs.vals[w][name] = append(rs.vals[w][name], v.Value)
		}
		rs.attempted[w] += res.Attempted
		rs.failed[w] += res.Failed
	}
	return rs, sc.Err()
}

// sameRig ignores what may differ between comparable runs: the seed,
// the commit and the calibrated sleep overshoot.
func sameRig(a, b rig) bool {
	a.Seed, a.Commit, a.Overshoot = 0, "", 0
	b.Seed, b.Commit, b.Overshoot = 0, "", 0
	return a == b
}

// quartiles as Python's statistics.quantiles(v, n=4) (exclusive method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		n := float64(len(s))
		pos := p * (n + 1)
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// extent returns the smallest and largest value.
func extent(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// judge gives the verdict on one metric of one workload. worse is the
// change of the median in the bad direction as a share of a's median;
// the spreads are each side's interquartile range over its median.
//
//   - spread within the bound: worse when the median got worse by more
//     than the bound, better when it improved by more than a's spread,
//     otherwise same;
//   - spread beyond the bound: unresolved, unless every run of b is on
//     one side of every run of a.
func judge(a, b []float64, higherBetter bool, bound float64) (verdict string, worse, spreadA, spreadB float64) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	if am == 0 {
		return "unresolved", 0, 0, 0
	}
	spreadA, spreadB = (a3-a1)/am, ratio(b3-b1, bm)
	worse = (bm - am) / am
	aLo, aHi := extent(a)
	bLo, bHi := extent(b)
	allBetter, allWorse := bHi < aLo, bLo > aHi
	if higherBetter {
		worse = -worse
		allBetter, allWorse = allWorse, allBetter
	}
	switch noisy := max(spreadA, spreadB) > bound; {
	case noisy && allBetter:
		verdict = "better"
	case noisy && !(allWorse && worse > bound):
		verdict = "unresolved"
	case worse > bound:
		verdict = "worse"
	case -worse > spreadA:
		verdict = "better"
	default:
		verdict = "same"
	}
	return verdict, worse, spreadA, spreadB
}

// compareFiles sets b against a: per workload and end-to-end metric the
// two medians, the change, both spreads, the bound and a verdict.
// It exits 0 only when nothing is worse and nothing unresolved.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := readBenchmarkSpec(benchmarkFile)
	if err != nil {
		fmt.Fprintf(stderr, "plfsbench: -compare reads the bounds from %s in the working directory: %v\n", benchmarkFile, err)
		return 2
	}
	var sets [2]*runSet
	for i, path := range []string{pathA, pathB} {
		if sets[i], err = readRuns(path); err != nil {
			fmt.Fprintf(stderr, "plfsbench: %v\n", err)
			return 2
		}
	}
	return compareSets(spec, sets[0], sets[1], stdout, stderr)
}

func compareSets(spec *benchmarkSpec, a, b *runSet, stdout, stderr io.Writer) int {
	bad := 0
	fmt.Fprintf(stdout, "%-24s %-16s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "a.median", "b.median", "worse%", "a.iqr%", "b.iqr%", "bound%", "verdict")
	for _, w := range spec.Workloads {
		ra, okA := a.rigs[w.Name]
		rb, okB := b.rigs[w.Name]
		if !okA || !okB {
			continue // a workload only one side ran has nothing to compare
		}
		if !sameRig(ra, rb) {
			fmt.Fprintf(stderr, "plfsbench: %s ran on different rigs, refusing to compare:\n  a: %+v\n  b: %+v\n", w.Name, ra, rb)
			return 2
		}
		for _, m := range spec.EndToEnd {
			va, vb := a.vals[w.Name][m.Name], b.vals[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse, sa, sb := judge(va, vb, m.Better == "higher", m.Bound)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			_, am, _ := quartiles(va)
			_, bm, _ := quartiles(vb)
			fmt.Fprintf(stdout, "%-24s %-16s %12.5g %12.5g %+8.2f %8.2f %8.2f %7.1f  %s\n",
				w.Name, m.Name, am, bm, 100*worse, 100*sa, 100*sb, 100*m.Bound, v)
		}
		// fail_ratio: any increase is a regression.
		fa, fb := ratio(float64(a.failed[w.Name]), float64(a.attempted[w.Name])), ratio(float64(b.failed[w.Name]), float64(b.attempted[w.Name]))
		v := "same"
		if fb > fa {
			v = "worse"
			bad++
		} else if fb < fa {
			v = "better"
		}
		fmt.Fprintf(stdout, "%-24s %-16s %12.5g %12.5g %8s %8s %8s %7s  %s\n", w.Name, "fail_ratio", fa, fb, "", "", "", "any", v)
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d metric x workload pairs worse or unresolved\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "no metric x workload pair worse or unresolved")
	return 0
}
