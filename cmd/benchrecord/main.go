// Command benchrecord writes one point of the repository's benchmark
// trajectory, BENCH_<pr>.json, from the table plfsbench -compare prints:
// per workload and end-to-end metric the parent's and the change's
// median, both interquartile ranges, the bound and the verdict, exactly
// as -compare computed them — nothing is measured or judged a second
// time here. The two run-output files -compare took (the concatenated
// output of cmd/plfsbench/run.sh) are scanned for their rig headers
// only: one header per run, so they give the rig and the run counts.
//
//	go run ./cmd/plfsbench -compare parent.txt change.txt |
//	    go run ./cmd/benchrecord -pr 22 -claim '...' -method '...' parent.txt change.txt > BENCH_22.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// cell is one row of -compare's table. The percentages are -compare's:
// worse_pct is signed so that positive is worse whichever way the metric
// points, and the IQRs are relative to their own median.
type cell struct {
	Metric       string   `json:"metric"`
	Parent       float64  `json:"parent_median"`
	Change       float64  `json:"change_median"`
	WorsePct     *float64 `json:"worse_pct,omitempty"`
	ParentIQRPct *float64 `json:"parent_iqr_pct,omitempty"`
	ChangeIQRPct *float64 `json:"change_iqr_pct,omitempty"`
	BoundPct     string   `json:"bound_pct"`
	Verdict      string   `json:"verdict"`
}

type workload struct {
	Workload string          `json:"workload"`
	Rig      json.RawMessage `json:"rig"`
	Runs     map[string]int  `json:"runs"`
	Metrics  []cell          `json:"metrics"`
}

// readTable parses -compare's table into one workload per first column,
// in the table's order. A metric row has nine fields; the fail_ratio row
// leaves change and spreads blank and has six.
func readTable(in io.Reader) ([]*workload, error) {
	var out []*workload
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if (len(f) != 9 && len(f) != 6) || f[0] == "workload" {
			continue // the header and the closing summary line
		}
		c := cell{Metric: f[1], BoundPct: f[len(f)-2], Verdict: f[len(f)-1]}
		nums := []*float64{&c.Parent, &c.Change}
		if len(f) == 9 {
			c.WorsePct, c.ParentIQRPct, c.ChangeIQRPct = new(float64), new(float64), new(float64)
			nums = append(nums, c.WorsePct, c.ParentIQRPct, c.ChangeIQRPct)
		}
		for i, p := range nums {
			v, err := strconv.ParseFloat(f[2+i], 64)
			if err != nil {
				return nil, fmt.Errorf("-compare row %q: %w", sc.Text(), err)
			}
			*p = v
		}
		if len(out) == 0 || out[len(out)-1].Workload != f[0] {
			out = append(out, &workload{Workload: f[0]})
		}
		w := out[len(out)-1]
		w.Metrics = append(w.Metrics, c)
	}
	return out, sc.Err()
}

// readRigs returns, per workload, the first rig header of a run-output
// file and how many runs (headers) the file holds.
func readRigs(path string) (map[string]json.RawMessage, map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	rigs, runs := map[string]json.RawMessage{}, map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), `{"rig":`) {
			continue
		}
		var hdr struct {
			Rig json.RawMessage `json:"rig"`
		}
		var rig struct {
			Workload string `json:"workload"`
		}
		if err := json.Unmarshal(sc.Bytes(), &hdr); err == nil {
			err = json.Unmarshal(hdr.Rig, &rig)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if runs[rig.Workload]++; runs[rig.Workload] == 1 {
			rigs[rig.Workload] = hdr.Rig
		}
	}
	return rigs, runs, sc.Err()
}

func main() {
	pr := flag.Int("pr", 0, "the PR this point of the trajectory belongs to")
	claim := flag.String("claim", "none", "the claimed gain: metric, workload, and the rig it holds on")
	method := flag.String("method", "", "how the runs were taken")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: plfsbench -compare parent.txt change.txt | benchrecord -pr N [-claim ...] [-method ...] parent.txt change.txt")
		os.Exit(2)
	}
	if err := record(*pr, *claim, *method, flag.Arg(0), flag.Arg(1), os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchrecord:", err)
		os.Exit(1)
	}
}

func record(pr int, claim, method, parentPath, changePath string, compare io.Reader, out io.Writer) error {
	workloads, err := readTable(compare)
	if err != nil {
		return err
	}
	if len(workloads) == 0 {
		return fmt.Errorf("no -compare table on stdin")
	}
	_, parentRuns, err := readRigs(parentPath)
	if err != nil {
		return err
	}
	rigs, changeRuns, err := readRigs(changePath)
	if err != nil {
		return err
	}
	for _, w := range workloads {
		if parentRuns[w.Workload] == 0 || changeRuns[w.Workload] == 0 {
			return fmt.Errorf("%s is in the -compare table but not in both run files", w.Workload)
		}
		w.Rig = rigs[w.Workload]
		w.Runs = map[string]int{"parent": parentRuns[w.Workload], "change": changeRuns[w.Workload]}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		PR        int         `json:"pr"`
		Claim     string      `json:"claim"`
		Method    string      `json:"method"`
		Workloads []*workload `json:"workloads"`
	}{pr, claim, method, workloads})
}
