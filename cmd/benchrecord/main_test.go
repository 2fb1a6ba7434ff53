package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runFile writes run output as cmd/plfsbench/run.sh prints it: a rig
// header, text lines, a result line, once per value.
func runFile(t *testing.T, name string, readMBps []float64) string {
	t.Helper()
	var b strings.Builder
	for _, v := range readMBps {
		fmt.Fprintf(&b, "{\"rig\":{\"workload\":\"cold_open_wide\",\"backend\":\"memfs\"}}\nread_MBps %g MB/s\n", v)
		fmt.Fprintf(&b, "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"read_MBps\":{\"value\":%g,\"unit\":\"MB/s\"}}}\n", v)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRecord(t *testing.T) {
	parent := runFile(t, "parent.txt", []float64{100, 110, 90, 105, 95})
	change := runFile(t, "change.txt", []float64{200, 210, 190})
	// The table as compareSets prints it: blank columns on the fail_ratio
	// row, a summary line at the end.
	table := "workload                 metric               a.median     b.median   worse%   a.iqr%   b.iqr%  bound%  verdict\n" +
		"cold_open_wide           read_MBps                 100          200  -100.00    15.00    10.00    25.0  better\n" +
		"cold_open_wide           fail_ratio                  0            0                                any  same\n" +
		"no metric x workload pair worse or unresolved\n"
	var out bytes.Buffer
	if err := record(22, "a claim", "a method", parent, change, strings.NewReader(table), &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PR        int
		Workloads []struct {
			Workload string
			Rig      map[string]any
			Runs     map[string]int
			Metrics  []cell
		}
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.Bytes())
	}
	if doc.PR != 22 || len(doc.Workloads) != 1 {
		t.Fatalf("pr %d, %d workloads; want 22 and the one workload in the table", doc.PR, len(doc.Workloads))
	}
	w := doc.Workloads[0]
	if w.Workload != "cold_open_wide" || w.Rig["backend"] != "memfs" || w.Runs["parent"] != 5 || w.Runs["change"] != 3 {
		t.Fatalf("header = %+v", w)
	}
	if len(w.Metrics) != 2 {
		t.Fatalf("%d cells, want the metric row and the fail_ratio row", len(w.Metrics))
	}
	c := w.Metrics[0]
	if c.Metric != "read_MBps" || c.Parent != 100 || c.Change != 200 || *c.WorsePct != -100 || *c.ParentIQRPct != 15 || *c.ChangeIQRPct != 10 || c.BoundPct != "25.0" || c.Verdict != "better" {
		t.Fatalf("cell = %+v", c)
	}
	if f := w.Metrics[1]; f.Metric != "fail_ratio" || f.WorsePct != nil || f.BoundPct != "any" || f.Verdict != "same" {
		t.Fatalf("fail_ratio cell = %+v", f)
	}

	// No table, or a table naming a workload the run files do not hold,
	// is an error, not an empty record.
	if err := record(22, "", "", parent, change, strings.NewReader(""), &out); err == nil {
		t.Fatal("record accepted an empty table")
	}
	other := strings.ReplaceAll(table, "cold_open_wide", "stream_shim   ")
	if err := record(22, "", "", parent, change, strings.NewReader(other), &out); err == nil {
		t.Fatal("record accepted a table for a workload with no runs")
	}
}
