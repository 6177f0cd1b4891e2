package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExperimentTableCoversEveryFigure(t *testing.T) {
	want := []string{
		"fig2b", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"ablate", "energy",
	}
	have := map[string]bool{}
	for _, e := range table() {
		if e.run == nil || e.about == "" {
			t.Errorf("experiment %q incomplete", e.name)
		}
		if have[e.name] {
			t.Errorf("duplicate experiment %q", e.name)
		}
		have[e.name] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("missing experiment %q", w)
		}
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	if err := run(context.Background(), []string{}); err == nil {
		t.Error("no -exp accepted")
	}
	if err := run(context.Background(), []string{"-exp", "fig4", "-scale", "mega"}); err == nil {
		t.Error("bad scale accepted")
	}
	err := run(context.Background(), []string{"-exp", "fig99"})
	if err == nil || !strings.Contains(err.Error(), "fig2b") || !strings.Contains(err.Error(), "energy") {
		t.Errorf("unknown experiment: got %v, want an error listing the valid names", err)
	}
}

// TestRunPrintsAndWritesCSV drives the harness end to end on its cheap
// entries: each prints its section header and rows (Figs 11 and 15
// digit for digit), and the figures with a CSV write a parseable one
// into the -csv directory.
func TestRunPrintsAndWritesCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	dir := t.TempDir()
	var out string
	for _, exp := range []string{"fig2b", "fig11", "fig12", "fig15", "energy"} {
		out += captureStdout(t, func() error {
			return run(context.Background(), []string{"-exp", exp, "-csv", dir})
		})
	}
	for _, want := range []string{
		"=== fig2b: memory-request burstiness of NCF (single core) ===\nburstiness ncf: ",
		"=== fig12: bandwidth-utilization timeline of ds2 and gpt2 ===\nbandwidth timeline ds2/gpt2: ",
		"=== energy: off-chip energy per bit of sfrnn+gpt2, Static vs +DWT ===\nsfrnn+gpt2 pJ/bit: static=",
		// Figs 11 and 15 in full: each workload against its own lowest
		// bandwidth point or base page, at tiny scale.
		`=== fig11: speedup vs DRAM bandwidth (single core) ===
speedup vs DRAM bandwidth (single-core, normalized to lowest):
  res    x1=1.00 x2=1.95 x4=3.69 x8=5.72
  yt     x1=1.00 x2=1.98 x4=3.86 x8=5.83
  alex   x1=1.00 x2=1.98 x4=3.83 x8=6.94
  sfrnn  x1=1.00 x2=1.97 x4=3.89 x8=7.37
  ds2    x1=1.00 x2=1.99 x4=3.94 x8=7.58
  dlrm   x1=1.00 x2=1.97 x4=3.73 x8=6.34
  ncf    x1=1.00 x2=1.99 x4=3.89 x8=5.72
  gpt2   x1=1.00 x2=1.76 x4=2.20 x8=2.23
`,
		`=== fig15: page-size speedup, single core ===
page-size speedup over 2KB (single-core):
  res    32KB=1.026 512KB=1.078
  yt     32KB=1.002 512KB=1.006
  alex   32KB=2.463 512KB=2.466
  sfrnn  32KB=1.024 512KB=1.036
  ds2    32KB=1.021 512KB=1.027
  dlrm   32KB=6.014 512KB=8.488
  ncf    32KB=2.837 512KB=2.918
  gpt2   32KB=1.012 512KB=1.012
`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
	for file, rows := range map[string]int{
		"fig2b_burstiness.csv":      2,
		"fig15_pagesize_single.csv": 9, // header and the eight workloads
	} {
		f, err := os.Open(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if len(recs) < rows {
			t.Errorf("%s has %d rows, want at least %d", file, len(recs), rows)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("-csv wrote %d files, want the 2 of fig2b and fig15", len(entries))
	}
}

// captureStdout returns what fn prints to os.Stdout, failing the test if
// fn returns an error.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = wr
	var buf bytes.Buffer
	copied := make(chan error, 1)
	go func() {
		_, err := io.Copy(&buf, rd)
		copied <- err
	}()
	runErr := fn()
	os.Stdout = stdout
	wr.Close()
	if err := <-copied; err != nil {
		t.Fatal(err)
	}
	rd.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return buf.String()
}

func TestListMode(t *testing.T) {
	if err := run(context.Background(), []string{"-list"}); err != nil {
		t.Errorf("-list failed: %v", err)
	}
}
