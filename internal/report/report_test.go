package report

import (
	"encoding/csv"
	"strings"
	"testing"

	"mnpusim/internal/experiments"
	"mnpusim/internal/obs/attrib"
	"mnpusim/internal/sim"
)

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v\n%s", err, s)
	}
	return rows
}

func TestWriteJSON(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSON(&sb, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"a": 1`) {
		t.Errorf("json: %s", sb.String())
	}
}

func TestSharingCSV(t *testing.T) {
	r := experiments.SharingResult{
		Cores:  2,
		Levels: []sim.Sharing{sim.Static, sim.ShareD},
		Mixes: map[sim.Sharing][]experiments.MixScore{
			sim.Static: {{Workloads: []string{"a", "b"}, Speedups: []float64{0.5, 0.6}, Geomean: 0.55, Fairness: 0.9}},
			sim.ShareD: {{Workloads: []string{"a", "b"}, Speedups: []float64{0.7, 0.8}, Geomean: 0.75, Fairness: 0.95}},
		},
	}
	var sb strings.Builder
	if err := SharingCSV(&sb, r); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, sb.String())
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	if rows[1][1] != "Static" || rows[1][2] != "a+b" || !strings.HasPrefix(rows[1][3], "0.55") {
		t.Errorf("row: %v", rows[1])
	}
}

func TestSchemeCSV(t *testing.T) {
	mixes := map[string][]experiments.MixScore{
		"4:4": {{Workloads: []string{"x", "y"}, Geomean: 0.7, Fairness: 0.95}},
	}
	var sb strings.Builder
	if err := SchemeCSV(&sb, []string{"4:4"}, mixes); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, sb.String())
	if len(rows) != 2 || rows[1][0] != "4:4" {
		t.Errorf("rows: %v", rows)
	}
}

func TestSeriesCSV(t *testing.T) {
	var sb strings.Builder
	if err := SeriesCSV(&sb, "cycle", 1000, []float64{0.1, 0.2}); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, sb.String())
	if rows[2][0] != "1000" || !strings.HasPrefix(rows[2][1], "0.2") {
		t.Errorf("rows: %v", rows)
	}
}

func TestPerWorkloadCSVTable1Order(t *testing.T) {
	var sb strings.Builder
	rows := map[string][]float64{
		"gpt2": {1}, "res": {2}, "custom": {3}, "alex": {4},
	}
	if err := PerWorkloadCSV(&sb, []string{"v"}, rows); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, sb.String())
	// Benchmarks come first in Table 1 order, then others alphabetical.
	want := []string{"res", "alex", "gpt2", "custom"}
	for i, w := range want {
		if recs[i+1][0] != w {
			t.Fatalf("order: %v", recs)
		}
	}
}

func TestAttributionCSV(t *testing.T) {
	rep := attrib.Report{Cores: []attrib.CoreBreakdown{
		{Core: 0, Net: "a", TotalCycles: 10, Compute: 4, Transfer: 6},
		{Core: 1, Net: "b", TotalCycles: 20, Compute: 20},
	}}
	var sb strings.Builder
	if err := AttributionCSV(&sb, rep); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, sb.String())
	if len(rows) != 3 || rows[0][3] != "compute" || rows[1][6] != "6" || rows[2][3] != "20" {
		t.Errorf("rows: %v", rows)
	}
}
