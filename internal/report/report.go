// Package report serializes experiment results as CSV and JSON so the
// paper's figures can be re-plotted outside Go (the original artifact
// emits text files consumed by plotting scripts).
package report

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"mnpusim/internal/experiments"
	"mnpusim/internal/obs/attrib"
	"mnpusim/internal/workloads"
)

// WriteJSON writes any result struct as indented JSON.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

// SharingCSV writes one row per (mix, level) of a sharing study:
// cores,level,workloads,geomean,fairness,speedups...
func SharingCSV(w io.Writer, r experiments.SharingResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"cores", "level", "mix", "geomean", "fairness", "speedups"}); err != nil {
		return err
	}
	for _, lv := range r.Levels {
		for _, m := range r.Mixes[lv] {
			sp := ""
			for i, s := range m.Speedups {
				if i > 0 {
					sp += " "
				}
				sp += fmtF(s)
			}
			err := cw.Write([]string{
				strconv.Itoa(r.Cores), lv.String(), join(m.Workloads, "+"),
				fmtF(m.Geomean), fmtF(m.Fairness), sp,
			})
			if err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// SchemeCSV writes scheme-keyed mixes (the bandwidth and PTW
// partitioning studies): scheme,mix,geomean,fairness.
func SchemeCSV(w io.Writer, schemes []string, mixes map[string][]experiments.MixScore) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"scheme", "mix", "geomean", "fairness"}); err != nil {
		return err
	}
	for _, s := range schemes {
		for _, m := range mixes[s] {
			if err := cw.Write([]string{s, join(m.Workloads, "+"), fmtF(m.Geomean), fmtF(m.Fairness)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// SeriesCSV writes an indexed series: index,value — suitable for the
// burstiness and bandwidth-timeline figures.
func SeriesCSV(w io.Writer, indexName string, step int64, values []float64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{indexName, "value"}); err != nil {
		return err
	}
	for i, v := range values {
		if err := cw.Write([]string{strconv.FormatInt(int64(i)*step, 10), fmtF(v)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// PerWorkloadCSV writes workload-keyed values: workload,<columns...>.
func PerWorkloadCSV(w io.Writer, columns []string, rows map[string][]float64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"workload"}, columns...)); err != nil {
		return err
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	// Table 1 order when the keys are the benchmarks; alphabetical
	// otherwise.
	order := map[string]int{}
	for i, n := range workloads.Names() {
		order[n] = i
	}
	sort.Slice(names, func(i, j int) bool {
		oi, iok := order[names[i]]
		oj, jok := order[names[j]]
		if iok && jok {
			return oi < oj
		}
		if iok != jok {
			return iok
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		rec := []string{n}
		for _, v := range rows[n] {
			rec = append(rec, fmtF(v))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// AttributionCSV writes a stall-cycle attribution report as one row per
// core: core,net,total_cycles followed by one column per bucket in
// taxonomy order.
func AttributionCSV(w io.Writer, rep attrib.Report) error {
	cw := csv.NewWriter(w)
	header := append([]string{"core", "net", "total_cycles"}, attrib.BucketNames()...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, c := range rep.Cores {
		rec := []string{strconv.Itoa(c.Core), c.Net, strconv.FormatInt(c.TotalCycles, 10)}
		for _, v := range c.Buckets() {
			rec = append(rec, strconv.FormatInt(v, 10))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func join(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}
