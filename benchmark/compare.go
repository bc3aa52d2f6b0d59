package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// declared is one metric of BENCHMARK.json.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func loadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadSpec(path string) (benchmarkSpec, error) {
	var bs benchmarkSpec
	err := loadJSON(path, &bs)
	return bs, err
}

// spread is the run-to-run width of one metric in one result file: the
// distance between the extremes as a share of the median. One run has no
// spread to show, so it cannot make a row unresolved.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return ratio(s[len(s)-1]-s[0], median(s))
}

// verdict judges candidate b against baseline a for one metric. worse and
// better mean the medians differ by more than the bound; unresolved means
// either file's own spread is wider than the bound, so the difference, or
// its absence, shows nothing.
func verdict(d declared, a, b []float64) (string, float64) {
	am, bm := median(a), median(b)
	worse := ratio(bm-am, am) // relative change, positive = worse
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return "unresolved", worse
	case worse > d.Bound:
		return "worse", worse
	case worse < -d.Bound:
		return "better", worse
	}
	return "same", worse
}

// compareFiles prints one row per (workload, end-to-end metric).
func compareFiles(specPath, aPath, bPath string, w io.Writer) error {
	bs, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	var a, b report
	if err := loadJSON(aPath, &a); err != nil {
		return err
	}
	if err := loadJSON(bPath, &b); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-12s %14s %14s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	for _, wl := range bs.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s is missing from one of the files", wl.Name)
		}
		for _, d := range bs.EndToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s: metric %s is missing from one of the files", wl.Name, d.Name)
			}
			v, change := verdict(d, va, vb)
			fmt.Fprintf(w, "%-18s %-12s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, median(va), median(vb), 100*change, 100*d.Bound, v)
		}
	}
	return nil
}
