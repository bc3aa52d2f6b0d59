// Command benchjson converts `go test -bench` output into a stable JSON
// document and an optional Markdown summary table — the format the CI
// perf-trajectory job archives (bench-current.json, and the committed
// BENCH_BASELINE.json) so benchmark numbers can be compared across PRs by
// machines, not eyeballs.
//
// Usage:
//
//	go test -run=NONE -bench=. -benchmem . | benchjson -json BENCH.json -md
//
// Repeated runs of a benchmark (from -count=N) are averaged; the JSON
// records the run count per benchmark. Custom b.ReportMetric units are kept
// under "metrics". Lines that are not benchmark results are ignored, so the
// whole `go test` output can be piped in unfiltered.
//
// With -baseline PREV.json (a previous -json output, e.g. the committed
// BENCH_BASELINE.json), a "versus baseline" Markdown section is appended diffing
// ns/op, B/op, and allocs/op per benchmark, and every regression past
// -threshold percent (default 20) emits a GitHub Actions ::warning::
// annotation on stderr — the CI bench-regression gate. Memory columns are
// diffed only when both sides have them (runs without -benchmem, or
// baselines predating it, show "—"). The gate warns instead of failing: CI
// runner noise must not block merges, but regressions must be visible.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result accumulates the runs of one benchmark.
type result struct {
	Runs        int                `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// accum sums values before the final averaging divide.
type accum struct {
	runs int
	sums map[string]float64 // unit -> summed value
}

func main() {
	in := flag.String("in", "", "input file (default: stdin)")
	jsonOut := flag.String("json", "", "write the JSON document to this file")
	md := flag.Bool("md", false, "print a Markdown summary table to stdout")
	baseline := flag.String("baseline", "", "baseline JSON (a previous -json output) to diff ns/op, B/op, and allocs/op against")
	threshold := flag.Float64("threshold", 20, "regression warning threshold in percent (with -baseline)")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}

	byName, order, err := parse(r)
	if err != nil {
		fatal(err)
	}
	if len(order) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found"))
	}

	results := make(map[string]result, len(byName))
	for name, a := range byName {
		res := result{Runs: a.runs, Metrics: map[string]float64{}}
		for unit, sum := range a.sums {
			avg := sum / float64(a.runs)
			switch unit {
			case "ns/op":
				res.NsPerOp = avg
			case "B/op":
				res.BytesPerOp = avg
			case "allocs/op":
				res.AllocsPerOp = avg
			default:
				res.Metrics[unit] = avg
			}
		}
		if len(res.Metrics) == 0 {
			res.Metrics = nil
		}
		results[name] = res
	}

	if *jsonOut != "" {
		doc, err := json.MarshalIndent(map[string]any{"benchmarks": results}, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(doc, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if *md {
		printMarkdown(os.Stdout, results, order)
	}
	if *baseline != "" {
		base, err := loadBaseline(*baseline)
		if err != nil {
			// Warn-only gate: a missing or unreadable baseline must not turn
			// it into a hard CI failure — annotate and skip the diff.
			fmt.Fprintf(os.Stderr, "::warning title=Bench baseline missing::%v — regression diff skipped\n", err)
		} else {
			// The table joins the -md output (the CI job redirects stdout
			// into the step summary); the ::warning:: annotations go to
			// stderr so they land in the job log, where the Actions runner
			// scans them.
			printDiff(os.Stdout, os.Stderr, results, base, order, *threshold)
		}
	}
}

// loadBaseline reads a previous -json output.
func loadBaseline(path string) (map[string]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Benchmarks map[string]result `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("decode baseline %s: %w", path, err)
	}
	return doc.Benchmarks, nil
}

// diffMetrics are the columns printDiff compares against the baseline. All
// three share the regression threshold: more allocations per op is a
// regression exactly like more nanoseconds per op.
var diffMetrics = []struct {
	unit string
	get  func(result) float64
}{
	{"ns/op", func(r result) float64 { return r.NsPerOp }},
	{"B/op", func(r result) float64 { return r.BytesPerOp }},
	{"allocs/op", func(r result) float64 { return r.AllocsPerOp }},
}

// printDiff emits a Markdown section comparing ns/op, B/op, and allocs/op
// against the baseline, flagging regressions past the threshold, and a
// GitHub Actions ::warning:: command per flagged benchmark+metric so the
// job page surfaces them. A metric missing on either side (a run without
// -benchmem, or a baseline predating the memory columns) renders as "—" and
// is never flagged. The gate warns rather than fails: benchmark noise on
// shared CI runners must not block merges, but regressions must be
// impossible to miss.
func printDiff(w, warnw io.Writer, results, base map[string]result, order []string, threshold float64) {
	fmt.Fprintln(w)
	fmt.Fprintf(w, "### Versus baseline (warn at +%.0f%% ns/op, B/op, allocs/op)\n", threshold)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| benchmark | ns/op | B/op | allocs/op |")
	fmt.Fprintln(w, "|---|---:|---:|---:|")
	var regressions []string
	for _, name := range order {
		cur := results[name]
		b, inBase := base[name]
		cells := make([]string, 0, len(diffMetrics))
		for _, m := range diffMetrics {
			cv, bv := m.get(cur), m.get(b)
			switch {
			case !inBase || bv <= 0:
				if cv <= 0 {
					cells = append(cells, "—")
				} else {
					cells = append(cells, fmt.Sprintf("%.0f (new)", cv))
				}
			case cv <= 0:
				cells = append(cells, fmt.Sprintf("%.0f -> —", bv))
			default:
				delta := (cv - bv) / bv * 100
				marker := ""
				if delta > threshold {
					marker = " ⚠️"
					regressions = append(regressions,
						fmt.Sprintf("%s: %.0f -> %.0f %s (%+.1f%%)", name, bv, cv, m.unit, delta))
				}
				cells = append(cells, fmt.Sprintf("%.0f -> %.0f (%+.1f%%)%s", bv, cv, delta, marker))
			}
		}
		fmt.Fprintf(w, "| %s | %s |\n", name, strings.Join(cells, " | "))
	}
	var removed []string
	for name := range base {
		if _, ok := results[name]; !ok {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(w, "| %s | %.0f -> removed | — | — |\n", name, base[name].NsPerOp)
	}
	fmt.Fprintln(w)
	if len(regressions) == 0 {
		fmt.Fprintf(w, "No regressions past %.0f%% (ns/op, B/op, allocs/op).\n", threshold)
		return
	}
	fmt.Fprintf(w, "%d benchmark metric(s) regressed past %.0f%% — see the job log annotations.\n",
		len(regressions), threshold)
	sort.Strings(regressions)
	for _, r := range regressions {
		// GitHub Actions annotation: shows on the workflow run page.
		fmt.Fprintf(warnw, "::warning title=Benchmark regression::%s\n", r)
	}
}

// parse reads gobench output, returning per-name accumulators and the first-
// appearance order of the names.
func parse(r io.Reader) (map[string]*accum, []string, error) {
	byName := map[string]*accum{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// A result line is "BenchmarkName[-P] N value unit [value unit]...".
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // e.g. "Benchmarking..." chatter
		}
		name := stripProcsSuffix(fields[0])
		a := byName[name]
		if a == nil {
			a = &accum{sums: map[string]float64{}}
			byName[name] = a
			order = append(order, name)
		}
		a.runs++
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			a.sums[fields[i+1]] += v
		}
	}
	return byName, order, sc.Err()
}

// stripProcsSuffix removes the trailing "-GOMAXPROCS" go test appends to
// benchmark names (absent when GOMAXPROCS=1). Names must be portable across
// machines with different core counts, or a baseline recorded on one
// machine never matches a run on another and the regression diff reports
// everything as new/removed instead of comparing.
//
// Constraint this imposes on the suite: a sub-benchmark name must not end
// in "-<number>" (e.g. "buf-512"), since a GOMAXPROCS=1 run would have it
// wrongly stripped and collide with a sibling. Spell such variants
// "buf=512" instead.
func stripProcsSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// printMarkdown emits a summary table in first-appearance order, with any
// custom metrics inlined in the last column.
func printMarkdown(w io.Writer, results map[string]result, order []string) {
	fmt.Fprintln(w, "### Benchmark trajectory")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| benchmark | runs | ns/op | B/op | allocs/op | metrics |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---|")
	for _, name := range order {
		r := results[name]
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var metrics []string
		for _, k := range keys {
			metrics = append(metrics, fmt.Sprintf("%s=%.4g", k, r.Metrics[k]))
		}
		fmt.Fprintf(w, "| %s | %d | %.0f | %.0f | %.0f | %s |\n",
			name, r.Runs, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, strings.Join(metrics, ", "))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
