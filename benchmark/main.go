// Command benchmark is the repository's benchmark: five fixed workloads run
// against the public lethe.DB API by two closed-loop clients, every read
// checked against an exact model, end-to-end metrics measured with tracing
// off and per-layer metrics from a separate traced run. README.md in this
// directory says who the metrics are for and how to read them.
//
//	go run ./benchmark -seed 1                  all workloads, tables + JSON
//	go run ./benchmark -smoke                   the same at 1/100 scale
//	go run ./benchmark -compare a.json b.json   judge b against a
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	                                            one run, result on the last line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupsPerRun is how often an untraced run sets the database up; setup_s is
// the median, which one slow set-up does not move.
const setupsPerRun = 3

// The names every run reports, in print order. BENCHMARK.json declares the
// same names with their units, directions and bounds; a test keeps the two in
// step.
var endToEndNames = []string{"ops_per_s", "get_p50_us", "get_p95_us", "put_p50_us",
	"put_p95_us", "write_amp", "space_amp", "setup_s"}

var perLayerNames = []string{
	"lethe.route_overhead_ns", "lethe.get_ns",
	"lsm.get_ns", "lsm.get_allocs", "lsm.put_ns", "lsm.put_allocs",
	"lsm.commit_group_size", "lsm.wal_syncs_per_batch",
	"lsm.flushes", "lsm.compactions_ttl", "lsm.compactions_saturation",
	"lsm.compaction_bytes_per_user_byte", "lsm.compaction_busy_share", "lsm.write_stall_share",
	"lsm.disk_levels",
	"memtable.apply_ns", "memtable.get_ns",
	"wal.append_group1_ns", "wal.append_group16_ns", "wal.sync_ns", "vfs.syncs_per_write",
	"bloom.probe_hit_ns", "bloom.probe_miss_ns",
	"sstable.cache_hit_rate", "sstable.get_cached_ns", "sstable.get_cached_allocs",
	"sstable.get_uncached_ns", "sstable.get_nocache_ns",
	"sstable.iter_next_ns", "sstable.iter_next_allocs",
	"sstable.writer_add_ns", "sstable.srd_apply_ns", "sstable.full_drop_ratio", "sstable.srd_entries_dropped",
	"compaction.merge_next_ns",
	"runtime.memory_stall_share", "runtime.max_running_compactions", "runtime.queue_depth_end",
	"vfs.read_ops_per_get", "vfs.read_bytes_per_get", "vfs.remote_read_bytes_per_op",
	"vfs.remote_link_util", "vfs.mem_readat_ns", "vfs.mem_write_ns",
	"get_p99_us", "put_p99_us", "scan_p50_us", "srd_p50_ms", "srd_count", "tombstone_age_max_over_dth",
	"trace.overhead_pct", "trace.spans", "trace.get_storage_share", "trace.put_storage_share",
	"trace.scan_storage_share", "trace.maintenance_fs_share",
	"budget.get_unexplained_pct", "budget.put_unexplained_pct", "budget.scan_unexplained_pct",
}

// result is what one run of one workload produced; marshalled, it is the
// last line of a contract run's standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`

	wall    time.Duration
	budgets []budget
	probes  probes
}

// only keeps the named metrics; a missing one is a bug in this program.
func (m metrics) only(names []string) metrics {
	out := metrics{}
	for _, n := range names {
		v, ok := m[n]
		if !ok {
			panic("benchmark: metric " + n + " was not computed")
		}
		out[n] = v
	}
	return out
}

// finishRun closes out one database: end-of-run checks, failure messages.
func finishRun(e *env, ph *phase, r *result) (spaceAmp float64) {
	spaceAmp = e.finish()
	for _, msg := range e.or.msgs {
		fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", e.spec.name, msg)
	}
	r.Attempted += ph.attempted
	r.Failed += e.or.failed.Load()
	return spaceAmp
}

// runUntraced is the end-to-end run: set up (setupsPerRun times, keeping the
// last), measure for limit with tracing off, then verify.
func runUntraced(s spec, seed int64, limit time.Duration) (result, error) {
	streams := s.generate(seed, clients)
	model := preloadModel(s, streams)
	var setups []time.Duration
	var e *env
	for k := 0; k < setupsPerRun; k++ {
		if e != nil {
			if err := e.db.Close(); err != nil {
				return result{}, fmt.Errorf("close: %w", err)
			}
		}
		var err error
		if e, err = setUp(s, streams, model, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, e.setupAt)
	}
	runtime.GC()
	ph := measure(e, streams, limit)
	var r result
	spaceAmp := finishRun(e, ph, &r)
	r.Correct = r.Failed == 0
	r.wall = ph.wall
	r.Metrics = endToEnd(ph, spaceAmp, setups).only(endToEndNames)
	return r, nil
}

// runTraced produces the per-layer metrics. Three phases on fresh databases:
// the workload as in runUntraced, for the counters every layer exposes; the
// workload with one client, untraced, as the baseline for tracing overhead
// and the budgets; and the same single-client stream with spans recorded at
// the client's engine calls and at the filesystem. Then the layer probes.
func runTraced(s spec, seed int64, limit time.Duration, outDir string) (result, error) {
	var r result
	m := metrics{}
	one := func(nclients int, lim time.Duration, tr *tracer) (*phase, error) {
		streams := s.generate(seed, nclients)
		e, err := setUp(s, streams, preloadModel(s, streams), tr)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		ph := measure(e, streams, lim)
		if tr != nil {
			tr.stop()
		}
		finishRun(e, ph, &r)
		return ph, nil
	}
	counted, err := one(clients, limit, nil)
	if err != nil {
		return r, err
	}
	layerCounts(counted, m)
	r.wall = counted.wall

	plain, err := one(1, limit/4, nil)
	if err != nil {
		return r, err
	}
	tr := newTracer()
	traced, err := one(1, limit/4, tr)
	if err != nil {
		return r, err
	}
	sum := tr.resolve()
	if err := tr.write(filepath.Join(outDir, s.name+".trace.jsonl"), traced.wall); err != nil {
		return r, fmt.Errorf("write trace: %w", err)
	}
	m.set("trace.overhead_pct", 100*(ratio(quantile(traced.all(), 0.5), quantile(plain.all(), 0.5))-1), "%")
	m.set("trace.spans", float64(sum.spans), "count")
	share := func(kinds ...opKind) float64 {
		var total, storage time.Duration
		for _, k := range kinds {
			total += sum.ops[k].total
			storage += sum.ops[k].storage
		}
		return ratio(storage.Seconds(), total.Seconds())
	}
	m.set("trace.get_storage_share", share(opGet), "ratio")
	m.set("trace.put_storage_share", share(opPut, opDelete, opApply), "ratio")
	m.set("trace.scan_storage_share", share(opScan), "ratio")
	m.set("trace.maintenance_fs_share", ratio(sum.maintenance.Seconds(), traced.wall.Seconds()), "ratio")

	ps, err := runProbes(s, seed)
	if err != nil {
		return r, fmt.Errorf("probes: %w", err)
	}
	layerProbes(ps, m)
	r.probes = ps
	r.budgets = budgets(s, plain, sum, ps)
	for _, op := range []string{"get", "put", "scan"} {
		m.set("budget."+op+"_unexplained_pct", 0, "%")
	}
	for _, b := range r.budgets {
		m.set("budget."+b.op+"_unexplained_pct", b.unexplainedPct(), "%")
	}
	r.Correct = r.Failed == 0
	r.Metrics = m.only(perLayerNames)
	return r, nil
}

// record says where and how a set of runs was made.
type record struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Clients    int     `json:"clients"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	LoadAvg1   float64 `json:"load_avg_1m_at_start"`
}

func newRecord(seed int64, seconds, scale float64) record {
	rec := record{Commit: "unknown", Seed: seed, Seconds: seconds, Scale: scale, Clients: clients,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), LoadAvg1: -1}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				rec.Commit = kv.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscanf(string(b), "%f", &rec.LoadAvg1)
	}
	return rec
}

// workloadReport is one workload's part of the all-workloads output. Each
// end-to-end metric keeps the value of every repetition, so that -compare
// can tell a difference from the run-to-run spread.
type workloadReport struct {
	OpsBudget int                  `json:"ops_per_client_budget"`
	Preload   int                  `json:"preload_keys"`
	WallS     []float64            `json:"wall_s"`
	Attempted int64                `json:"ops_attempted"`
	Failed    int64                `json:"ops_failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	Units     map[string]string    `json:"units"`
	PerLayer  metrics              `json:"per_layer"`
}

type report struct {
	Record    record                     `json:"record"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// runAll is the one command that prints everything: per workload the
// end-to-end metrics by name and unit, then the per-layer table, the budgets
// with their remainders and the tracing overhead. It returns the number of
// failed operations.
func runAll(seed int64, seconds, scale float64, runs int, outDir string) (int64, error) {
	rep := report{Record: newRecord(seed, seconds, scale), Workloads: map[string]*workloadReport{}}
	limit := time.Duration(seconds * float64(time.Second))
	var failed int64
	for _, s := range specs {
		s = s.scaled(scale)
		wr := &workloadReport{OpsBudget: s.opsPerClient, Preload: s.preload,
			EndToEnd: map[string][]float64{}, Units: map[string]string{}}
		rep.Workloads[s.name] = wr
		fmt.Printf("== %s\n", s.name)
		for i := 0; i < runs; i++ {
			r, err := runUntraced(s, seed, limit)
			if err != nil {
				return failed, fmt.Errorf("%s: %w", s.name, err)
			}
			wr.WallS = append(wr.WallS, r.wall.Seconds())
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
			for _, n := range endToEndNames {
				wr.EndToEnd[n] = append(wr.EndToEnd[n], r.Metrics[n].Value)
				wr.Units[n] = r.Metrics[n].Unit
			}
		}
		fmt.Printf("end to end, tracing off, %d clients, median of %d run(s) of %.3gs:\n", clients, runs, seconds)
		for _, n := range endToEndNames {
			fmt.Printf("  %-34s %14.4f %s\n", n, median(wr.EndToEnd[n]), wr.Units[n])
		}
		r, err := runTraced(s, seed, limit, outDir)
		if err != nil {
			return failed, fmt.Errorf("%s: %w", s.name, err)
		}
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.PerLayer = r.Metrics
		fmt.Printf("  %-34s %14d\n  %-34s %14d\n", "ops_attempted", wr.Attempted, "ops_failed", wr.Failed)
		fmt.Println("per layer:")
		for _, n := range perLayerNames {
			fmt.Printf("  %-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
		}
		printProbeAllocs(r.probes)
		for _, b := range r.budgets {
			printBudget(b)
		}
		failed += wr.Failed
	}
	path := filepath.Join(outDir, "result.json")
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return failed, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return failed, err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return failed, err
	}
	fmt.Printf("wrote %s and the traces next to it\n", path)
	return failed, nil
}

func printProbeAllocs(ps probes) {
	names := make([]string, 0, len(ps))
	for n := range ps {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("probe allocations per call:")
	for _, n := range names {
		fmt.Printf("  %-34s %14.3f\n", strings.TrimSuffix(n, "_ns"), ps[n].allocs)
	}
}

func printBudget(b budget) {
	fmt.Printf("%s budget (one client, tracing off): measured mean %.0f ns\n", b.op, b.measured)
	for _, r := range b.rows {
		fmt.Printf("  %-26s %8.2f x %10.0f ns = %10.0f ns  %s\n", r.what, r.calls, r.nsPer, r.calls*r.nsPer, r.comment)
	}
	fmt.Printf("  %-26s %34.0f ns  (%.1f%% of measured)\n", "unexplained remainder", b.measured-b.explained(), b.unexplainedPct())
}

func main() {
	workload := flag.String("workload", "", "run only this workload and print the result as one JSON line")
	seed := flag.Int64("seed", 1, "seed of the generated operation streams")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced run")
	smoke := flag.Bool("smoke", false, "run every workload at 1/100 scale for a fraction of a second")
	runs := flag.Int("runs", 1, "untraced repetitions per workload when running all workloads")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	specPath := flag.String("spec", "BENCHMARK.json", "the metric declarations -compare applies")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "where result.json and the traces go")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare a.json b.json")
		}
		if err := compareFiles(*specPath, flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fatal(1, err)
		}
		return
	}
	if runtime.GOMAXPROCS(0) < clients {
		fatal(2, fmt.Sprintf("GOMAXPROCS=%d is below the %d clients", runtime.GOMAXPROCS(0), clients))
	}
	scale := 1.0
	if *smoke {
		scale, *seconds = 0.01, 0.3
	}
	if *workload == "" {
		failed, err := runAll(*seed, *seconds, scale, *runs, *outDir)
		if err != nil {
			fatal(1, err)
		}
		if failed > 0 {
			fatal(1, fmt.Sprintf("%d operations failed", failed))
		}
		return
	}
	s, ok := findSpec(*workload)
	if !ok {
		fatal(2, fmt.Sprintf("unknown workload %q", *workload))
	}
	s = s.scaled(scale)
	limit := time.Duration(*seconds * float64(time.Second))
	var r result
	var err error
	if *trace == 0 {
		r, err = runUntraced(s, *seed, limit)
	} else {
		r, err = runTraced(s, *seed, limit, *outDir)
	}
	if err != nil {
		fatal(1, err)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fatal(1, err)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

func fatal(code int, msg any) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(code)
}
