package main

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"lethe/internal/vfs"
	"lethe/internal/workload"
)

const (
	smokeScale = 0.01
	smokeLimit = 200 * time.Millisecond
)

func declaredNames(ds []declared) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func metricNames(m metrics) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Every workload, at 1/100 scale, emits exactly the metric names
// BENCHMARK.json declares, with the declared units, and no operation fails.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	bs, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, d := range append(append([]declared(nil), bs.EndToEnd...), bs.PerLayer...) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q is not well formed", d.Name)
		}
		if _, dup := units[d.Name]; dup {
			t.Errorf("metric name %q is declared twice", d.Name)
		}
		units[d.Name] = d.Unit
	}
	if len(bs.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bs.Workloads), len(specs))
	}
	out := t.TempDir()
	for i, wl := range bs.Workloads {
		if wl.Name != specs[i].name {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, wl.Name, specs[i].name)
		}
		s := specs[i].scaled(smokeScale)
		for _, run := range []struct {
			what     string
			declared []declared
			do       func() (result, error)
		}{
			{"untraced", bs.EndToEnd, func() (result, error) { return runUntraced(s, 1, smokeLimit) }},
			{"traced", bs.PerLayer, func() (result, error) { return runTraced(s, 1, smokeLimit, out) }},
		} {
			r, err := run.do()
			if err != nil {
				t.Fatalf("%s %s: %v", s.name, run.what, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", s.name, run.what, r.Correct, r.Attempted, r.Failed)
			}
			if got, want := metricNames(r.Metrics), declaredNames(run.declared); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: metrics %v, declared %v", s.name, run.what, got, want)
			}
			for n, m := range r.Metrics {
				if m.Unit != units[n] {
					t.Errorf("%s %s: %s has unit %q, declared %q", s.name, run.what, n, m.Unit, units[n])
				}
			}
		}
	}
}

func streamHashes(seed int64, s spec) []uint64 {
	var out []uint64
	for _, st := range s.generate(seed, clients) {
		out = append(out, st.hash())
	}
	return out
}

// The same seed yields the same operation streams, another seed others.
func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, s := range specs {
		s = s.scaled(smokeScale)
		a, b, c := streamHashes(7, s), streamHashes(7, s), streamHashes(8, s)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave %v and then %v", s.name, a, b)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same streams", s.name)
		}
	}
}

func TestKeysMatchTheWorkloadPackage(t *testing.T) {
	for _, p := range []uint32{0, 1, 9, 10, 1023, 1024, universe - 1} {
		key := appendKey(nil, p)
		if want := workload.Key(int(p)); !bytes.Equal(key, want) {
			t.Errorf("appendKey(%d) = %q, workload.Key gives %q", p, key, want)
		}
		if got, ok := keyPos(key); !ok || got != p {
			t.Errorf("keyPos(%q) = %d, %v", key, got, ok)
		}
	}
	if _, ok := keyPos([]byte("k00000000x1")); ok {
		t.Error("keyPos accepted a malformed key")
	}
}

// A model that disagrees with the database in one cell is caught, whichever
// way it is wrong.
func TestOracleCatchesAWrongModel(t *testing.T) {
	s := specs[0].scaled(smokeScale)
	streams := s.generate(1, clients)
	model := preloadModel(s, streams)
	victim := streams[0].preload[0]
	ghost := victim | 15 // never inserted
	for _, tc := range []struct {
		what  string
		wrong func(*oracle)
	}{
		{"nothing", func(*oracle) {}},
		{"a live key the model thinks deleted", func(o *oracle) { o.del(victim) }},
		{"a stale version", func(o *oracle) { o.put(victim, 1) }},
		{"a key that was never written", func(o *oracle) { o.put(ghost, 1) }},
	} {
		e, err := setUp(s, streams, model, nil)
		if err != nil {
			t.Fatal(err)
		}
		tc.wrong(e.or)
		scratch := make([]byte, s.valueSize)
		for _, p := range []uint32{victim, ghost} {
			v, err := e.db.Get(appendKey(nil, p))
			e.or.checkGet("get", p, v, err, 0, 0, scratch)
		}
		pointFailures := e.or.failed.Load()
		e.finish()
		scanFailures := e.or.failed.Load() - pointFailures
		if want := tc.what != "nothing"; (pointFailures > 0) != want || (scanFailures > 0) != want {
			t.Errorf("%s: %d point and %d final-scan failures: %v", tc.what, pointFailures, scanFailures, e.or.msgs)
		}
	}
}

// traceFS passes the vfs contract through unchanged and records the spans it
// promises.
func TestTraceFSPassesThrough(t *testing.T) {
	tr := newTracer()
	tr.begin(time.Now())
	mem := vfs.NewMem()
	fs := tr.wrap(mem, true)

	f, err := fs.Create("shard-0/000001.sst")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("hello world")); n != 11 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if n, err := f.WriteAt([]byte("J"), 0); n != 1 || err != nil {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if sz, err := f.Size(); sz != 11 || err != nil {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	buf := make([]byte, 8)
	if n, err := f.ReadAt(buf, 6); n != 5 || err != io.EOF || string(buf[:n]) != "world" {
		t.Fatalf("short ReadAt = %d, %v, %q", n, err, buf[:n])
	}
	if err := f.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("wal-000001.wal"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("shard-0/000001.sst", "MANIFEST"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.List()
	want, _ := mem.List()
	if err != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, []string{"MANIFEST", "wal-000001.wal"}) {
		t.Fatalf("List = %v, %v; underlying %v", got, err, want)
	}
	g, err := fs.Open("MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := g.ReadAt(buf[:5], 0); n != 5 || err != nil || string(buf[:5]) != "Jello" {
		t.Fatalf("ReadAt after rename = %d, %v, %q", n, err, buf[:5])
	}
	if err := fs.Remove("MANIFEST"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("MANIFEST"); err == nil {
		t.Fatal("Open of a removed file succeeded")
	}
	if err := fs.Remove("MANIFEST"); err == nil {
		t.Fatal("Remove of a missing file succeeded")
	}

	tr.stop()
	var names []string
	for _, s := range tr.spans {
		if !s.remote || s.op != -1 {
			t.Errorf("span %+v lost its tier or claims an operation", s)
		}
		names = append(names, spanNames[s.name]+":"+fileClassNames[s.file])
	}
	wantSpans := "vfs.create:sst vfs.write:sst vfs.write:sst vfs.sync:sst vfs.readat:sst " +
		"vfs.create:wal vfs.rename:manifest vfs.open:manifest vfs.readat:manifest " +
		"vfs.remove:manifest vfs.open:manifest vfs.remove:manifest"
	if got := strings.Join(names, " "); got != wantSpans {
		t.Errorf("spans:\n got %s\nwant %s", got, wantSpans)
	}
}

// A filesystem span inside the client's operation is that operation's child;
// one outside any operation belongs to maintenance.
func TestTraceParentsSpansByContainment(t *testing.T) {
	tr := newTracer()
	tr.begin(time.Now())
	tr.add(span{start: 100, end: 200, op: 0, name: spanName(opGet), isOp: true})
	tr.add(span{start: 300, end: 400, op: 1, name: spanName(opPut), isOp: true})
	tr.add(span{start: 120, end: 150, op: -1, name: spanFSReadAt, file: fileSST}) // inside op 0
	tr.add(span{start: 190, end: 310, op: -1, name: spanFSWrite, file: fileSST})  // straddles: maintenance
	tr.add(span{start: 310, end: 330, op: -1, name: spanFSWrite, file: fileWAL})  // inside op 1
	tr.add(span{start: 500, end: 540, op: -1, name: spanFSRemove, file: fileSST}) // after: maintenance
	sum := tr.resolve()
	if g := sum.ops[opGet]; g.count != 1 || g.total != 100 || g.storage != 30 {
		t.Errorf("get: %+v", g)
	}
	if p := sum.ops[opPut]; p.count != 1 || p.total != 100 || p.storage != 20 {
		t.Errorf("put: %+v", p)
	}
	if sum.maintenance != 160 {
		t.Errorf("maintenance = %d, want 160", sum.maintenance)
	}
	path := filepath.Join(t.TempDir(), "out", "t.trace.jsonl")
	if err := tr.write(path, 600); err != nil {
		t.Fatal(err)
	}
}

func TestVerdicts(t *testing.T) {
	lower := declared{Name: "get_p50_us", Better: "lower", Bound: 0.10}
	higher := declared{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		d    declared
		a, b []float64
		want string
	}{
		{lower, []float64{100, 101, 99}, []float64{103, 104, 102}, "same"},
		{lower, []float64{100, 101, 99}, []float64{120, 121, 119}, "worse"},
		{lower, []float64{100, 101, 99}, []float64{80, 81, 79}, "better"},
		{higher, []float64{100, 101, 99}, []float64{80, 81, 79}, "worse"},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "better"},
		{lower, []float64{100, 120, 90}, []float64{130, 131, 129}, "unresolved"},
		{lower, []float64{100}, []float64{120}, "worse"},
	} {
		if got, _ := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}
