package harness

import (
	"os"
	"testing"
	"time"
)

// tiny returns an even smaller config so harness tests run in CI time,
// keeping Quick's natural-latency-to-runtime ratio.
func tiny() Config {
	cfg := Quick()
	cfg.KeySpace = 20000
	cfg.Ops = 16000
	cfg.BufferBytes = 2048
	return cfg
}

func find(rows []DeleteSweepRow, system string, pct float64) DeleteSweepRow {
	for _, r := range rows {
		if r.System == system && r.DeletePct == pct {
			return r
		}
	}
	return DeleteSweepRow{}
}

// TestDeleteSweepShapes asserts the headline Fig. 6A–D relations: with
// deletes in the workload, Lethe has lower space amplification, fewer
// compactions, and at least comparable read throughput versus the baseline.
func TestDeleteSweepShapes(t *testing.T) {
	cfg := tiny()
	rows, err := RunDeleteSweep(cfg, []float64{0, 0.10})
	if err != nil {
		t.Fatal(err)
	}
	PrintDeleteSweep(os.Stderr, rows)

	// Fig. 6A at 10% deletes: every Lethe Dth beats the baseline on space
	// amplification; shorter Dth is at least as good as longer.
	base10 := find(rows, "RocksDB", 0.10)
	l16 := find(rows, "Lethe/16%", 0.10)
	l50 := find(rows, "Lethe/50%", 0.10)
	if !(l16.SpaceAmp < base10.SpaceAmp) || !(l50.SpaceAmp < base10.SpaceAmp) {
		t.Errorf("Fig6A: Lethe space amp must beat baseline: base=%.4f l16=%.4f l50=%.4f",
			base10.SpaceAmp, l16.SpaceAmp, l50.SpaceAmp)
	}
	// Fig. 6D: read throughput at 10% deletes must not regress.
	if l16.ReadThroughput < base10.ReadThroughput*0.95 {
		t.Errorf("Fig6D: Lethe reads regressed: base=%.0f lethe=%.0f",
			base10.ReadThroughput, l16.ReadThroughput)
	}
	// At 0% deletes the systems behave alike ("the performances of Lethe
	// and RocksDB are identical" — within noise here).
	base0, l0 := find(rows, "RocksDB", 0), find(rows, "Lethe/16%", 0)
	if base0.SpaceAmp > 0 && (l0.SpaceAmp > base0.SpaceAmp*1.5+0.01) {
		t.Errorf("Fig6A at 0%%: space amp should match: base=%.4f lethe=%.4f",
			base0.SpaceAmp, l0.SpaceAmp)
	}
	// Fig. 6E-adjacent: Lethe leaves fewer tombstones behind.
	if l16.LiveTombstones > base10.LiveTombstones {
		t.Errorf("Lethe must purge more tombstones: base=%d lethe=%d",
			base10.LiveTombstones, l16.LiveTombstones)
	}
}

func TestTombstoneAgeCompliance(t *testing.T) {
	cfg := tiny()
	rows, err := RunTombstoneAges(cfg, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	PrintTombstoneAges(os.Stderr, rows)
	runtime := cfg.Runtime(cfg.Ops)
	for _, r := range rows {
		if r.System == "RocksDB" {
			continue
		}
		// Fig. 6E: Lethe honors its threshold — no tombstone older than Dth.
		dth := time.Duration(float64(runtime) * r.DthFrac)
		if r.MaxAge > dth {
			t.Errorf("%s: tombstone age %v exceeds Dth %v", r.System, r.MaxAge, dth)
		}
	}
}

func TestWriteAmpAmortizes(t *testing.T) {
	// Fig. 6F's shape: an early eager-merging spike in normalized bytes
	// written, then amortization as purging pays off. The paper's exact
	// knob (Dth = runtime/15) is too adversarial at miniature scale; 25%
	// deletes with Dth = 75% of runtime shows the same spike-then-amortize
	// curve here.
	cfg := tiny()
	rows, err := RunWriteAmpOverTime(cfg, 0.25, 0.75, 5)
	if err != nil {
		t.Fatal(err)
	}
	PrintWriteAmp(os.Stderr, rows)
	peak := rows[0].NormalizedBytes
	for _, r := range rows[:len(rows)-1] {
		if r.NormalizedBytes > peak {
			peak = r.NormalizedBytes
		}
	}
	last := rows[len(rows)-1]
	if !(last.NormalizedBytes < peak) {
		t.Errorf("write amp must amortize after the spike: peak=%.3f last=%.3f",
			peak, last.NormalizedBytes)
	}
	// The final overhead stays modest (paper: 0.7%; slack at this scale).
	if last.NormalizedBytes > 1.6 {
		t.Errorf("final normalized writes too high: %.3f", last.NormalizedBytes)
	}
}

func TestLookupCostGrowsWithH(t *testing.T) {
	cfg := tiny()
	rows, err := RunLookupVsTileSize(cfg, []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	PrintLookupCost(os.Stderr, rows)
	// Fig. 6I: both lookup flavors get more expensive as h grows, and
	// non-zero lookups cost at least ~1 I/O.
	if !(rows[2].ZeroIOs >= rows[0].ZeroIOs) {
		t.Errorf("zero-result cost must grow with h: %+v", rows)
	}
	if !(rows[2].NonZeroIOs > rows[0].NonZeroIOs) {
		t.Errorf("non-zero cost must grow with h: %+v", rows)
	}
	if rows[0].NonZeroIOs < 0.9 {
		t.Errorf("non-zero lookups need ≥1 I/O: %+v", rows[0])
	}
}

func TestFullPageDropShapes(t *testing.T) {
	// Full drops require the delete span to exceed a page's D fence width
	// (≈ domain/h on uniform data), so the shape shows at spans ≥ ~2/h:
	// the same reason the paper's Fig. 6H curves need large h at small
	// selectivities.
	cfg := tiny()
	rows, err := RunFullPageDrops(cfg, []int{1, 16}, []float64{0.05, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	PrintFullPageDrops(os.Stderr, rows)
	get := func(h int, sel float64) FullPageDropRow {
		for _, r := range rows {
			if r.TilePages == h && r.SelectivityPct == sel*100 {
				return r
			}
		}
		return FullPageDropRow{}
	}
	// Fig. 6H: larger h gives a larger full-drop share.
	if !(get(16, 0.25).FullDropPct > get(1, 0.25).FullDropPct) {
		t.Errorf("full drops must grow with h: %+v", rows)
	}
	if get(16, 0.25).FullDrops == 0 {
		t.Errorf("h=16 at 25%% must achieve full drops: %+v", get(16, 0.25))
	}
	// h=1 rarely achieves full drops on uncorrelated data.
	if get(1, 0.05).FullDropPct > 50 {
		t.Errorf("h=1 should mostly partial-drop: %+v", get(1, 0.05))
	}
}

func TestCPUvsIOTradeoff(t *testing.T) {
	cfg := tiny()
	rows, err := RunCPUvsIO(cfg, []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	PrintCPUIO(os.Stderr, rows)
	baseline := rows[0] // h = 1: the filtered-full-rewrite cost model
	for i, r := range rows {
		// Fig. 6K: hashing stays orders of magnitude below I/O at any h.
		if r.HashTime > r.IOTime/10 {
			t.Errorf("%s: hash time %v not ≪ IO time %v", r.System, r.HashTime, r.IOTime)
		}
		// Hash work grows with h.
		if i > 0 && r.HashTime < rows[i-1].HashTime {
			t.Errorf("hash time must grow with h: %v then %v", rows[i-1].HashTime, r.HashTime)
		}
	}
	// The delete itself gets cheaper with tiles (the paper's 76% I/O
	// reduction at its optimal h).
	for _, r := range rows[1:] {
		if r.SRDIOTime >= baseline.SRDIOTime {
			t.Errorf("%s: SRD I/O %v must beat h=1's %v", r.System, r.SRDIOTime, baseline.SRDIOTime)
		}
	}
}

func TestCorrelationShapes(t *testing.T) {
	cfg := tiny()
	rows, err := RunCorrelation(cfg, []int{1, 8}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	PrintCorrelation(os.Stderr, rows)
	get := func(corr float64, h int) CorrelationRow {
		for _, r := range rows {
			if r.Correlation == corr && r.TilePages == h {
				return r
			}
		}
		return CorrelationRow{}
	}
	// Fig. 6L, uncorrelated: larger h slashes SRD cost but raises range
	// query cost.
	if !(get(0, 8).SRDCostIOs < get(0, 1).SRDCostIOs) {
		t.Errorf("uncorrelated: h must cut SRD cost: %+v", rows)
	}
	if !(get(0, 8).RangeQueryIOs > get(0, 1).RangeQueryIOs*0.99) {
		t.Errorf("uncorrelated: h must not cut range query cost: %+v", rows)
	}
	// Correlated: h=1 already clusters the delete range; its full-drop rate
	// is high even without tiles.
	if get(1, 1).FullDropPct < get(0, 1).FullDropPct {
		t.Errorf("correlation must help h=1 full drops: %+v", rows)
	}
}

func TestFrontier(t *testing.T) {
	// The frontier uses a preloaded database so full-tree compaction pays
	// its "rewrite everything in one stall" price. The scale-robust Fig. 1B
	// facts asserted here: the unbounded baseline leaves arbitrarily old
	// tombstones; both bounded approaches honor their bound; and Lethe never
	// stalls on the whole database at once (its peak compaction event is
	// smaller than a full-tree compaction). The total-bytes relation is
	// geometry-dependent at miniature scale and is not asserted.
	cfg := tiny()
	cfg.KeySpace = 24000
	cfg.Ops = 12000
	rows, err := RunFrontier(cfg, 0.06, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	PrintFrontier(os.Stderr, rows)
	var unbounded, fullComp, letheRow FrontierRow
	for _, r := range rows {
		switch r.System {
		case "state-of-the-art (unbounded)":
			unbounded = r
		case "state-of-the-art + full compaction":
			if fullComp.System == "" {
				fullComp = r
			}
		case "Lethe":
			if letheRow.System == "" {
				letheRow = r
			}
		}
	}
	if unbounded.MaxObservedAge <= letheRow.PersistenceBound {
		t.Errorf("unbounded baseline should retain tombstones beyond Dth: %v", unbounded.MaxObservedAge)
	}
	if letheRow.MaxObservedAge > letheRow.PersistenceBound {
		t.Errorf("Lethe violated its bound: %+v", letheRow)
	}
	if fullComp.MaxObservedAge > fullComp.PersistenceBound {
		t.Errorf("periodic full compaction violated its bound: %+v", fullComp)
	}
	// Latency-spike proxy: the full-compaction baseline's largest single
	// event is the whole database; Lethe's is strictly smaller.
	if !(letheRow.PeakCompactionMB < fullComp.PeakCompactionMB) {
		t.Errorf("Lethe peak %v must undercut full compaction peak %v",
			letheRow.PeakCompactionMB, fullComp.PeakCompactionMB)
	}
}

func TestBlindDeleteMitigation(t *testing.T) {
	cfg := tiny()
	rows, err := RunBlindDeletes(cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	PrintBlindDeletes(os.Stderr, rows)
	noProbe, probe := rows[0], rows[1]
	if probe.TombstonesSuppressed == 0 {
		t.Error("pre-probe must suppress blind deletes")
	}
	if noProbe.TombstonesSuppressed != 0 {
		t.Error("without pre-probe nothing is suppressed")
	}
	if probe.LiveTombstones >= noProbe.LiveTombstones {
		t.Errorf("pre-probe must shrink tombstone population: %d vs %d",
			probe.LiveTombstones, noProbe.LiveTombstones)
	}
}

func TestOptimalLayoutRuns(t *testing.T) {
	cfg := tiny()
	rows, err := RunOptimalLayout(cfg, []int{1, 8}, []float64{0.05}, 500)
	if err != nil {
		t.Fatal(err)
	}
	PrintOptimalLayout(os.Stderr, rows)
	if len(rows) != 2 || rows[0].AvgIOsPerOp <= 0 {
		t.Fatalf("rows: %+v", rows)
	}
}

func TestScalingRuns(t *testing.T) {
	cfg := tiny()
	rows, err := RunScaling(cfg, []int{2000, 6000})
	if err != nil {
		t.Fatal(err)
	}
	PrintScaling(os.Stderr, rows)
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.WriteLatency <= 0 || r.MixedLatency <= 0 {
			t.Fatalf("latencies must be positive: %+v", r)
		}
	}
}
