package main

import (
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// samples merges every client's latencies of one class, sorted. The result
// is kept: several metrics read the same class.
func (ph *phase) samples(cl class) []uint32 {
	if ph.sorted[cl] == nil {
		all := []uint32{}
		for _, c := range ph.clients {
			all = append(all, c.lat[cl]...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		ph.sorted[cl] = all
	}
	return ph.sorted[cl]
}

// all merges the latencies of every class, sorted.
func (ph *phase) all() []uint32 {
	var all []uint32
	for cl := class(0); cl < numClasses; cl++ {
		all = append(all, ph.samples(cl)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// quantile of sorted nanosecond samples, in nanoseconds; 0 when empty.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func (ph *phase) userBytes() int64 {
	var n int64
	for _, c := range ph.clients {
		n += c.userBytes
	}
	return n
}

// bytesWritten is everything the engine wrote to either tier during the
// phase, write-ahead log included.
func (ph *phase) bytesWritten() int64 {
	return ph.after.io.BytesWritten - ph.before.io.BytesWritten +
		ph.after.remote.BytesWritten - ph.before.remote.BytesWritten
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the metrics a caller of the engine would see. They are
// measured with tracing off.
func endToEnd(ph *phase, spaceAmp float64, setups []time.Duration) metrics {
	m := metrics{}
	m.set("ops_per_s", ratio(float64(ph.attempted), ph.wall.Seconds()), "1/s")
	gets, puts := ph.samples(classGet), ph.samples(classPut)
	m.set("get_p50_us", quantile(gets, 0.50)/1e3, "us")
	m.set("get_p95_us", quantile(gets, 0.95)/1e3, "us")
	m.set("put_p50_us", quantile(puts, 0.50)/1e3, "us")
	m.set("put_p95_us", quantile(puts, 0.95)/1e3, "us")
	m.set("write_amp", ratio(float64(ph.bytesWritten()), float64(ph.userBytes())), "ratio")
	m.set("space_amp", spaceAmp, "ratio")
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	m.set("setup_s", median(secs), "s")
	return m
}
