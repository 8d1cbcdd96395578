package main

import (
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// pct returns the q-quantile (nearest rank) of sorted ns samples, in µs.
func pct(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e3
}

// meanUS is the mean of one class across recorders, in µs.
func meanUS(recs []*recorder, cls int) float64 {
	var sum, n int64
	for _, r := range recs {
		sum += r.sum[cls]
		n += int64(len(r.lat[cls]))
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// totals sums the counters of a set of recorders.
type totals struct {
	ops, failed, inserted, pairs int64
	errs                         []string
}

func sumRecs(recs []*recorder) totals {
	var t totals
	for _, r := range recs {
		t.ops += r.ops
		t.failed += r.failed
		t.inserted += r.inserted
		t.pairs += r.pairs
		t.errs = append(t.errs, r.errs...)
	}
	return t
}

func recsOf(ws []*worker) []*recorder {
	recs := make([]*recorder, len(ws))
	for i, w := range ws {
		recs[i] = &w.rec
	}
	return recs
}

// windowPct is the median over windows of each window's q-quantile of
// class cls, in µs. A stall confined to a few windows moves it less than
// it moves one quantile over the whole run.
func windowPct(recs []*recorder, cls int, q float64) float64 {
	var per []float64
	for k := range recs[0].marks {
		var all []uint32
		for _, r := range recs {
			lo := 0
			if k > 0 {
				lo = r.marks[k-1].n[cls]
			}
			all = append(all, r.lat[cls][lo:r.marks[k].n[cls]]...)
		}
		if len(all) > 0 {
			slices.Sort(all)
			per = append(per, pct(all, q))
		}
	}
	return median(per)
}

// windowRate is the median over windows of ops per second.
func windowRate(recs []*recorder, win time.Duration) float64 {
	per := make([]float64, len(recs[0].marks))
	for k := range per {
		for _, r := range recs {
			var lo int64
			if k > 0 {
				lo = r.marks[k-1].ops
			}
			per[k] += float64(r.marks[k].ops - lo)
		}
		per[k] /= win.Seconds()
	}
	return median(per)
}

// cpuTimes is the host's cumulative CPU time, in clock ticks: all of it
// and the part the hypervisor stole.
type cpuTimes struct{ total, steal uint64 }

// readCPU reads the aggregate cpu line of /proc/stat; ok is false where
// it is unavailable.
func readCPU() (t cpuTimes, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return t, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return t, false
		}
		if i < 8 { // guest time is already counted in user and nice
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealFrac is the share of host CPU time stolen between two readings,
// or 0 if either is missing.
func stealFrac(a, b cpuTimes, ok bool) float64 {
	if !ok || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
