package harness

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/ycsb"
)

// BenchGateFile is the report the bench-gate experiment writes and the
// committed baseline it compares against.
type BenchGateFile struct {
	// Config pins what was measured, for report readers; runs with a
	// different config are compared anyway (the gate is a regression
	// tripwire, not a lab instrument).
	Config struct {
		Workload string `json:"workload"`
		KeyType  string `json:"keytype"`
		Keys     int    `json:"keys"`
		Ops      int    `json:"ops"`
		Threads  int    `json:"threads"`
		Batch    int    `json:"batch"`
		Seed     uint64 `json:"seed"`
	} `json:"config"`
	Unbatched BenchGatePoint `json:"unbatched"`
	Batched   BenchGatePoint `json:"batched"`
	// Speedup is Batched.Mops / Unbatched.Mops.
	Speedup float64 `json:"speedup"`
}

// BenchGatePoint is one measured mode.
type BenchGatePoint struct {
	Mops  float64 `json:"mops"`
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us"`
	// AllocsPerOp/BytesPerOp are process-wide heap-allocation deltas
	// (runtime.MemStats) across the measured phase divided by its op
	// count, so a PR that reintroduces per-lookup allocations trips the
	// gate even when throughput hides it.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// LeafHits/ParentHits report how often the batched traversal reused
	// its cache instead of descending from the root (zero when unbatched).
	LeafHits   uint64 `json:"leaf_hits,omitempty"`
	ParentHits uint64 `json:"parent_hits,omitempty"`
}

// benchGateBatch is the window size the gate measures with: large enough
// that sorted keys cluster per leaf (leaves hold ~128 keys, so the window
// must sample the key space densely), small enough to be a plausible
// request-level batch.
const benchGateBatch = 2048

// BenchGate is the benchmark-regression gate: it measures the OpenBw-Tree
// on the read-heavy YCSB-C mix unbatched and batched (window of 2048) and
// checks the report against the "hotpath" bounds (gate.go): the batched
// path must beat the unbatched path measured in the same process by the
// speedup floor, and batched throughput, p99, allocs/op and bytes/op must
// hold within tolerance of the committed baseline. Allocation bounds carry
// an absolute slack: the baseline sits near zero allocs/op, where a
// percentage tolerance would permit nothing (or everything).
//
// Both modes run with the tree's internal latency histograms enabled so
// the p99 comparison carries equal instrumentation overhead.
func BenchGate(w io.Writer, sc Scale) {
	var rep BenchGateFile
	rep.Config.Workload = ycsb.ReadOnly.String()
	rep.Config.KeyType = ycsb.RandInt.String()
	rep.Config.Keys = sc.Keys
	rep.Config.Ops = sc.Ops
	rep.Config.Threads = sc.Threads
	rep.Config.Batch = benchGateBatch
	rep.Config.Seed = sc.Seed

	opts := core.DefaultOptions()
	opts.LatencyHistograms = true
	measure := func(batch int) BenchGatePoint {
		idx := index.NewBwTreeWith("gate", opts)
		defer idx.Close()
		ks := ycsb.NewKeySet(ycsb.RandInt, sc.Keys)
		RunPhase(idx, ks, ycsb.InsertOnly, sc.Keys, sc.Threads, phaseSeed(sc.Seed, 0))
		tree := idx.(index.BwBacked).Tree()
		preStats := tree.Stats()
		runtime.GC()
		var mem0, mem1 runtime.MemStats
		runtime.ReadMemStats(&mem0)
		dur := RunPhaseBatch(idx, ks, ycsb.ReadOnly, sc.Ops, sc.Threads, phaseSeed(sc.Seed, 1), batch, nil)
		runtime.ReadMemStats(&mem1)
		var pt BenchGatePoint
		pt.Mops = mops(sc.Ops, dur)
		pt.AllocsPerOp = float64(mem1.Mallocs-mem0.Mallocs) / float64(sc.Ops)
		pt.BytesPerOp = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(sc.Ops)
		if lat := tree.Latencies(); lat != nil {
			reads := lat.Class(obs.OpRead)
			pt.P50us = reads.Quantile(0.50) / 1e3
			pt.P99us = reads.Quantile(0.99) / 1e3
		}
		st := tree.Stats()
		pt.LeafHits = st.BatchLeafHits - preStats.BatchLeafHits
		pt.ParentHits = st.BatchParentHits - preStats.BatchParentHits
		return pt
	}
	rep.Unbatched = measure(0)
	rep.Batched = measure(benchGateBatch)
	if rep.Unbatched.Mops > 0 {
		rep.Speedup = rep.Batched.Mops / rep.Unbatched.Mops
	}

	tbl := NewTable(fmt.Sprintf("Bench gate: YCSB-C Rand-Int, %d threads, batch=%d", sc.Threads, benchGateBatch),
		"Mops/s", "p50 µs", "p99 µs", "allocs/op", "B/op", "leaf hits", "parent hits")
	tbl.AddRow("unbatched", f3(rep.Unbatched.Mops), fmt.Sprintf("%.2f", rep.Unbatched.P50us),
		fmt.Sprintf("%.2f", rep.Unbatched.P99us),
		fmt.Sprintf("%.3f", rep.Unbatched.AllocsPerOp), fmt.Sprintf("%.1f", rep.Unbatched.BytesPerOp), "-", "-")
	tbl.AddRow("batched", f3(rep.Batched.Mops), fmt.Sprintf("%.2f", rep.Batched.P50us),
		fmt.Sprintf("%.2f", rep.Batched.P99us),
		fmt.Sprintf("%.3f", rep.Batched.AllocsPerOp), fmt.Sprintf("%.1f", rep.Batched.BytesPerOp),
		fmt.Sprint(rep.Batched.LeafHits), fmt.Sprint(rep.Batched.ParentHits))
	tbl.WriteTo(w)

	checkGate(w, "hotpath", &rep, gateBounds["hotpath"])
}
