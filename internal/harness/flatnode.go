package harness

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/ycsb"
)

// FlatNodeFile is the report the flatnode experiment writes and the
// committed baseline it compares against: the same tree measured with
// the flat arena base-node layout and with the slice layout.
type FlatNodeFile struct {
	Config struct {
		Workload string `json:"workload"`
		KeyType  string `json:"keytype"`
		Keys     int    `json:"keys"`
		Ops      int    `json:"ops"`
		Threads  int    `json:"threads"`
		Seed     uint64 `json:"seed"`
	} `json:"config"`
	Flat  FlatNodePoint `json:"flat"`
	Slice FlatNodePoint `json:"slice"`
	// LookupSpeedup is Flat.LookupMops / Slice.LookupMops — the gated
	// ratio. ReadMostlySpeedup and ScanSpeedup are the same ratio for the
	// mixed phases (reported, not gated: the mixes spend much of their
	// time in delta-chain replay and update appends, which cost the same
	// under both layouts and dilute the base-probe difference).
	LookupSpeedup     float64 `json:"lookup_speedup"`
	ReadMostlySpeedup float64 `json:"read_mostly_speedup"`
	ScanSpeedup       float64 `json:"scan_speedup"`
	// Inner is the inner-node arm: the same duel design on a deliberately
	// deep tree, FlatInnerNodes on vs off (both sides leaf-flat).
	Inner FlatInnerArm `json:"inner"`
}

// FlatInnerArm reports the inner-node layout arm: small leaf nodes force
// several inner levels, so every lookup pays multiple routing probes and
// the inner layout dominates the descent cost.
type FlatInnerArm struct {
	// KeyType names the separator population: Path keys (hierarchical,
	// long shared prefixes within a node) are the regime the prefix-skip
	// arena layout and its suffix-word search plane target.
	KeyType string `json:"keytype"`
	// InnerNodeSize is the arm's inner fanout.
	InnerNodeSize int `json:"inner_node_size"`
	// InnerLevels is the number of inner levels of the measured trees
	// (tree height minus the leaf level); the gate design wants >= 3.
	InnerLevels int            `json:"inner_levels"`
	On          FlatInnerPoint `json:"on"`
	Off         FlatInnerPoint `json:"off"`
	// LookupSpeedup is the On/Off consolidated-lookup speedup, estimated
	// as the median of per-segment-pair duration ratios from the
	// interleaved duel (robust against machine-noise phases and GC-pause
	// outliers). ScanRatio is On/Off YCSB-E throughput. GCPtrsReduction
	// is Off/On GC-visible pointers per inner node. All three are gated
	// (see the "flatnode" bounds in gate.go).
	LookupSpeedup   float64 `json:"lookup_speedup"`
	ScanRatio       float64 `json:"scan_ratio"`
	GCPtrsReduction float64 `json:"gc_ptrs_reduction"`
}

// FlatInnerPoint is one measured inner-layout side (FlatInnerNodes on or
// off; leaf bases are flat on both).
type FlatInnerPoint struct {
	LookupMops        float64 `json:"lookup_mops"`
	LookupAllocsPerOp float64 `json:"lookup_allocs_per_op"`
	ScanMops          float64 `json:"scan_mops"`
	GCPtrsPerInner    float64 `json:"gc_ptrs_per_inner"`
	InnerFlatBases    int     `json:"inner_flat_bases"`
	InnerArenaBytes   int64   `json:"inner_arena_bytes"`
}

// FlatNodePoint is one measured layout.
type FlatNodePoint struct {
	// ReadMops is read-mostly (YCSB-B, uniform requests) throughput;
	// ScanMops is scan-heavy (YCSB-E) throughput.
	ReadMops float64 `json:"read_mops"`
	ScanMops float64 `json:"scan_mops"`
	// LookupMops is single-threaded unique-key Lookup throughput over a
	// fully consolidated tree — the pure base-probe regime the layout
	// targets, with no delta-chain replay diluting it. LookupAllocsPerOp/
	// LookupBytesPerOp are heap-allocation deltas per op over the same
	// probe loop.
	LookupMops        float64 `json:"lookup_mops"`
	LookupAllocsPerOp float64 `json:"lookup_allocs_per_op"`
	LookupBytesPerOp  float64 `json:"lookup_bytes_per_op"`
	// Structure footprint after the read phase (see StructureStats).
	FlatBases         int     `json:"flat_bases"`
	ArenaBytes        int64   `json:"arena_bytes"`
	KeyBytes          int64   `json:"key_bytes"`
	GCPtrsPerLeaf     float64 `json:"gc_ptrs_per_leaf"`
	LeafBytesPerEntry float64 `json:"leaf_bytes_per_entry"`
}

// The read-mostly phase runs ycsb.ReadMostly (YCSB-B) with
// ycsb.DistUniform requests (YCSB's requestdistribution=uniform knob)
// via RunPhaseDist. The layout under test changes how base nodes are
// probed from memory; under Zipfian skew most requests hit a handful of
// cache-resident hot nodes and the phase degenerates into an L1
// benchmark of neither layout. Uniform requests keep the probe stream
// cold — the same regime the paper's Rand-Int read workloads measure.

// FlatNode is the flat base-node layout gate: on Email keys it measures,
// under the flat arena layout and the slice layout in one process, (a)
// single-threaded unique-key Lookup throughput and allocations over a
// fully consolidated tree — the pure base-probe regime the layout
// changes — and (b) the read-mostly (YCSB-B, uniform requests — see the
// note above) and scan (YCSB-E) mixes for context. It then runs the
// inner-node arm (flatInnerArm) and checks the whole report against the
// "flatnode" bounds (gate.go): the in-process flat/slice Lookup speedup,
// allocation-free flat Lookup, and flat Lookup throughput against the
// committed baseline, plus the inner arm's bounds. The mixed-phase ratios
// are reported, not gated: delta-chain replay and update appends cost the
// same under both layouts and dilute them toward 1.
//
// Email keys are the interesting case for a layout experiment: variable
// string-like keys with long shared prefixes, where the slice layout
// pays a pointer chase per probe and the flat layout skips the common
// prefix entirely. The in-process flat/slice ratio is machine-
// independent; the baseline comparison is the noise-tolerant tripwire.
func FlatNode(w io.Writer, sc Scale) {
	var rep FlatNodeFile
	rep.Config.Workload = ycsb.ReadMostly.String() + " (uniform)"
	rep.Config.KeyType = ycsb.Email.String()
	rep.Config.Keys = sc.Keys
	rep.Config.Ops = sc.Ops
	rep.Config.Threads = sc.Threads
	rep.Config.Seed = sc.Seed

	flatOpts := core.DefaultOptions()
	flatOpts.FlatBaseNodes = true
	sliceOpts := core.DefaultOptions()
	sliceOpts.FlatBaseNodes = false

	// Measure with the collector active: the layout's GC cost — tracing
	// one pointer per key versus three per node — is part of what the
	// experiment exists to show, and at the default GOGC the 5% update
	// churn never triggers a collection mid-phase, silently excluding
	// mark work from both sides. GOGC=20 pins GC pacing identically for
	// both layouts.
	defer debug.SetGCPercent(debug.SetGCPercent(20))

	scanOps := sc.Ops / 8 // scans visit ~48 pairs each
	if scanOps < 1 {
		scanOps = 1
	}

	// Both trees are built up front and stay resident for the whole
	// experiment, so every measured phase below runs against the same
	// live heap and the same machine conditions.
	type side struct {
		idx  index.Index
		tree *core.Tree
		sess *core.Session
		buf  []uint64
		pt   FlatNodePoint
	}
	ks := ycsb.NewKeySet(ycsb.Email, sc.Keys)
	build := func(label string, opts core.Options) *side {
		s := &side{idx: index.NewBwTreeWith(label, opts)}
		// The load cursor is a one-shot atomic deal-out; rewind it so every
		// side loads the same population. (Without this, the second build
		// got ExtraKeys instead and the lookup duel probed one side with
		// all hits and the other with all misses.)
		ks.ResetLoad()
		RunPhase(s.idx, ks, ycsb.InsertOnly, sc.Keys, sc.Threads, phaseSeed(sc.Seed, 0))
		s.tree = s.idx.(index.BwBacked).Tree()
		s.tree.ConsolidateAll()
		s.buf = make([]uint64, 0, 8)
		return s
	}
	slice := build("slice", sliceOpts)
	flat := build("flat", flatOpts)
	defer slice.idx.Close()
	defer flat.idx.Close()

	// Mixed phases, reported for context. Consolidating first makes the
	// phase probe base nodes rather than the load phase's leftover delta
	// chains; the 5% update stream then regrows chains the same way under
	// both layouts, and a final consolidation restores the pure-base state
	// the lookup duel below wants.
	mixes := func(s *side) {
		dur := RunPhaseDist(s.idx, ks, ycsb.ReadMostly, ycsb.DistUniform, sc.Ops, sc.Threads, phaseSeed(sc.Seed, 1))
		s.pt.ReadMops = mops(sc.Ops, dur)
		dur = RunPhase(s.idx, ks, ycsb.ScanInsert, scanOps, sc.Threads, phaseSeed(sc.Seed, 2))
		s.pt.ScanMops = mops(scanOps, dur)
		s.tree.ConsolidateAll()
	}
	mixes(slice)
	mixes(flat)

	// Quiescent single-threaded Lookup allocation count per layout,
	// probing loaded keys with a reused value buffer. The keyset is
	// generated in random order, so walking it sequentially is a uniform
	// probe stream over the sorted tree.
	allocs := func(s *side) {
		s.sess = s.tree.NewSession()
		const probes = 100_000
		for i := 0; i < 1024; i++ { // warm up lazy paths before counting
			s.buf = s.sess.Lookup(ks.Keys[i%len(ks.Keys)], s.buf[:0])
		}
		runtime.GC()
		var mem0, mem1 runtime.MemStats
		runtime.ReadMemStats(&mem0)
		for i := 0; i < probes; i++ {
			s.buf = s.sess.Lookup(ks.Keys[i%len(ks.Keys)], s.buf[:0])
		}
		runtime.ReadMemStats(&mem1)
		s.pt.LookupAllocsPerOp = float64(mem1.Mallocs-mem0.Mallocs) / float64(probes)
		s.pt.LookupBytesPerOp = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(probes)
	}
	allocs(slice)
	allocs(flat)

	// The gated measurement: an interleaved lookup duel. The two layouts
	// alternate short probe segments over identical key sequences, so a
	// shared machine's slow minutes land on both sides about equally
	// instead of on whichever layout happened to be running — cross-phase
	// drift is what made a measure-one-then-the-other design produce
	// ratios swinging ±15% between runs of identical code.
	probes := sc.Ops
	if probes > 500_000 {
		probes = 500_000
	}
	segOps := probes / 10
	if segOps < 1 {
		segOps = 1
	}
	segments := probes / segOps
	var sliceDur, flatDur time.Duration
	segment := func(s *side, seg int) time.Duration {
		t0 := time.Now()
		for j := 0; j < segOps; j++ {
			s.buf = s.sess.Lookup(ks.Keys[(seg*segOps+j)%len(ks.Keys)], s.buf[:0])
		}
		return time.Since(t0)
	}
	for seg := 0; seg < segments; seg++ {
		sliceDur += segment(slice, seg)
		flatDur += segment(flat, seg)
	}
	slice.sess.Release()
	flat.sess.Release()
	slice.pt.LookupMops = mops(segments*segOps, sliceDur)
	flat.pt.LookupMops = mops(segments*segOps, flatDur)

	footprint := func(s *side) {
		st := s.tree.StructureStats()
		s.pt.FlatBases = st.FlatBases
		s.pt.ArenaBytes = st.ArenaBytes
		s.pt.KeyBytes = st.KeyBytes
		s.pt.GCPtrsPerLeaf = st.GCPtrsPerLeaf
		s.pt.LeafBytesPerEntry = st.LeafBytesPerEntry
	}
	footprint(slice)
	footprint(flat)

	rep.Slice, rep.Flat = slice.pt, flat.pt
	if rep.Slice.LookupMops > 0 {
		rep.LookupSpeedup = rep.Flat.LookupMops / rep.Slice.LookupMops
	}
	if rep.Slice.ReadMops > 0 {
		rep.ReadMostlySpeedup = rep.Flat.ReadMops / rep.Slice.ReadMops
	}
	if rep.Slice.ScanMops > 0 {
		rep.ScanSpeedup = rep.Flat.ScanMops / rep.Slice.ScanMops
	}
	rep.Inner = flatInnerArm(sc)

	tbl := NewTable(fmt.Sprintf("Flatnode gate: Email keys, %d threads", sc.Threads),
		"lookup Mops/s", "read Mops/s", "scan Mops/s", "lookup allocs/op",
		"GC ptrs/leaf", "leaf B/entry")
	addRow := func(label string, pt FlatNodePoint) {
		tbl.AddRow(label, f3(pt.LookupMops), f3(pt.ReadMops), f3(pt.ScanMops),
			fmt.Sprintf("%.4f", pt.LookupAllocsPerOp),
			fmt.Sprintf("%.1f", pt.GCPtrsPerLeaf), fmt.Sprintf("%.1f", pt.LeafBytesPerEntry))
	}
	addRow("slice", rep.Slice)
	addRow("flat", rep.Flat)
	tbl.Note("flat/slice lookup speedup %.3fx, read-mostly %.3fx, scan %.3fx.",
		rep.LookupSpeedup, rep.ReadMostlySpeedup, rep.ScanSpeedup)
	tbl.WriteTo(w)
	flatInnerTable(w, rep.Inner)

	checkGate(w, "flatnode", &rep, gateBounds["flatnode"])
}

// flatInnerArm runs the inner-node layout arm: the same interleaved-duel
// design as the leaf arm, but on a deliberately deep tree (inner fanout
// shrunk to 8, so Email-scale populations stand 4-5 inner levels tall)
// and with FlatInnerNodes as the on/off axis. Both sides keep
// FlatBaseNodes on, so the duel isolates the inner layout: every lookup
// pays InnerLevels routing probes before it ever touches a leaf.
func flatInnerArm(sc Scale) FlatInnerArm {
	var arm FlatInnerArm
	// Fanout 64 makes each inner search a real multi-compare probe (a
	// slice-layout node at ~45 GC pointers) across 3+ inner levels;
	// wider nodes concentrate descent time in the search itself — where
	// the layouts differ: a cold slice probe touches a header line and a
	// scattered key line, a cold arena probe one contiguous line —
	// instead of in the per-level fixed costs (mapping-table load, chain
	// checks) that are identical on both sides. Leaf nodes shrink to 16
	// so the leaf probe (identical on both sides) stops dominating the
	// descent. Path keys give the separator sets the long within-node
	// common prefixes (30-40 of 48 bytes at the bottom inner level) that
	// hierarchical key spaces produce: the slice side re-compares those
	// bytes on every probe, the arena side compares them once per node
	// and binary-searches suffixes.
	const innerFanout, leafSize = 64, 16
	arm.InnerNodeSize = innerFanout
	arm.KeyType = ycsb.Path.String()

	type side struct {
		idx  index.Index
		tree *core.Tree
		sess *core.Session
		buf  []uint64
		pt   FlatInnerPoint
	}
	ks := ycsb.NewKeySet(ycsb.Path, sc.Keys)
	build := func(label string, on bool) *side {
		opts := core.DefaultOptions()
		opts.FlatBaseNodes = true
		opts.FlatInnerNodes = on
		opts.InnerNodeSize = innerFanout
		opts.LeafNodeSize = leafSize
		s := &side{idx: index.NewBwTreeWith(label, opts)}
		ks.ResetLoad() // each side loads the full population (see build above)
		RunPhase(s.idx, ks, ycsb.InsertOnly, sc.Keys, sc.Threads, phaseSeed(sc.Seed, 3))
		s.tree = s.idx.(index.BwBacked).Tree()
		s.tree.ConsolidateAll()
		s.buf = make([]uint64, 0, 8)
		return s
	}
	off := build("inner-off", false)
	on := build("inner-on", true)
	defer off.idx.Close()
	defer on.idx.Close()

	// Scan-heavy phase (YCSB-E): every scan descends through the inner
	// levels once, then walks right-sibling leaves. Interleaved in
	// alternating segments, like the lookup duel below, so clock drift
	// and GC waves hit both sides equally. Consolidating afterwards
	// restores the pure-base state the lookup duel wants.
	scanOps := sc.Ops / 8
	if scanOps < 1 {
		scanOps = 1
	}
	const scanSegs = 8
	segScan := scanOps / scanSegs
	if segScan < 1 {
		segScan = 1
	}
	var offScan, onScan time.Duration
	for seg := 0; seg < scanSegs; seg++ {
		offScan += RunPhase(off.idx, ks, ycsb.ScanInsert, segScan, sc.Threads, phaseSeed(sc.Seed, uint64(4+seg)))
		onScan += RunPhase(on.idx, ks, ycsb.ScanInsert, segScan, sc.Threads, phaseSeed(sc.Seed, uint64(4+seg)))
	}
	off.pt.ScanMops = mops(scanSegs*segScan, offScan)
	on.pt.ScanMops = mops(scanSegs*segScan, onScan)
	off.tree.ConsolidateAll()
	on.tree.ConsolidateAll()

	allocs := func(s *side) {
		s.sess = s.tree.NewSession()
		const probes = 100_000
		for i := 0; i < 1024; i++ {
			s.buf = s.sess.Lookup(ks.Keys[i%len(ks.Keys)], s.buf[:0])
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < probes; i++ {
			s.buf = s.sess.Lookup(ks.Keys[i%len(ks.Keys)], s.buf[:0])
		}
		runtime.ReadMemStats(&m1)
		s.pt.LookupAllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(probes)
	}
	allocs(off)
	allocs(on)

	// Interleaved lookup duel, same drift-cancelling design as the leaf
	// arm: alternating short segments over identical key sequences. The
	// two sides of a segment pair run adjacent in time, so machine-wide
	// throughput phases (scheduler noise, neighbor load) hit both and
	// cancel in the pair's ratio; the speedup below is the median of the
	// per-pair ratios, which also discards segments a GC pause landed in.
	probes := sc.Ops
	if probes > 500_000 {
		probes = 500_000
	}
	segOps := probes / 25
	if segOps < 1 {
		segOps = 1
	}
	segments := probes / segOps
	var onDur, offDur time.Duration
	ratios := make([]float64, 0, segments)
	segment := func(s *side, seg int) time.Duration {
		t0 := time.Now()
		for j := 0; j < segOps; j++ {
			s.buf = s.sess.Lookup(ks.Keys[(seg*segOps+j)%len(ks.Keys)], s.buf[:0])
		}
		return time.Since(t0)
	}
	for seg := 0; seg < segments; seg++ {
		// Alternate which side leads the pair, so whatever cache state a
		// segment inherits from its predecessor is handed to both sides
		// equally often.
		var o, n time.Duration
		if seg%2 == 0 {
			o = segment(off, seg)
			n = segment(on, seg)
		} else {
			n = segment(on, seg)
			o = segment(off, seg)
		}
		offDur += o
		onDur += n
		if n > 0 {
			ratios = append(ratios, float64(o)/float64(n))
		}
	}
	off.sess.Release()
	on.sess.Release()
	off.pt.LookupMops = mops(segments*segOps, offDur)
	on.pt.LookupMops = mops(segments*segOps, onDur)
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		arm.LookupSpeedup = ratios[len(ratios)/2]
	}

	foot := func(s *side) {
		st := s.tree.StructureStats()
		s.pt.GCPtrsPerInner = st.GCPtrsPerInner
		s.pt.InnerFlatBases = st.InnerFlatBases
		s.pt.InnerArenaBytes = st.InnerArenaBytes
		if lv := st.Height - 1; lv > arm.InnerLevels {
			arm.InnerLevels = lv
		}
	}
	foot(off)
	foot(on)

	arm.On, arm.Off = on.pt, off.pt
	if arm.LookupSpeedup == 0 && arm.Off.LookupMops > 0 {
		// Degenerate scale (no segment pairs): fall back to the raw ratio.
		arm.LookupSpeedup = arm.On.LookupMops / arm.Off.LookupMops
	}
	if arm.Off.ScanMops > 0 {
		arm.ScanRatio = arm.On.ScanMops / arm.Off.ScanMops
	}
	if arm.On.GCPtrsPerInner > 0 {
		arm.GCPtrsReduction = arm.Off.GCPtrsPerInner / arm.On.GCPtrsPerInner
	}
	return arm
}

// flatInnerTable renders the inner arm's table; its bounds are part of
// the "flatnode" table in gate.go.
func flatInnerTable(w io.Writer, arm FlatInnerArm) {
	tbl := NewTable(fmt.Sprintf("Flatnode inner arm: fanout %d, %d inner levels",
		arm.InnerNodeSize, arm.InnerLevels),
		"lookup Mops/s", "scan Mops/s", "lookup allocs/op",
		"GC ptrs/inner", "inner flat bases", "inner arena MB")
	addRow := func(label string, pt FlatInnerPoint) {
		tbl.AddRow(label, f3(pt.LookupMops), f3(pt.ScanMops),
			fmt.Sprintf("%.4f", pt.LookupAllocsPerOp),
			fmt.Sprintf("%.1f", pt.GCPtrsPerInner),
			fmt.Sprintf("%d", pt.InnerFlatBases),
			fmt.Sprintf("%.2f", float64(pt.InnerArenaBytes)/(1<<20)))
	}
	addRow("inner-off", arm.Off)
	addRow("inner-on", arm.On)
	tbl.Note("on/off lookup speedup %.3fx (median of segment-pair ratios), scan ratio %.3fx, GC pointers %.1fx fewer.",
		arm.LookupSpeedup, arm.ScanRatio, arm.GCPtrsReduction)
	tbl.WriteTo(w)
}
