package harness

import (
	"fmt"
	"io"
	"time"

	"repro/bwtree"
	"repro/internal/bwproto"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/ycsb"
)

// ServerGateFile is the report the server experiment writes and the
// committed baseline it compares against.
type ServerGateFile struct {
	Config struct {
		Shards  int    `json:"shards"`
		Router  string `json:"router"`
		Keys    int    `json:"keys"`
		Ops     int    `json:"ops"`
		Threads int    `json:"threads"`
		Batch   int    `json:"batch"`
		Seed    uint64 `json:"seed"`
	} `json:"config"`
	// Load is the batched insert phase that populates the store.
	Load ServerGatePoint `json:"load"`
	// Pipelined is the batched YCSB-C run phase: the aggregate-throughput
	// number the gate protects. Latencies are per batch frame.
	Pipelined ServerGatePoint `json:"pipelined"`
	// Point is the unbatched YCSB-C phase: one frame per op, so its
	// latencies are client-observed request round-trip times.
	Point ServerGatePoint `json:"point"`
	// Scan is the YCSB-E (95% scan / 5% insert) phase, exercising the
	// cross-shard scatter-gather path over the wire.
	Scan ServerGatePoint `json:"scan"`
	// Server echoes the server-side counters after the run.
	Server struct {
		ConnsTotal  uint64 `json:"conns_total"`
		Frames      uint64 `json:"frames"`
		ProtoErrors uint64 `json:"proto_errors"`
	} `json:"server"`
}

// ServerGatePoint is one measured phase.
type ServerGatePoint struct {
	Ops   int     `json:"ops"`
	Mops  float64 `json:"mops"`
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us"`
}

// serverGateBatch is the pipelining window: one OpBatch frame per window,
// large enough to amortize the round trip, small enough to stay a
// plausible request-level batch.
const serverGateBatch = 1024

// maxServerShards caps the shard count: past the core count extra shards
// only add merge width to every scan.
const maxServerShards = 16

// ServerGate measures the sharded serving tier end-to-end: an in-process
// bwproto server over loopback TCP fronting sc.Threads hash-routed
// shards, driven by one client connection per worker through the same
// phase runners as the in-process experiments. Three run phases follow a
// batched load: pipelined YCSB-C (OpBatch windows — the throughput the
// gate protects), point YCSB-C (one frame per op — client-observed
// round-trip percentiles), and YCSB-E (cross-shard scatter-gather scans).
//
// The report is checked against the "server" bounds (gate.go): pipelined
// throughput and point round-trip p99 against the committed baseline,
// with tolerances wider than in-process gates because loopback scheduling
// is noisier. Any server-side protocol error, a failed store validation,
// or a store count that disagrees with the loaded key population fails
// the gate unconditionally.
func ServerGate(w io.Writer, sc Scale) {
	shards := sc.Threads
	if shards < 1 {
		shards = 1
	}
	if shards > maxServerShards {
		shards = maxServerShards
	}
	// Network round trips dominate; a fraction of the in-process op count
	// measures the same steady state in CI-friendly time.
	keys := sc.Keys / 5
	if keys < 10_000 {
		keys = 10_000
	}
	pipeOps := sc.Ops / 2
	if pipeOps < 50_000 {
		pipeOps = 50_000
	}
	pointOps := pipeOps / 20
	scanOps := pipeOps / 100

	var rep ServerGateFile
	rep.Config.Shards = shards
	rep.Config.Router = "hash"
	rep.Config.Keys = keys
	rep.Config.Ops = pipeOps
	rep.Config.Threads = sc.Threads
	rep.Config.Batch = serverGateBatch
	rep.Config.Seed = sc.Seed

	router, err := shard.NewRouter("hash", shards)
	if err != nil {
		fmt.Fprintf(w, "server: %v\n", err)
		gateFailures.Add(1)
		return
	}
	st, err := shard.Open(shard.Options{Shards: shards, Router: router, Tree: bwtree.DefaultOptions()})
	if err != nil {
		fmt.Fprintf(w, "server: %v\n", err)
		gateFailures.Add(1)
		return
	}
	defer st.Close()
	srv := bwproto.NewServer(st)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		fmt.Fprintf(w, "server: listen: %v\n", err)
		gateFailures.Add(1)
		return
	}
	defer srv.Shutdown(2 * time.Second)
	ix, err := bwproto.DialIndex(srv.Addr())
	if err != nil {
		fmt.Fprintf(w, "server: dial: %v\n", err)
		gateFailures.Add(1)
		return
	}
	defer ix.Close()

	ks := ycsb.NewKeySet(ycsb.RandInt, keys)
	point := func(ops int, dur time.Duration, lat *obs.LatencySnapshot, class obs.OpClass) ServerGatePoint {
		pt := ServerGatePoint{Ops: ops, Mops: mops(ops, dur)}
		if lat != nil {
			h := lat.Class(class)
			pt.P50us = h.Quantile(0.50) / 1e3
			pt.P99us = h.Quantile(0.99) / 1e3
		}
		return pt
	}

	var loadLat obs.LatencySnapshot
	dur := RunPhaseBatch(ix, ks, ycsb.InsertOnly, keys, sc.Threads, phaseSeed(sc.Seed, 0), serverGateBatch, &loadLat)
	rep.Load = point(keys, dur, &loadLat, obs.OpBatch)

	failed := false
	if got := st.Count(); got != keys {
		failed = true
		fmt.Fprintf(w, "server: FAIL store holds %d keys after loading %d\n", got, keys)
	}

	var pipeLat obs.LatencySnapshot
	dur = RunPhaseBatch(ix, ks, ycsb.ReadOnly, pipeOps, sc.Threads, phaseSeed(sc.Seed, 1), serverGateBatch, &pipeLat)
	rep.Pipelined = point(pipeOps, dur, &pipeLat, obs.OpBatch)

	var pointLat obs.LatencySnapshot
	dur = RunPhaseLat(ix, ks, ycsb.ReadOnly, pointOps, sc.Threads, phaseSeed(sc.Seed, 2), &pointLat)
	rep.Point = point(pointOps, dur, &pointLat, obs.OpRead)

	var scanLat obs.LatencySnapshot
	dur = RunPhaseLat(ix, ks, ycsb.ScanInsert, scanOps, sc.Threads, phaseSeed(sc.Seed, 3), &scanLat)
	rep.Scan = point(scanOps, dur, &scanLat, obs.OpScan)

	ss := srv.Stats()
	rep.Server.ConnsTotal = ss.ConnsTotal
	rep.Server.Frames = ss.Frames
	rep.Server.ProtoErrors = ss.ProtoErrors
	if ss.ProtoErrors != 0 {
		failed = true
		fmt.Fprintf(w, "server: FAIL %d protocol errors during the run\n", ss.ProtoErrors)
	}
	if err := st.Validate(); err != nil {
		failed = true
		fmt.Fprintf(w, "server: FAIL store validation: %v\n", err)
	}

	tbl := NewTable(fmt.Sprintf("Serving tier: %d shards over loopback TCP, %d conns, batch=%d",
		shards, sc.Threads, serverGateBatch), "ops", "Mops/s", "p50 µs", "p99 µs")
	for _, row := range []struct {
		name string
		pt   ServerGatePoint
	}{{"load (batched)", rep.Load}, {"pipelined C", rep.Pipelined}, {"point C", rep.Point}, {"scan E", rep.Scan}} {
		tbl.AddRow(row.name, fmt.Sprint(row.pt.Ops), f3(row.pt.Mops),
			fmt.Sprintf("%.2f", row.pt.P50us), fmt.Sprintf("%.2f", row.pt.P99us))
	}
	tbl.Note("Pipelined/load latencies are per %d-op batch frame; point/scan are per-request round trips.", serverGateBatch)
	tbl.WriteTo(w)

	if failed {
		gateFailures.Add(1)
	}
	checkGate(w, "server", &rep, gateBounds["server"])
}
