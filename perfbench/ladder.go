package main

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/bwtree"
	"repro/internal/bwproto"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Ladder rungs. Each rung replays the workload's op stream through one
// more layer than the rung below it; the warm-up rungs replay it untimed
// on a fresh store, and rungUntraced replays the workload's own top rung
// again with span recording off.
const (
	rungE2E = iota
	rungWarmVolatile
	rungCore
	rungShard
	rungWarmDurable
	rungDurable
	rungTxn
	rungWire
	rungUntraced
	nRungs
)

var rungNames = [nRungs]string{"e2e", "warm-volatile", "core", "shard", "warm-durable", "durable", "txn", "wire", "untraced"}

const (
	// phaseEvery samples one op in 7 per session for phase traces
	// (coprime with the op mix, so sampling does not phase-lock).
	phaseEvery = 7
	// maxRungOps caps each client's ops per rung, bounding the spans
	// kept in memory.
	maxRungOps = 300_000
	pings      = 1000
)

// rungResult is one rung's replay.
type rungResult struct {
	recs []*recorder
	tot  totals
}

func (r *rungResult) mean(cls int) float64 { return meanUS(r.recs, cls) }

// perPair is read time per pair returned, in µs.
func (r *rungResult) perPair() float64 {
	var ns int64
	for _, rec := range r.recs {
		ns += rec.sum[clsRead]
	}
	if r.tot.pairs == 0 {
		return 0
	}
	return float64(ns) / float64(r.tot.pairs) / 1e3
}

func (r *rungResult) count(cls int) int64 {
	var n int64
	for _, rec := range r.recs {
		n += int64(len(rec.lat[cls]))
	}
	return n
}

// ladder is the traced run's state.
type ladder struct {
	cfg   *config
	w     *workload
	p     *population
	seg   time.Duration
	rungs [nRungs]*rungResult
	vals  map[string]float64
	spans [][]span
	errs  []error
}

func (l *ladder) check(err error) {
	if err != nil {
		l.errs = append(l.errs, err)
	}
}

// replay runs one rung: a fresh gen per client replays the same stream.
func (l *ladder) replay(rung int, mk func(i int) client) *rungResult {
	ws := make([]*worker, nClients)
	gens := make([]*gen, nClients)
	traced := rung != rungUntraced && rung != rungWarmVolatile && rung != rungWarmDurable
	for i := range ws {
		ws[i] = newWorker(l.p, mk(i), uint8(rung), traced)
		gens[i] = newGen(l.w, l.p, l.cfg.seed, i, rung)
	}
	dur, limit := l.seg, int64(maxRungOps)
	if !traced {
		limit = 0
	}
	if rung == rungWarmVolatile || rung == rungWarmDurable {
		dur *= 2
	}
	drive(ws, gens, dur, limit, 1)
	r := &rungResult{recs: recsOf(ws)}
	r.tot = sumRecs(r.recs)
	for _, wk := range ws {
		wk.c.release()
		if wk.rec.spans != nil {
			l.spans = append(l.spans, wk.rec.spans)
		}
	}
	l.rungs[rung] = r
	return r
}

// phaseAgg accumulates sampled phase traces: self time per phase.
type phaseAgg struct {
	ops  int64
	self [obs.NumPhases]int64
	has  [obs.NumPhases]int64
}

func (a *phaseAgg) add(trs []bwtree.OpTrace) {
	for i := range trs {
		tr := &trs[i]
		sp := tr.Spans[:tr.NSpans]
		a.ops++
		var seen [obs.NumPhases]bool
		for j := range sp {
			a.self[sp[j].Phase] += selfTime(sp, j)
			seen[sp[j].Phase] = true
		}
		for ph, ok := range seen {
			if ok {
				a.has[ph]++
			}
		}
	}
}

// selfTime is span j's duration minus the part its direct children
// (spans nested in it and in no other nested span) cover.
func selfTime(sp []obs.Span, j int) int64 {
	in := func(a, b obs.Span) bool { // a nested in b
		return a.Start >= b.Start && a.Start+a.Dur <= b.Start+b.Dur && a.Dur < b.Dur
	}
	self := sp[j].Dur
	for k := range sp {
		if k == j || !in(sp[k], sp[j]) {
			continue
		}
		direct := true
		for m := range sp {
			if m != j && m != k && in(sp[k], sp[m]) && in(sp[m], sp[j]) {
				direct = false
				break
			}
		}
		if direct {
			self -= sp[k].Dur
		}
	}
	return self
}

// sampled aggregates the phase traces of ops sampled while fn runs:
// the rings keep each session's most recent PhaseTraceBuffer traces,
// drained after fn so that draining takes no CPU from the timed calls.
func sampled(st *shard.Store, fn func()) *phaseAgg {
	st.PhaseTraces() // drop traces from before the rung
	fn()
	a := &phaseAgg{}
	a.add(st.PhaseTraces())
	return a
}

func trees(st *shard.Store) []*bwtree.Tree {
	var ts []*bwtree.Tree
	for _, sh := range st.Shards() {
		ts = append(ts, sh.Tree())
	}
	return ts
}

func walStats(st *shard.Store) wal.Stats {
	var agg wal.Stats
	for _, sh := range st.Shards() {
		s := sh.Durable().WALStats()
		agg.Appends += s.Appends
		agg.Syncs += s.Syncs
		agg.Bytes += s.Bytes
		agg.Fsync.Merge(&s.Fsync)
	}
	return agg
}

// histDelta is after minus before, for cumulative histograms.
func histDelta(after, before obs.HistSnapshot) obs.HistSnapshot {
	for i := range after.Counts {
		after.Counts[i] -= before.Counts[i]
	}
	after.Sum -= before.Sum
	return after
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the traced run: the workload's op stream replayed at
// each rung of the ladder, with every call timed and kept as a span.
//
//	core     per-shard bwtree.Session (shard picked outside the timing)
//	shard    volatile shard.Session
//	wire     bwproto.Conn to a loopback server over the volatile store
//	durable  durable SyncOnCommit shard.Session
//	txn      in-process txn.Session over the durable store
//
// Every workload climbs every rung, so each per-layer metric is measured
// on each workload's own op stream. The volatile and the durable store
// start from the same bulk-loaded trees (the durable one recovers them
// from a snapshot), and each store gets an untimed warm-up replay, so
// rungs on the two stores compare like with like.
func runTraced(cfg *config, w *workload) (*result, error) {
	p := newPopulation(cfg.keys(w), cfg.seed, true)
	shards := max(w.shards, 1)
	router := shard.NewHashRouter(shards)
	p.route(router)
	opts := bwtree.DefaultOptions()
	opts.PhaseSampleEvery = phaseEvery
	opts.PhaseTraceBuffer = 8192
	l := &ladder{cfg: cfg, w: w, p: p, seg: cfg.dur() / 10, vals: map[string]float64{}}
	c0, ok0 := readCPU()

	walDir := filepath.Join(cfg.dir, "wal")
	if err := freshDir(walDir); err != nil {
		return nil, err
	}
	vol := &env{}
	var err error
	if vol.st, err = shard.Open(shard.Options{Shards: shards, Router: router, Tree: opts}); err != nil {
		return nil, err
	}
	if err := l.bulkLoad(vol.st, walDir); err != nil {
		return nil, errors.Join(err, vol.close())
	}
	protoErrs, volIns, err := l.volatileRungs(vol)
	l.check(checkStore(vol.st, len(p.keys)+int(volIns)))
	if err = errors.Join(err, vol.close()); err != nil {
		return nil, err
	}

	dur := &env{dir: walDir}
	if dur.st, err = shard.Open(shard.Options{Shards: shards, Router: router, Tree: opts, WALDir: walDir, SyncOnCommit: true}); err != nil {
		return nil, errors.Join(err, dur.close())
	}
	durIns := l.durableRungs(dur)
	l.check(checkStore(dur.st, len(p.keys)+int(durIns)))
	if err = dur.close(); err != nil {
		return nil, err
	}

	c1, ok1 := readCPU()
	l.vals["host.steal_frac"] = stealFrac(c0, c1, ok0 && ok1)
	l.vals["bwproto.proto_errors"] = float64(protoErrs)
	if protoErrs != 0 {
		l.check(fmt.Errorf("%d protocol errors", protoErrs))
	}
	for _, r := range []int{rungCore, rungShard, rungDurable, rungTxn, rungWire} {
		l.vals["ladder."+rungNames[r]+"_op_us"] = l.rungs[r].mean(clsOp)
	}
	var tot totals
	for _, r := range l.rungs {
		if r != nil {
			tot.ops += r.tot.ops
			tot.failed += r.tot.failed
			tot.errs = append(tot.errs, r.tot.errs...)
		}
	}
	checkErr := errors.Join(l.errs...)
	report(tot, checkErr)
	if err := l.writeSpans(); err != nil {
		return nil, err
	}
	res := &result{Correct: tot.failed == 0 && checkErr == nil, Attempted: tot.ops, Failed: tot.failed}
	return res, emit(res, perLayer, l.vals)
}

// bulkLoad fills every shard tree of st with its part of the population
// in key order, and snapshots each into the durable store's shard
// directory under walDir, so the durable store recovers the same trees.
func (l *ladder) bulkLoad(st *shard.Store, walDir string) error {
	for i, t := range trees(st) {
		idx := l.p.byShard[i]
		j := 0
		err := t.BulkLoad(func() ([]byte, uint64, bool) {
			if j == len(idx) {
				return nil, 0, false
			}
			k := idx[j]
			j++
			return l.p.keys[k], loadValue(k), true
		})
		if err != nil {
			return err
		}
		if _, err := bwtree.Snapshot(t, filepath.Join(walDir, fmt.Sprintf("shard-%03d", i))); err != nil {
			return err
		}
	}
	return nil
}

// volatileRungs runs the core, shard and wire rungs on the volatile
// store.
func (l *ladder) volatileRungs(e *env) (protoErrs uint64, inserted int64, err error) {
	core := func(int) client { return newCoreClient(trees(e.st)) }
	inserted += l.replay(rungWarmVolatile, core).tot.inserted
	st0 := e.st.Stats()
	var cr *rungResult
	ph := sampled(e.st, func() { cr = l.replay(rungCore, core) })
	l.coreMetrics(cr, ph, st0, e.st.Stats(), e.st)
	inserted += cr.tot.inserted + l.untraced(rungCore, core)
	sr := l.replay(rungShard, func(int) client { return &storeClient{s: e.st.NewSession()} })
	inserted += sr.tot.inserted
	l.vals["shard.route_us"] = sr.mean(clsWrite) - cr.mean(clsWrite)
	l.vals["shard.read_us_per_pair"] = sr.perPair() - cr.perPair()
	protoErrs, ins, err := l.wireRungs(e)
	return protoErrs, inserted + ins, err
}

// untraced replays rung again with span recording off when it is the
// workload's own top rung, reports the difference as the tracing
// overhead, and returns the keys it inserted.
func (l *ladder) untraced(rung int, mk func(int) client) int64 {
	if rung != l.w.top() {
		return 0
	}
	u := l.replay(rungUntraced, mk)
	l.vals["trace.overhead_us"] = l.rungs[rung].mean(clsOp) - u.mean(clsOp)
	return u.tot.inserted
}

// coreMetrics derives the core and epoch metrics from the core rung.
func (l *ladder) coreMetrics(core *rungResult, ph *phaseAgg, before, after bwtree.Stats, st *shard.Store) {
	v := l.vals
	v["core.read_us"] = core.mean(clsRead)
	v["core.write_us"] = core.mean(clsWrite)
	v["core.read_us_per_pair"] = core.perPair()
	for name, phase := range map[string]obs.Phase{
		"core.descend_ns": obs.PhaseDescend, "core.chain_walk_ns": obs.PhaseChainWalk,
		"core.base_search_ns": obs.PhaseBaseSearch, "core.cas_ns": obs.PhaseCAS,
		"core.consolidate_ns": obs.PhaseConsolidate,
	} {
		v[name] = ratio(float64(ph.self[phase]), float64(ph.ops))
	}
	kops := float64(after.Ops-before.Ops) / 1e3
	v["core.aborts_per_kop"] = ratio(float64(after.Aborts-before.Aborts), kops)
	v["core.cas_failures_per_kop"] = ratio(float64(after.CASFailures-before.CASFailures), kops)
	v["core.consolidations_per_kop"] = ratio(float64(after.Consolidations-before.Consolidations), kops)
	v["core.pointer_chases_per_op"] = ratio(float64(after.PointerChases-before.PointerChases), kops*1e3)
	var chain float64
	var height int
	for _, t := range trees(st) {
		ss := t.StructureStats()
		chain += ss.AvgLeafChainLen / float64(st.NumShards())
		height = max(height, ss.Height)
	}
	v["core.leaf_chain_len"] = chain
	v["core.height"] = float64(height)
	v["epoch.unreclaimed"] = float64(after.GC.Retired - after.GC.Reclaimed)
	v["epoch.lag"] = float64(after.GC.EpochLag)
}

// durableRungs runs the durable and txn rungs on the durable store and
// returns the keys they inserted.
func (l *ladder) durableRungs(d *env) (inserted int64) {
	store := func(int) client { return &storeClient{s: d.st.NewSession()} }
	inserted += l.replay(rungWarmDurable, store).tot.inserted
	w0 := walStats(d.st)
	var dr *rungResult
	ph := sampled(d.st, func() { dr = l.replay(rungDurable, store) })
	w1 := walStats(d.st)
	writes := float64(dr.count(clsWrite))
	v := l.vals
	v["durable.write_us"] = dr.mean(clsWrite) - l.rungs[rungShard].mean(clsWrite)
	v["durable.wal_append_ns"] = ratio(float64(ph.self[obs.PhaseWALAppend]), float64(ph.has[obs.PhaseWALAppend]))
	v["durable.fsync_wait_us"] = ratio(float64(ph.self[obs.PhaseFsyncWait]), float64(ph.has[obs.PhaseFsyncWait])) / 1e3
	syncs := float64(w1.Syncs - w0.Syncs)
	v["wal.fsyncs_per_write"] = ratio(syncs, writes)
	v["wal.records_per_fsync"] = ratio(float64(w1.Appends-w0.Appends), syncs)
	fs := histDelta(w1.Fsync, w0.Fsync)
	v["wal.fsync_p50_us"] = fs.Quantile(0.5) / 1e3
	v["wal.bytes_per_write"] = ratio(float64(w1.Bytes-w0.Bytes), writes)

	txs := txn.NewForShard(d.st)
	t0 := txs.Stats()
	tr := l.replay(rungTxn, func(int) client {
		return &txnRungClient{storeClient: storeClient{s: d.st.NewSession()}, t: txs.NewSession()}
	})
	t1 := txs.Stats()
	v["txn.commit_us"] = tr.mean(clsWrite)
	vh := histDelta(t1.Validate, t0.Validate)
	v["txn.validate_p99_us"] = vh.Quantile(0.99) / 1e3
	conflicts := float64(t1.Conflicts - t0.Conflicts)
	v["txn.conflict_frac"] = ratio(conflicts, conflicts+float64(t1.Commits-t0.Commits))
	return inserted + dr.tot.inserted + tr.tot.inserted
}

// wireRungs serves e's volatile store on loopback and runs the wire
// rung, whose ops the server runs through the shard rung's calls.
func (l *ladder) wireRungs(e *env) (protoErrs uint64, inserted int64, err error) {
	e.srv = bwproto.NewServer(e.st)
	if err := e.srv.Listen("127.0.0.1:0"); err != nil {
		return 0, 0, err
	}
	if e.conns, err = dial(e.srv.Addr()); err != nil {
		return 0, 0, err
	}
	rtt := make([]uint32, 0, pings)
	for i := 0; i < pings; i++ {
		t0 := now()
		if err := e.conns[0].Ping(); err != nil {
			return 0, 0, err
		}
		rtt = append(rtt, uint32(now()-t0))
	}
	slices.Sort(rtt)
	l.vals["bwproto.ping_rtt_us"] = pct(rtt, 0.5)

	f0 := e.srv.Stats().Frames
	wr := l.replay(rungWire, func(i int) client { return &wireClient{c: e.conns[i]} })
	frames := float64(e.srv.Stats().Frames - f0)
	l.vals["bwproto.overhead_us"] = wr.mean(clsOp) - l.rungs[rungShard].mean(clsOp)
	l.vals["bwproto.frames_per_op"] = ratio(frames, float64(wr.tot.ops))
	e.conns = nil // released by the rung's clients
	inserted = wr.tot.inserted
	if l.w.top() == rungWire {
		conns, err := dial(e.srv.Addr())
		if err != nil {
			return 0, 0, err
		}
		inserted += l.untraced(rungWire, func(i int) client { return &wireClient{c: conns[i]} })
	}
	return e.srv.Stats().ProtoErrors, inserted, nil
}

// writeSpans writes every kept span, gzipped, as one tab-separated line:
// span id, parent id (-1 for none), request id, rung, call, start and
// end in ns since process start.
func (l *ladder) writeSpans() error {
	path := filepath.Join(l.cfg.dir, "spans-"+l.w.name+".tsv.gz")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	bw := bufio.NewWriterSize(zw, 1<<20)
	fmt.Fprintln(bw, "span\tparent\treq\trung\tcall\tstart_ns\tend_ns")
	base := 0
	for _, spans := range l.spans {
		for i, s := range spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", base+i, parent, s.req, rungNames[s.rung], callNames[s.call], s.start, s.end)
		}
		base += len(spans)
	}
	l.spans = nil
	if err := errors.Join(bw.Flush(), zw.Close()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
