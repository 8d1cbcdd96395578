package harness

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/bwtree"
	"repro/internal/core"
)

// DurabilityFile is the JSON report the durability experiment writes.
type DurabilityFile struct {
	Config struct {
		Keys    int    `json:"keys"`
		Tail    int    `json:"tail_ops"`
		Threads int    `json:"threads"`
		Seed    uint64 `json:"seed"`
	} `json:"config"`
	// WalOff/WalOn are insert throughputs (Mops/s) without and with the
	// log (asynchronous group commit); Ratio = WalOn / WalOff.
	WalOff float64 `json:"wal_off_mops"`
	WalOn  float64 `json:"wal_on_mops"`
	Ratio  float64 `json:"ratio"`
	// Replay is the full-log recovery rate in Mops/s (no checkpoint).
	Replay float64 `json:"replay_mops"`
	// SnapshotLoad and TailReplay are the two phases of a checkpointed
	// recovery: bulk-loading the snapshot (Mkeys/s) and replaying the tail
	// (Mops/s).
	SnapshotLoad float64 `json:"snapshot_load_mkeys"`
	TailReplay   float64 `json:"tail_replay_mops"`
	// Group-commit shape: fsync latency percentiles (µs) and mean records
	// per fsync during the WAL-on load.
	FsyncP50us float64 `json:"fsync_p50_us"`
	FsyncP99us float64 `json:"fsync_p99_us"`
	MeanBatch  float64 `json:"mean_batch"`
	Syncs      uint64  `json:"syncs"`
	LogBytes   uint64  `json:"log_bytes"`
}

// durKey renders the workload key for index i.
func durKey(buf []byte, i uint64) []byte {
	binary.BigEndian.PutUint64(buf, i)
	return buf
}

// durInsertRange inserts keys [lo, hi) through a durable session.
func durInsertRange(d *bwtree.Durable, lo, hi uint64) error {
	s := d.NewSession()
	defer s.Release()
	buf := make([]byte, 8)
	for i := lo; i < hi; i++ {
		if _, err := s.Insert(durKey(buf, i), i); err != nil {
			return err
		}
	}
	return nil
}

// Durability measures what the log layer costs and what recovery buys:
//
//   - insert throughput with the WAL off vs on (asynchronous group
//     commit — the sync-per-commit mode trades throughput for the
//     acknowledged-write guarantee and is bounded by fsync latency, not
//     by the tree),
//   - full-log replay rate into an empty tree,
//   - checkpointed recovery: snapshot bulk-load rate plus tail replay,
//   - the group-commit shape (fsync latency, records per fsync).
//
// The report is checked against the "durability" bounds (gate.go): a
// floor on the WAL-on/off throughput ratio and on the replay rate.
func Durability(w io.Writer, sc Scale) {
	var rep DurabilityFile
	keys := sc.Keys
	tail := keys / 10
	rep.Config.Keys = keys
	rep.Config.Tail = tail
	rep.Config.Threads = sc.Threads
	rep.Config.Seed = sc.Seed

	// Threads shard the key space into ranges; sequential-within-shard
	// insert order keeps the two modes comparable.
	shard := func(n int, run func(lo, hi uint64)) time.Duration {
		var wg sync.WaitGroup
		per := uint64(keys) / uint64(n)
		start := time.Now()
		for t := 0; t < n; t++ {
			lo := uint64(t) * per
			hi := lo + per
			if t == n-1 {
				hi = uint64(keys)
			}
			wg.Add(1)
			go func(lo, hi uint64) {
				defer wg.Done()
				run(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
		return time.Since(start)
	}

	// WAL off: the plain in-memory tree.
	{
		t := core.New(core.DefaultOptions())
		dur := shard(sc.Threads, func(lo, hi uint64) {
			s := t.NewSession()
			defer s.Release()
			buf := make([]byte, 8)
			for i := lo; i < hi; i++ {
				s.Insert(durKey(buf, i), i)
			}
		})
		t.Close()
		rep.WalOff = mops(keys, dur)
	}

	dir, err := os.MkdirTemp("", "bwtree-durability-*")
	if err != nil {
		fmt.Fprintf(w, "durability: cannot create scratch dir: %v\n", err)
		gateFailures.Add(1)
		return
	}
	defer os.RemoveAll(dir)

	// WAL on: same load, asynchronous group commit (appends are buffered,
	// the flusher fsyncs batches off the critical path; Close drains).
	fail := func(stage string, err error) {
		fmt.Fprintf(w, "durability: FAIL %s: %v\n", stage, err)
		gateFailures.Add(1)
	}
	d, err := bwtree.OpenDurable(dir, bwtree.DurableOptions{})
	if err != nil {
		fail("open", err)
		return
	}
	var firstErr error
	var errMu sync.Mutex
	dur := shard(sc.Threads, func(lo, hi uint64) {
		if err := durInsertRange(d, lo, hi); err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
		}
	})
	if firstErr != nil {
		fail("wal-on load", firstErr)
		return
	}
	if err := d.Sync(); err != nil {
		fail("sync", err)
		return
	}
	rep.WalOn = mops(keys, dur)
	if rep.WalOff > 0 {
		rep.Ratio = rep.WalOn / rep.WalOff
	}
	ws := d.WALStats()
	rep.FsyncP50us = ws.Fsync.Quantile(0.50) / 1e3
	rep.FsyncP99us = ws.Fsync.Quantile(0.99) / 1e3
	rep.MeanBatch = ws.Batch.Mean()
	rep.Syncs = ws.Syncs
	rep.LogBytes = ws.Bytes
	if err := d.Close(); err != nil {
		fail("close", err)
		return
	}

	// Full-log replay: reopen with no checkpoint; every insert re-applies.
	d, err = bwtree.OpenDurable(dir, bwtree.DurableOptions{})
	if err != nil {
		fail("recover (log only)", err)
		return
	}
	rec := d.RecoveryStats()
	if rec.Replayed != keys {
		fail("recover (log only)", fmt.Errorf("replayed %d records, want %d", rec.Replayed, keys))
		d.Close()
		return
	}
	if rec.Replay > 0 {
		rep.Replay = mops(rec.Replayed, rec.Replay)
	}

	// Checkpoint, then write a tail of updates, then recover again: the
	// snapshot carries the bulk, the log only the tail.
	if _, err := d.Checkpoint(); err != nil {
		fail("checkpoint", err)
		d.Close()
		return
	}
	{
		s := d.NewSession()
		buf := make([]byte, 8)
		for i := 0; i < tail; i++ {
			if _, err := s.Update(durKey(buf, uint64(i)), uint64(i)+1); err != nil {
				s.Release()
				fail("tail", err)
				d.Close()
				return
			}
		}
		s.Release()
	}
	if err := d.Close(); err != nil {
		fail("close after tail", err)
		return
	}
	d, err = bwtree.OpenDurable(dir, bwtree.DurableOptions{})
	if err != nil {
		fail("recover (checkpointed)", err)
		return
	}
	rec = d.RecoveryStats()
	if int(rec.SnapshotKeys) != keys || rec.Replayed != tail {
		fail("recover (checkpointed)", fmt.Errorf("loaded %d keys + %d records, want %d + %d", rec.SnapshotKeys, rec.Replayed, keys, tail))
		d.Close()
		return
	}
	if rec.SnapshotLoad > 0 {
		rep.SnapshotLoad = mops(int(rec.SnapshotKeys), rec.SnapshotLoad)
	}
	if rec.Replay > 0 {
		rep.TailReplay = mops(rec.Replayed, rec.Replay)
	}
	if err := d.Tree().Validate(); err != nil {
		fail("validate", err)
		d.Close()
		return
	}
	d.Close()

	tbl := NewTable(fmt.Sprintf("Durability: %d keys + %d tail ops, %d threads", keys, tail, sc.Threads),
		"Mops/s")
	tbl.AddRow("insert, WAL off", f3(rep.WalOff))
	tbl.AddRow("insert, WAL on (async)", f3(rep.WalOn))
	tbl.AddRow("recovery: full-log replay", f3(rep.Replay))
	tbl.AddRow("recovery: snapshot load", f3(rep.SnapshotLoad))
	tbl.AddRow("recovery: tail replay", f3(rep.TailReplay))
	tbl.Note("WAL-on/off ratio %.3f; %d fsyncs (p50 %.1fµs, p99 %.1fµs), mean batch %.0f records, %.1f MiB logged.",
		rep.Ratio, rep.Syncs, rep.FsyncP50us, rep.FsyncP99us, rep.MeanBatch, float64(rep.LogBytes)/(1<<20))
	tbl.WriteTo(w)

	checkGate(w, "durability", &rep, gateBounds["durability"])
}
