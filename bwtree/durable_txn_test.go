package bwtree

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/wal"
)

// applyTxnOps mirrors the transaction layer's in-memory install for
// low-level protocol tests (the real engine lives in internal/txn).
func applyTxnOps(d *Durable, ops []wal.TxnOp) {
	s := d.Tree().NewSession()
	defer s.Release()
	for _, op := range ops {
		switch op.Op {
		case wal.OpInsert:
			s.Insert(op.Key, op.Value)
		case wal.OpUpdate:
			s.Update(op.Key, op.Value)
		case wal.OpDelete:
			s.Delete(op.Key, op.Value)
		}
	}
}

func lookup1(t *testing.T, d *Durable, key []byte) (uint64, bool) {
	t.Helper()
	out, err := d.Lookup(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		return 0, false
	}
	return out[0], true
}

// TestDurableTxnReplay covers the three record kinds on both replay
// paths (fold without a checkpoint, parallel with one): a self-contained
// OpTxn applies, a prepare without a surviving decision presumes abort,
// and a prepare plus decision applies.
func TestDurableTxnReplay(t *testing.T) {
	for _, withCP := range []bool{false, true} {
		dir := t.TempDir()
		d, err := OpenDurable(dir, DurableOptions{SyncOnCommit: true})
		if err != nil {
			t.Fatal(err)
		}
		// Baseline singles, optionally folded into a checkpoint so the
		// reopen takes the parallel tail-replay path.
		for i := uint64(0); i < 10; i++ {
			if _, err := d.Insert(dkey(i), i); err != nil {
				t.Fatal(err)
			}
		}
		if withCP {
			if _, err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}

		commit := []wal.TxnOp{
			{Op: wal.OpInsert, Key: dkey(100), Value: 100},
			{Op: wal.OpUpdate, Key: dkey(1), Value: 111},
			{Op: wal.OpDelete, Key: dkey(2)},
		}
		if _, err := d.AppendTxn(wal.OpTxn, 7, commit); err != nil {
			t.Fatal(err)
		}
		applyTxnOps(d, commit)

		orphan := []wal.TxnOp{{Op: wal.OpInsert, Key: dkey(200), Value: 200}}
		if _, err := d.AppendTxn(wal.OpTxnPrep, 8, orphan); err != nil {
			t.Fatal(err)
		}
		// No decision for 8, and no in-memory apply either: the two-phase
		// protocol only applies after the decision is appended.

		decided := []wal.TxnOp{{Op: wal.OpInsert, Key: dkey(300), Value: 300}}
		if _, err := d.AppendTxn(wal.OpTxnPrep, 9, decided); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AppendTxn(wal.OpTxnCommit, 9, nil); err != nil {
			t.Fatal(err)
		}
		applyTxnOps(d, decided)

		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d2, err := OpenDurable(dir, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := lookup1(t, d2, dkey(100)); !ok || v != 100 {
			t.Fatalf("withCP=%v: txn insert lost: %d %v", withCP, v, ok)
		}
		if v, ok := lookup1(t, d2, dkey(1)); !ok || v != 111 {
			t.Fatalf("withCP=%v: txn update lost: %d %v", withCP, v, ok)
		}
		if _, ok := lookup1(t, d2, dkey(2)); ok {
			t.Fatalf("withCP=%v: txn delete lost", withCP)
		}
		if _, ok := lookup1(t, d2, dkey(200)); ok {
			t.Fatalf("withCP=%v: undecided prepare applied", withCP)
		}
		if v, ok := lookup1(t, d2, dkey(300)); !ok || v != 300 {
			t.Fatalf("withCP=%v: decided prepare not applied: %d %v", withCP, v, ok)
		}
		if got := d2.RecoveryStats().MaxTxnID; got != 9 {
			t.Fatalf("withCP=%v: MaxTxnID = %d, want 9", withCP, got)
		}
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableTxnTornTail truncates the log mid-frame through a multi-key
// commit record and proves recovery drops the whole write set — the
// atomicity guarantee under a torn write.
func TestDurableTxnTornTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(dkey(1), 1); err != nil {
		t.Fatal(err)
	}
	last := []wal.TxnOp{
		{Op: wal.OpInsert, Key: dkey(50), Value: 50},
		{Op: wal.OpInsert, Key: dkey(51), Value: 51},
		{Op: wal.OpUpdate, Key: dkey(1), Value: 999},
	}
	if _, err := d.AppendTxn(wal.OpTxn, 5, last); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Shear the final frame: cut a few bytes off the newest segment so
	// the txn record's CRC no longer covers its payload.
	if err := truncateLastSegment(dir, 3); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.RecoveryStats().TornTail {
		t.Fatal("torn tail not detected")
	}
	// None of the three sub-ops may have applied.
	if _, ok := lookup1(t, d2, dkey(50)); ok {
		t.Fatal("half-applied torn txn: key 50 present")
	}
	if _, ok := lookup1(t, d2, dkey(51)); ok {
		t.Fatal("half-applied torn txn: key 51 present")
	}
	if v, ok := lookup1(t, d2, dkey(1)); !ok || v != 1 {
		t.Fatalf("half-applied torn txn: key 1 = %d %v, want 1", v, ok)
	}
}

// truncateLastSegment shears n bytes off the newest log segment,
// simulating a torn write ending inside the final record's frame.
func truncateLastSegment(dir string, n int64) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var segs []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	p := filepath.Join(dir, segs[len(segs)-1])
	fi, err := os.Stat(p)
	if err != nil {
		return err
	}
	return os.Truncate(p, fi.Size()-n)
}

// TestDurableTxnCrashLosesWholeRecord: a buffered (never-synced) txn
// record disappears entirely on crash — trivially atomic. Every fsync
// after the seed insert fails, so the group-commit flusher cannot make
// the record durable before Crash however the goroutines interleave.
func TestDurableTxnCrashLosesWholeRecord(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(dkey(1), 1); err != nil {
		t.Fatal(err)
	}
	errNoSync := errors.New("injected fsync failure")
	restore := wal.SetTestFault(func(op string, size int) (int, error) {
		if op == "sync" {
			return 0, errNoSync
		}
		return size, nil
	})
	defer restore()
	ops := []wal.TxnOp{
		{Op: wal.OpUpdate, Key: dkey(1), Value: 2},
		{Op: wal.OpInsert, Key: dkey(2), Value: 2},
	}
	if _, err := d.AppendTxn(wal.OpTxn, 3, ops); err != nil {
		t.Fatal(err)
	}
	applyTxnOps(d, ops) // applied in memory, never synced
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	restore()
	// Close reports the flusher's sticky error when it tried (and failed)
	// to sync the record before Crash; that failure is the point.
	if err := d.Close(); err != nil && !errors.Is(err, errNoSync) {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if v, ok := lookup1(t, d2, dkey(1)); !ok || v != 1 {
		t.Fatalf("key 1 = %d %v, want pre-txn value 1", v, ok)
	}
	if _, ok := lookup1(t, d2, dkey(2)); ok {
		t.Fatal("unsynced txn partially survived")
	}
}
