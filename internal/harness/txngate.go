package harness

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/bwtree"
	"repro/internal/bwproto"
	"repro/internal/histcheck"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/txn"
)

// TxnGateFile is the report the txn experiment writes and the committed
// baseline it compares against.
type TxnGateFile struct {
	Config struct {
		AccountsLow int    `json:"accounts_low"`
		AccountsHot int    `json:"accounts_hot"`
		Initial     uint64 `json:"initial"`
		Threads     int    `json:"threads"`
		Seed        uint64 `json:"seed"`
	} `json:"config"`
	// TransferLow is the low-contention bank-transfer phase (2-read/
	// 2-write OCC commits spread over a large account set): the
	// commit-throughput number the gate protects.
	TransferLow TxnGatePoint `json:"transfer_low"`
	// TransferHot hammers 64 accounts from every worker; its conflict
	// ratio is the interesting number, and its full history feeds the
	// serializability checker.
	TransferHot TxnGatePoint `json:"transfer_hot"`
	// ReadOnly is 8-key read-only audits: validation with no write
	// resolution or stamp installation.
	ReadOnly TxnGatePoint `json:"read_only"`
	// Wire is 2-key transfers through OpTxn frames over loopback TCP;
	// latencies are client-observed round trips.
	Wire TxnGatePoint `json:"wire"`
	// Engine echoes the in-process store's counters after the run.
	Engine struct {
		Commits       uint64  `json:"commits"`
		Conflicts     uint64  `json:"conflicts"`
		ReadOnly      uint64  `json:"read_only"`
		ValidateP99us float64 `json:"validate_p99_us"`
	} `json:"engine"`
}

// TxnGatePoint is one measured phase. Mcommits counts committed
// transactions only; Attempts includes conflicted retries.
type TxnGatePoint struct {
	Attempts  int     `json:"attempts"`
	Commits   int     `json:"commits"`
	Conflicts int     `json:"conflicts"`
	Mcommits  float64 `json:"mcommits_per_s"`
	P50us     float64 `json:"p50_us"`
	P99us     float64 `json:"p99_us"`
}

// txnAcctKey is an 8-byte big-endian account key (order-preserving).
func txnAcctKey(i int) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], uint64(i))
	return k[:]
}

// txnGatePhase drives attempts transfer/audit operations through fn from
// threads workers, each on its own session, and folds the results into
// one point. fn returns (committed, conflicted); infrastructure errors
// surface through errOut.
func txnGatePhase(attempts, threads int, seed uint64, newSession func() index.TxnSession,
	fn func(s index.TxnSession, rng *rand.Rand) (bool, bool, error)) (TxnGatePoint, time.Duration, error) {
	var commits, conflicts atomic.Uint64
	var firstErr atomic.Value
	var lat obs.Histogram
	var wg sync.WaitGroup
	per := attempts / threads
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			s := newSession()
			defer s.Release()
			rng := rand.New(rand.NewSource(int64(phaseSeed(seed, uint64(t)))))
			for i := 0; i < per; i++ {
				opStart := time.Now()
				ok, conflict, err := fn(s, rng)
				lat.Record(time.Since(opStart))
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				if ok {
					commits.Add(1)
				}
				if conflict {
					conflicts.Add(1)
				}
			}
		}(t)
	}
	wg.Wait()
	dur := time.Since(start)
	var snap obs.HistSnapshot
	lat.AddTo(&snap)
	pt := TxnGatePoint{
		Attempts:  per * threads,
		Commits:   int(commits.Load()),
		Conflicts: int(conflicts.Load()),
		Mcommits:  mops(int(commits.Load()), dur),
		P50us:     snap.Quantile(0.50) / 1e3,
		P99us:     snap.Quantile(0.99) / 1e3,
	}
	var err error
	if e := firstErr.Load(); e != nil {
		err = e.(error)
	}
	return pt, dur, err
}

// txnTransfer moves a random amount between two random accounts: read
// both versioned balances, skip if the source cannot cover it, commit
// both updated balances against the observed versions.
func txnTransfer(s index.TxnSession, rng *rand.Rand, accounts int, initial uint64) (bool, bool, error) {
	from := rng.Intn(accounts)
	to := rng.Intn(accounts - 1)
	if to >= from {
		to++
	}
	fk, tk := txnAcctKey(from), txnAcctKey(to)
	fv, fver, _, err := s.GetVersion(fk)
	if err != nil {
		return false, false, err
	}
	tv, tver, _, err := s.GetVersion(tk)
	if err != nil {
		return false, false, err
	}
	amount := 1 + uint64(rng.Intn(int(initial/10+1)))
	if fv < amount {
		return false, false, nil
	}
	res, err := s.CommitTxn(
		[]index.TxnRead{{Key: fk, Ver: fver}, {Key: tk, Ver: tver}},
		[]index.TxnWrite{
			{Op: index.TxnPut, Key: fk, Value: fv - amount},
			{Op: index.TxnPut, Key: tk, Value: tv + amount},
		})
	if err != nil {
		return false, false, err
	}
	return res.Status == index.TxnCommitted, res.Status == index.TxnConflict, nil
}

// txnSeedAccounts populates accounts with initial each through chunked
// write-only transactions on one session.
func txnSeedAccounts(s index.TxnSession, accounts int, initial uint64) error {
	const chunk = 1024
	for at := 0; at < accounts; at += chunk {
		end := at + chunk
		if end > accounts {
			end = accounts
		}
		writes := make([]index.TxnWrite, 0, end-at)
		for i := at; i < end; i++ {
			writes = append(writes, index.TxnWrite{Op: index.TxnPut, Key: txnAcctKey(i), Value: initial})
		}
		res, err := s.CommitTxn(nil, writes)
		if err != nil {
			return err
		}
		if res.Status != index.TxnCommitted {
			return fmt.Errorf("seeding txn conflicted with nothing else running")
		}
	}
	return nil
}

// txnSweepSum reads every account balance (non-transactionally; call
// only when the workers are quiescent).
func txnSweepSum(s index.TxnSession, accounts int) (uint64, error) {
	var sum uint64
	for i := 0; i < accounts; i++ {
		v, _, _, err := s.GetVersion(txnAcctKey(i))
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// TxnGate measures the OCC transaction engine (internal/txn) end to end
// and protects its hot path with a committed baseline. Three in-process
// phases run over a volatile tree — low-contention bank transfers (the
// gated commit throughput), a 64-account hot spot whose full history
// feeds the serializability checker, and read-only audits — followed by
// transfers through OpTxn frames against a bwproto server over loopback
// TCP. Money conservation after every phase, a clean serialization
// graph, and zero infrastructure errors are unconditional; the "txn"
// bounds (gate.go) also hold low-contention commit throughput within a
// tolerance of the committed baseline (wider than for plain reads:
// conflict scheduling is noisier).
func TxnGate(w io.Writer, sc Scale) {
	const initial = uint64(1000)
	accountsLow := sc.Keys / 20
	if accountsLow < 10_000 {
		accountsLow = 10_000
	}
	const accountsHot = 64
	opsLow := sc.Ops / 10
	if opsLow < 100_000 {
		opsLow = 100_000
	}
	opsHot := opsLow / 2
	opsRO := opsLow / 4
	wireOps := opsLow / 20

	var rep TxnGateFile
	rep.Config.AccountsLow = accountsLow
	rep.Config.AccountsHot = accountsHot
	rep.Config.Initial = initial
	rep.Config.Threads = sc.Threads
	rep.Config.Seed = sc.Seed

	failed := false
	fail := func(format string, args ...any) {
		failed = true
		fmt.Fprintf(w, "txn: FAIL "+format+"\n", args...)
	}

	st := txn.NewForTree(bwtree.New(bwtree.DefaultOptions()))
	seedSess := st.NewSession()
	if err := txnSeedAccounts(seedSess, accountsLow, initial); err != nil {
		seedSess.Release()
		fail("seeding: %v", err)
		gateFailures.Add(1)
		return
	}
	seedSess.Release()

	checkSum := func(phase string, s index.TxnSession, accounts int) {
		want := uint64(accounts) * initial
		got, err := txnSweepSum(s, accounts)
		if err != nil {
			fail("%s: balance sweep: %v", phase, err)
		} else if got != want {
			fail("%s: total balance %d, want %d (commit atomicity broken)", phase, got, want)
		}
	}

	// Phase 1: low contention — the gated throughput.
	low, _, err := txnGatePhase(opsLow, sc.Threads, phaseSeed(sc.Seed, 10),
		func() index.TxnSession { return st.NewSession() },
		func(s index.TxnSession, rng *rand.Rand) (bool, bool, error) {
			return txnTransfer(s, rng, accountsLow, initial)
		})
	if err != nil {
		fail("transfer-low: %v", err)
	}
	rep.TransferLow = low
	ss := st.NewSession()
	checkSum("transfer-low", ss, accountsLow)
	ss.Release()

	// Phase 2: hot spot on its own store, every commit recorded for the
	// serialization-graph check.
	hotStore := txn.NewForTree(bwtree.New(bwtree.DefaultOptions()))
	chk := histcheck.NewTxnChecker()
	hotSeed := chk.Wrap(hotStore.NewSession())
	if err := txnSeedAccounts(hotSeed, accountsHot, initial); err != nil {
		fail("hot seeding: %v", err)
	}
	hotSeed.Release()
	hot, _, err := txnGatePhase(opsHot, sc.Threads, phaseSeed(sc.Seed, 11),
		func() index.TxnSession { return chk.Wrap(hotStore.NewSession()) },
		func(s index.TxnSession, rng *rand.Rand) (bool, bool, error) {
			return txnTransfer(s, rng, accountsHot, initial)
		})
	if err != nil {
		fail("transfer-hot: %v", err)
	}
	rep.TransferHot = hot
	hs := hotStore.NewSession()
	checkSum("transfer-hot", hs, accountsHot)
	hs.Release()
	if violations := chk.Check(); len(violations) > 0 {
		for i, v := range violations {
			if i >= 5 {
				fail("serializability: ... and %d more violations", len(violations)-i)
				break
			}
			fail("serializability: %s: %s", v.Kind, v.Msg)
		}
	} else {
		fmt.Fprintf(w, "txn: serialization graph over %d hot-spot commits is acyclic\n", hot.Commits)
	}

	// Phase 3: read-only audits over the low-contention store.
	ro, _, err := txnGatePhase(opsRO, sc.Threads, phaseSeed(sc.Seed, 12),
		func() index.TxnSession { return st.NewSession() },
		func(s index.TxnSession, rng *rand.Rand) (bool, bool, error) {
			reads := make([]index.TxnRead, 0, 8)
			for i := 0; i < 8; i++ {
				k := txnAcctKey(rng.Intn(accountsLow))
				_, ver, _, err := s.GetVersion(k)
				if err != nil {
					return false, false, err
				}
				reads = append(reads, index.TxnRead{Key: k, Ver: ver})
			}
			res, err := s.CommitTxn(reads, nil)
			if err != nil {
				return false, false, err
			}
			return res.Status == index.TxnCommitted, res.Status == index.TxnConflict, nil
		})
	if err != nil {
		fail("read-only: %v", err)
	}
	rep.ReadOnly = ro

	est := st.Stats()
	rep.Engine.Commits = est.Commits
	rep.Engine.Conflicts = est.Conflicts
	rep.Engine.ReadOnly = est.ReadOnly
	rep.Engine.ValidateP99us = est.Validate.Quantile(0.99) / 1e3

	// Phase 4: the same transfers through OpTxn frames over loopback.
	rep.Wire = txnGateWire(w, sc, wireOps, initial, fail)

	tbl := NewTable(fmt.Sprintf("OCC transactions: %d workers, %d/%d accounts",
		sc.Threads, accountsLow, accountsHot), "attempts", "commits", "conflicts", "Mtxn/s", "p50 µs", "p99 µs")
	for _, row := range []struct {
		name string
		pt   TxnGatePoint
	}{{"transfer (low contention)", rep.TransferLow}, {"transfer (64-acct hot spot)", rep.TransferHot},
		{"read-only audit (8 keys)", rep.ReadOnly}, {"transfer over loopback TCP", rep.Wire}} {
		tbl.AddRow(row.name, fmt.Sprint(row.pt.Attempts), fmt.Sprint(row.pt.Commits),
			fmt.Sprint(row.pt.Conflicts), f3(row.pt.Mcommits),
			fmt.Sprintf("%.2f", row.pt.P50us), fmt.Sprintf("%.2f", row.pt.P99us))
	}
	tbl.Note("Each transfer is 2 versioned reads + a validated 2-write commit; latencies are per attempt.")
	tbl.WriteTo(w)

	if failed {
		gateFailures.Add(1)
	}
	checkGate(w, "txn", &rep, gateBounds["txn"])
}

// txnGateWire runs the loopback-TCP transfer phase against a fresh
// sharded store fronted by a bwproto server: one connection per worker,
// 2-key transfers as OpTxn frames.
func txnGateWire(w io.Writer, sc Scale, ops int, initial uint64, fail func(string, ...any)) TxnGatePoint {
	const accounts = 4096
	shards := sc.Threads
	if shards < 1 {
		shards = 1
	}
	if shards > maxServerShards {
		shards = maxServerShards
	}
	router, err := shard.NewRouter("hash", shards)
	if err != nil {
		fail("wire: %v", err)
		return TxnGatePoint{}
	}
	st, err := shard.Open(shard.Options{Shards: shards, Router: router, Tree: bwtree.DefaultOptions()})
	if err != nil {
		fail("wire: %v", err)
		return TxnGatePoint{}
	}
	defer st.Close()
	srv := bwproto.NewServer(st)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		fail("wire: listen: %v", err)
		return TxnGatePoint{}
	}
	defer srv.Shutdown(2 * time.Second)
	ix, err := bwproto.DialIndex(srv.Addr())
	if err != nil {
		fail("wire: dial: %v", err)
		return TxnGatePoint{}
	}
	defer ix.Close()

	seed := ix.NewTxnSession()
	err = txnSeedAccounts(seed, accounts, initial)
	seed.Release()
	if err != nil {
		fail("wire: seeding: %v", err)
		return TxnGatePoint{}
	}

	pt, _, err := txnGatePhase(ops, sc.Threads, phaseSeed(sc.Seed, 13),
		func() index.TxnSession { return ix.NewTxnSession() },
		func(s index.TxnSession, rng *rand.Rand) (bool, bool, error) {
			return txnTransfer(s, rng, accounts, initial)
		})
	if err != nil {
		fail("wire: %v", err)
	}
	sum := ix.NewTxnSession()
	got, err := txnSweepSum(sum, accounts)
	sum.Release()
	if err != nil {
		fail("wire: balance sweep: %v", err)
	} else if want := uint64(accounts) * initial; got != want {
		fail("wire: total balance %d, want %d", got, want)
	}
	if ss := srv.Stats(); ss.ProtoErrors != 0 {
		fail("wire: %d protocol errors during the run", ss.ProtoErrors)
	}
	return pt
}
