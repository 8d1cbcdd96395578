package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/bwtree"
	"repro/internal/bwproto"
	"repro/internal/shard"
)

// setupRounds is how many times an untraced run sets the system up;
// setup_s and mem_bytes_per_key report the median, and the last round's
// system is the one measured.
const setupRounds = 3

// windows is how many equal windows an untraced run is cut into; each
// rate and latency quantile is the median of its per-window values.
const windows = 20

// env is one loaded system under test.
type env struct {
	tree  *bwtree.Tree // bare-tree workload
	st    *shard.Store
	srv   *bwproto.Server
	conns []*bwproto.Conn
	dir   string // WAL root of a durable store (traced run)
}

func (e *env) close() error {
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = nil
	if e.srv != nil {
		e.srv.Shutdown(5 * time.Second)
	}
	var err error
	if e.st != nil {
		err = e.st.Close()
	}
	if e.tree != nil {
		e.tree.Close()
	}
	if e.dir != "" {
		err = errors.Join(err, os.RemoveAll(e.dir))
	}
	return err
}

// freshDir removes dir and flushes dirty pages to disk before
// recreating it, so no run pays for an earlier run's log writeback.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	syscall.Sync()
	return os.MkdirAll(dir, 0o755)
}

// heapLive is the Go heap's live bytes after a full collection.
func heapLive() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// parallel runs fn(client) on every client and joins the errors.
func parallel(fn func(i int) error) error {
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// share is client i's part of the load order.
func share(p *population, i int) []int {
	var idx []int
	for j := i; j < len(p.order); j += nClients {
		idx = append(idx, p.order[j])
	}
	return idx
}

// loadTree inserts the population through one session per client.
func loadTree(t *bwtree.Tree, p *population) error {
	return parallel(func(i int) error {
		s := t.NewSession()
		defer s.Release()
		for _, k := range share(p, i) {
			if !s.Insert(p.keys[k], loadValue(k)) {
				return fmt.Errorf("load: insert of key %d refused", k)
			}
		}
		return nil
	})
}

// loadWire inserts the population through OpBatch frames of loadBatch
// inserts, one connection per client.
func loadWire(conns []*bwproto.Conn, p *population) error {
	return parallel(func(i int) error {
		idx := share(p, i)
		ops := make([]bwproto.BatchOp, 0, loadBatch)
		for len(idx) > 0 {
			n := min(loadBatch, len(idx))
			ops = ops[:0]
			for _, k := range idx[:n] {
				ops = append(ops, bwproto.BatchOp{Op: bwproto.OpSet, Key: p.keys[k], Val: loadValue(k)})
			}
			if err := conns[i].Batch(ops); err != nil {
				return fmt.Errorf("load batch: %w", err)
			}
			for j := range ops {
				if !ops[j].OK {
					return fmt.Errorf("load: insert of key %d refused", idx[j])
				}
			}
			idx = idx[n:]
		}
		return nil
	})
}

// serve starts a server over st on loopback and dials one connection
// per client.
func (e *env) serve() error {
	e.srv = bwproto.NewServer(e.st)
	if err := e.srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	var err error
	e.conns, err = dial(e.srv.Addr())
	return err
}

// dial opens one connection per client.
func dial(addr string) ([]*bwproto.Conn, error) {
	var conns []*bwproto.Conn
	for i := 0; i < nClients; i++ {
		c, err := bwproto.Dial(addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// setupE2E builds and loads the workload's system through its public
// API and returns it with the set-up seconds and heap bytes per key.
func setupE2E(w *workload, p *population) (*env, float64, float64, error) {
	e := &env{}
	base := heapLive()
	t0 := time.Now()
	var err error
	if w.top() == rungCore {
		e.tree = bwtree.New(bwtree.DefaultOptions())
		err = loadTree(e.tree, p)
	} else {
		e.st, err = shard.Open(shard.Options{Shards: w.shards, Tree: bwtree.DefaultOptions()})
		if err == nil {
			err = e.serve()
		}
		if err == nil {
			err = loadWire(e.conns, p)
		}
	}
	secs := time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, 0, errors.Join(err, e.close())
	}
	return e, secs, (heapLive() - base) / float64(len(p.keys)), nil
}

// checkStore verifies the end state: the pair count is the population
// plus successful inserts.
func checkStore(st *shard.Store, want int) error {
	s := st.NewSession()
	defer s.Release()
	n := s.Scan(nil, want+1, func([]byte, uint64) bool { return true })
	if n != want {
		return fmt.Errorf("store holds %d pairs, want %d", n, want)
	}
	return nil
}

func runE2E(cfg *config, w *workload) (*result, error) {
	p := newPopulation(cfg.keys(w), cfg.seed, w.mix == mixE)
	var e *env
	var setups, mems []float64
	for i := 0; i < setupRounds; i++ {
		// Drop the previous round's system first, so every round loads
		// into the same heap.
		if e != nil {
			err := e.close()
			e = nil
			if err != nil {
				return nil, err
			}
		}
		var secs, mem float64
		var err error
		if e, secs, mem, err = setupE2E(w, p); err != nil {
			return nil, err
		}
		setups, mems = append(setups, secs), append(mems, mem)
	}
	ws := make([]*worker, nClients)
	gens := make([]*gen, nClients)
	for i := range ws {
		var c client
		if e.tree != nil {
			c = newCoreClient([]*bwtree.Tree{e.tree})
		} else {
			c = &wireClient{c: e.conns[i]}
		}
		ws[i] = newWorker(p, c, rungE2E, false)
		gens[i] = newGen(w, p, cfg.seed, i, rungE2E)
	}
	c0, ok0 := readCPU()
	drive(ws, gens, cfg.dur(), 0, windows)
	c1, ok1 := readCPU()
	recs := recsOf(ws)
	tot := sumRecs(recs)
	var checkErr error
	if e.tree != nil {
		// Tree sessions are released here; wire connections close with
		// the env.
		for _, wk := range ws {
			wk.c.release()
		}
		if n := e.tree.Count(); n != len(p.keys) {
			checkErr = fmt.Errorf("tree holds %d pairs, want %d", n, len(p.keys))
		}
	} else {
		checkErr = checkStore(e.st, len(p.keys)+int(tot.inserted))
		if pe := e.srv.Stats().ProtoErrors; pe != 0 {
			checkErr = errors.Join(checkErr, fmt.Errorf("%d protocol errors", pe))
		}
	}
	if err := e.close(); err != nil {
		return nil, err
	}
	report(tot, checkErr)
	// Not a metric (it is 0 on an idle host): a set of runs with a high
	// steal share is rerun rather than compared.
	fmt.Printf("host_steal_frac %.4f\n", stealFrac(c0, c1, ok0 && ok1))

	res := &result{Correct: tot.failed == 0 && checkErr == nil, Attempted: tot.ops, Failed: tot.failed}
	err := emit(res, endToEnd, map[string]float64{
		"setup_s":           median(setups),
		"throughput_kops":   windowRate(recs, cfg.dur()/windows) / 1e3,
		"read_p50_us":       windowPct(recs, clsRead, 0.50),
		"read_p99_us":       windowPct(recs, clsRead, 0.99),
		"write_p50_us":      windowPct(recs, clsWrite, 0.50),
		"write_p99_us":      windowPct(recs, clsWrite, 0.99),
		"op_p50_us":         windowPct(recs, clsOp, 0.50),
		"op_p99_us":         windowPct(recs, clsOp, 0.99),
		"mem_bytes_per_key": median(mems),
	})
	return res, err
}

// report prints failure details to standard error.
func report(tot totals, checkErr error) {
	for _, s := range tot.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", s)
	}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: end check:", checkErr)
	}
}
