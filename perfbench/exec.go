package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/bwtree"
	"repro/internal/bwproto"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/txn"
)

// client is one closed-loop client's handle to a layer. The benchmark
// times calls through it; sh is the key's owning shard, used only by the
// core rung, which addresses per-shard trees directly.
type client interface {
	lookup(sh int, key []byte) (val uint64, found bool, err error)
	write(kind opKind, sh int, key []byte, val uint64) (bool, error)
	scan(sh int, start []byte, n int, visit func(k []byte, v uint64) bool) (int, error)
	release()
}

// coreClient calls bwtree sessions, one per shard tree.
type coreClient struct {
	subs []*bwtree.Session
	buf  []uint64
}

func newCoreClient(trees []*bwtree.Tree) *coreClient {
	c := &coreClient{}
	for _, t := range trees {
		c.subs = append(c.subs, t.NewSession())
	}
	return c
}

func (c *coreClient) lookup(sh int, key []byte) (uint64, bool, error) {
	c.buf = c.subs[sh].Lookup(key, c.buf[:0])
	if len(c.buf) != 1 {
		return 0, false, nil
	}
	return c.buf[0], true, nil
}

func (c *coreClient) write(kind opKind, sh int, key []byte, val uint64) (bool, error) {
	if kind == opInsert {
		return c.subs[sh].Insert(key, val), nil
	}
	return c.subs[sh].Update(key, val), nil
}

func (c *coreClient) scan(sh int, start []byte, n int, visit func([]byte, uint64) bool) (int, error) {
	return c.subs[sh].Scan(start, n, visit), nil
}

func (c *coreClient) release() {
	for _, s := range c.subs {
		s.Release()
	}
}

// storeClient calls a shard.Session (volatile or durable store).
type storeClient struct {
	s   *shard.Session
	buf []uint64
}

func (c *storeClient) lookup(_ int, key []byte) (uint64, bool, error) {
	c.buf = c.s.Lookup(key, c.buf[:0])
	if len(c.buf) != 1 {
		return 0, false, nil
	}
	return c.buf[0], true, nil
}

func (c *storeClient) write(kind opKind, _ int, key []byte, val uint64) (bool, error) {
	if kind == opInsert {
		return c.s.Insert(key, val)
	}
	return c.s.Update(key, val)
}

func (c *storeClient) scan(_ int, start []byte, n int, visit func([]byte, uint64) bool) (int, error) {
	return c.s.Scan(start, n, visit), nil
}

func (c *storeClient) release() { c.s.Release() }

// txnRungClient is the in-process transaction rung: point reads are
// versioned reads, and the worker commits every write as a transaction
// with a partner key (see worker.doTxnWrite). Scans have no
// transactional form and pass through to the store session.
type txnRungClient struct {
	storeClient
	t *txn.Session
}

func (c *txnRungClient) lookup(_ int, key []byte) (uint64, bool, error) {
	v, _, found, err := c.t.GetVersion(key)
	return v, found, err
}

func (c *txnRungClient) release() {
	c.t.Release()
	c.storeClient.release()
}

// wireClient calls a bwproto connection: one frame per call, except
// scans the server cuts at its frame budget.
type wireClient struct {
	c   *bwproto.Conn
	buf []uint64
}

func (c *wireClient) lookup(_ int, key []byte) (uint64, bool, error) {
	var err error
	c.buf, err = c.c.Lookup(key, c.buf[:0])
	if err != nil || len(c.buf) != 1 {
		return 0, false, err
	}
	return c.buf[0], true, nil
}

func (c *wireClient) write(kind opKind, _ int, key []byte, val uint64) (bool, error) {
	if kind == opInsert {
		return c.c.Insert(key, val)
	}
	return c.c.Update(key, val)
}

func (c *wireClient) scan(_ int, start []byte, n int, visit func([]byte, uint64) bool) (int, error) {
	return c.c.Scan(start, n, visit)
}

func (c *wireClient) release() { c.c.Close() }

// Latency classes. The op class holds the same sample as the read or
// write class, except for a txn-rung write: there read holds each of its
// two GetVersions, write its CommitTxn, and op the whole transaction
// including conflict retries.
const (
	clsRead = iota
	clsWrite
	clsOp
	nClass
)

// span is one timed call. Spans of the same request share req across
// rungs; parent is the index of the enclosing span in the same
// recorder, or -1.
type span struct {
	start, end int64
	req        uint64
	parent     int32
	rung, call uint8
}

const (
	callRead = iota
	callWrite
	callScan
	callTxn
	callGetV
	callCommit
	nCalls
)

var callNames = [nCalls]string{"read", "write", "scan", "txn", "getv", "commit"}

// recorder is one client's measurement state.
type recorder struct {
	lat      [nClass][]uint32 // ns per sample
	sum      [nClass]int64
	pairs    int64 // pairs returned by read-class calls
	ops      int64 // client-level ops attempted
	failed   int64
	inserted int64
	errs     []string // first few failure descriptions
	spans    []span   // nil unless tracing
	marks    []mark   // counts at each window's end
}

// mark is a recorder's sample and op counts at a window boundary.
type mark struct {
	n   [nClass]int
	ops int64
}

func (r *recorder) mark() {
	m := mark{ops: r.ops}
	for c := range m.n {
		m.n[c] = len(r.lat[c])
	}
	r.marks = append(r.marks, m)
}

func (r *recorder) add(cls int, ns int64) {
	if ns > 1<<32-1 {
		ns = 1<<32 - 1
	}
	r.lat[cls] = append(r.lat[cls], uint32(ns))
	r.sum[cls] += ns
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// worker executes ops for one client and checks each result.
type worker struct {
	p     *population
	c     client
	tc    *txnRungClient // non-nil on the txn rung
	rec   recorder
	rung  uint8
	trace bool
	req   uint64
	prev  []byte
	reads [2]index.TxnRead
	wr    [2]index.TxnWrite
}

func newWorker(p *population, c client, rung uint8, trace bool) *worker {
	wk := &worker{p: p, c: c, rung: rung, trace: trace}
	wk.tc, _ = c.(*txnRungClient)
	if trace {
		wk.rec.spans = make([]span, 0, 1<<16)
	}
	return wk
}

// timed records one call of class cls and, when tracing, its span.
func (wk *worker) timed(cls, call int, parent int32, t0, t1 int64) int32 {
	wk.rec.add(cls, t1-t0)
	if !wk.trace {
		return -1
	}
	wk.rec.spans = append(wk.rec.spans, span{start: t0, end: t1, req: wk.req, parent: parent, rung: wk.rung, call: uint8(call)})
	return int32(len(wk.rec.spans) - 1)
}

// openSpan starts an op-level span whose children are recorded before
// it ends; closeOp ends it and records the op-class sample.
func (wk *worker) openSpan(call int, t0 int64) int32 {
	if !wk.trace {
		return -1
	}
	wk.rec.spans = append(wk.rec.spans, span{start: t0, req: wk.req, parent: -1, rung: wk.rung, call: uint8(call)})
	return int32(len(wk.rec.spans) - 1)
}

func (wk *worker) closeOp(opSpan int32, t0 int64) {
	t1 := now()
	wk.rec.add(clsOp, t1-t0)
	if opSpan >= 0 {
		wk.rec.spans[opSpan].end = t1
	}
}

func (wk *worker) do(o *op, client int) {
	wk.rec.ops++
	wk.req = uint64(client)<<40 | uint64(wk.rec.ops)
	switch o.kind {
	case opRead:
		t0 := now()
		v, found, err := wk.c.lookup(o.sh, wk.p.keys[o.a])
		t1 := now()
		wk.timed(clsRead, callRead, -1, t0, t1)
		wk.rec.add(clsOp, t1-t0)
		wk.rec.pairs++
		if err != nil || !found || v>>32 != uint64(o.a) {
			wk.rec.fail("read key %d: value %#x found=%v err=%v", o.a, v, found, err)
		}
	case opUpdate, opInsert:
		if wk.tc != nil {
			wk.doTxnWrite(o)
			return
		}
		key := o.key
		if o.kind == opUpdate {
			key = wk.p.keys[o.a]
		}
		t0 := now()
		ok, err := wk.c.write(o.kind, o.sh, key, o.val)
		t1 := now()
		wk.timed(clsWrite, callWrite, -1, t0, t1)
		wk.rec.add(clsOp, t1-t0)
		if err != nil || !ok {
			wk.rec.fail("write kind %d key %q: ok=%v err=%v", o.kind, key, ok, err)
		} else if o.kind == opInsert {
			wk.rec.inserted++
		}
	case opScan:
		wk.doScan(o)
	}
}

func (wk *worker) doScan(o *op) {
	start := wk.p.keys[o.a]
	wk.prev = append(wk.prev[:0], start...)
	first, ordered := true, true
	t0 := now()
	got, err := wk.c.scan(o.sh, start, o.n, func(k []byte, _ uint64) bool {
		if c := bytes.Compare(k, wk.prev); c < 0 || (c == 0 && !first) {
			ordered = false
		}
		first = false
		wk.prev = append(wk.prev[:0], k...)
		return true
	})
	t1 := now()
	wk.timed(clsRead, callScan, -1, t0, t1)
	wk.rec.add(clsOp, t1-t0)
	wk.rec.pairs += int64(got)
	// The core rung scans only the start key's shard.
	sorted := wk.p.byKey
	if _, ok := wk.c.(*coreClient); ok && wk.p.byShard != nil {
		sorted = wk.p.byShard[o.sh]
	}
	want := min(o.n, wk.p.remaining(sorted, start))
	if err != nil || !ordered || got < want || got > o.n {
		wk.rec.fail("scan from key %d n=%d: got %d want >= %d ordered=%v err=%v", o.a, o.n, got, want, ordered, err)
	}
}

// doTxnWrite commits o's write together with a write of its partner key
// o.b, after reading both with GetVersion and carrying both reads, so
// the commit runs read validation and sorted stripe locking, and with
// two shards the presumed-abort two-phase commit. OCC conflicts are
// retried.
func (wk *worker) doTxnWrite(o *op) {
	ka, kb := o.key, wk.p.keys[o.b]
	if o.kind == opUpdate {
		ka = wk.p.keys[o.a]
	}
	t0 := now()
	opSpan := wk.openSpan(callTxn, t0)
	defer wk.closeOp(opSpan, t0)
	for attempt := 0; ; attempt++ {
		for i, k := range [2][]byte{ka, kb} {
			s := now()
			_, ver, found, err := wk.tc.t.GetVersion(k)
			e := now()
			wk.timed(clsRead, callGetV, opSpan, s, e)
			// An insert's key is absent and validates at version 0.
			if err != nil || found == (i == 0 && o.kind == opInsert) {
				wk.rec.fail("getv %q: found=%v err=%v", k, found, err)
				return
			}
			wk.reads[i] = index.TxnRead{Key: k, Ver: ver}
		}
		wk.wr[0] = index.TxnWrite{Op: index.TxnPut, Key: ka, Value: o.val}
		wk.wr[1] = index.TxnWrite{Op: index.TxnPut, Key: kb, Value: o.valB}
		s := now()
		res, err := wk.tc.t.CommitTxn(wk.reads[:], wk.wr[:])
		e := now()
		wk.timed(clsWrite, callCommit, opSpan, s, e)
		if err != nil {
			wk.rec.fail("commit write of %q with %q: %v", ka, kb, err)
			return
		}
		if res.Status == index.TxnCommitted {
			if o.kind == opInsert {
				wk.rec.inserted++
			}
			return
		}
		if attempt > 1000 {
			wk.rec.fail("write of %q with %q: %d conflicts in a row", ka, kb, attempt)
			return
		}
	}
}

// drive runs one closed loop per worker until dur elapses or each has
// done maxOps ops (0: no cap). The run is cut into windows equal
// windows; each recorder marks its counts at every window boundary.
func drive(ws []*worker, gens []*gen, dur time.Duration, maxOps int64, windows int) {
	var wg sync.WaitGroup
	start := now()
	deadline := start + int64(dur)
	win := int64(dur) / int64(windows)
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wk, g := ws[i], gens[i]
			defer func() {
				for len(wk.rec.marks) < windows {
					wk.rec.mark()
				}
			}()
			next := start + win
			for maxOps == 0 || wk.rec.ops < maxOps {
				o := g.next()
				t := now()
				if t >= deadline {
					return
				}
				for ; t >= next && len(wk.rec.marks) < windows-1; next += win {
					wk.rec.mark()
				}
				wk.do(&o, i)
			}
		}(i)
	}
	wg.Wait()
}
