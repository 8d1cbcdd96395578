package shard

import (
	"bytes"

	"repro/bwtree"
)

// subSession is one shard's per-goroutine operation surface: the plain
// tree session adapted with nil errors, or the shard's durable session
// whose errors signal writer shutdown/crash.
type subSession interface {
	Insert(key []byte, value uint64) (bool, error)
	Update(key []byte, value uint64) (bool, error)
	Delete(key []byte, value uint64) (bool, error)
	Lookup(key []byte, out []uint64) []uint64
	Scan(start []byte, n int, visit func(key []byte, value uint64) bool) int
	Release()
}

// plainSub adapts an in-memory tree session to subSession.
type plainSub struct{ s *bwtree.Session }

func (p plainSub) Insert(k []byte, v uint64) (bool, error) { return p.s.Insert(k, v), nil }
func (p plainSub) Update(k []byte, v uint64) (bool, error) { return p.s.Update(k, v), nil }
func (p plainSub) Delete(k []byte, v uint64) (bool, error) { return p.s.Delete(k, v), nil }
func (p plainSub) Lookup(k []byte, out []uint64) []uint64  { return p.s.Lookup(k, out) }
func (p plainSub) Scan(start []byte, n int, visit func([]byte, uint64) bool) int {
	return p.s.Scan(start, n, visit)
}
func (p plainSub) Release() { p.s.Release() }

// Session is one goroutine's handle to every shard: point operations
// route to the owning shard's sub-session, scans scatter-gather. Like a
// tree session it must be used by at most one goroutine.
type Session struct {
	st     *Store
	subs   []subSession
	curs   []cursor  // scan state, reused across Scan calls
	active []*cursor // merge working set, reused across Scan calls
}

// NewSession opens a sub-session on every shard. Sessions are the unit of
// stickiness: a connection (or worker) holds one and reuses its per-shard
// epoch handles and scratch buffers for its whole lifetime.
func (st *Store) NewSession() *Session {
	s := &Session{st: st, subs: make([]subSession, len(st.shards))}
	for i, sh := range st.shards {
		if sh.d != nil {
			s.subs[i] = sh.d.NewSession()
		} else {
			s.subs[i] = plainSub{sh.t.NewSession()}
		}
	}
	return s
}

// Release returns every shard sub-session.
func (s *Session) Release() {
	for _, sub := range s.subs {
		sub.Release()
	}
}

// route returns the sub-session owning key.
func (s *Session) route(key []byte) subSession {
	return s.subs[s.st.router.Shard(key)]
}

// Insert adds (key, value) on the owning shard. The error is non-nil
// only for durable stores whose writer is gone (closed or crashed).
func (s *Session) Insert(key []byte, value uint64) (bool, error) {
	return s.route(key).Insert(key, value)
}

// Update replaces key's value on the owning shard.
func (s *Session) Update(key []byte, value uint64) (bool, error) {
	return s.route(key).Update(key, value)
}

// Delete removes key from the owning shard.
func (s *Session) Delete(key []byte, value uint64) (bool, error) {
	return s.route(key).Delete(key, value)
}

// Lookup reads key from the owning shard.
func (s *Session) Lookup(key []byte, out []uint64) []uint64 {
	return s.route(key).Lookup(key, out)
}

// minStartKey substitutes for an empty scan start key.
var minStartKey = []byte{0}

// scanChunk is how many pairs a cursor pulls from its shard per refill:
// large enough to amortize the descend per chunk, small enough that a
// short scan doesn't over-fetch from every shard.
const scanChunk = 256

// cursor is one shard's pull-stream of ordered pairs, fetched in chunks
// through the ordinary Scan entry point (so it works over plain and
// durable sessions alike). Keys are copied into a per-cursor arena:
// callback keys are only valid during the visit, but merge order means
// a buffered key outlives its chunk's callbacks.
type cursor struct {
	sub    subSession
	arena  []byte
	starts []int
	vals   []uint64
	pos    int
	// resume is the exclusive restart point: the last emitted key + 0x00,
	// the immediate successor in bytewise order.
	resume []byte
	// tail is set when the shard returned fewer pairs than requested, so
	// the current buffer is the stream's end.
	tail bool
}

func (c *cursor) len() int { return len(c.starts) }

func (c *cursor) key(i int) []byte {
	end := len(c.arena)
	if i+1 < len(c.starts) {
		end = c.starts[i+1]
	}
	return c.arena[c.starts[i]:end]
}

// fill pulls the next chunk from the shard. Reports whether the cursor
// has a head afterwards.
func (c *cursor) fill(chunk int) bool {
	if c.tail {
		return false
	}
	c.arena, c.starts, c.vals, c.pos = c.arena[:0], c.starts[:0], c.vals[:0], 0
	got := c.sub.Scan(c.resume, chunk, func(k []byte, v uint64) bool {
		c.starts = append(c.starts, len(c.arena))
		c.arena = append(c.arena, k...)
		c.vals = append(c.vals, v)
		return true
	})
	if got < chunk {
		c.tail = true
	} else {
		last := c.key(got - 1)
		c.resume = append(append(c.resume[:0], last...), 0)
	}
	return got > 0
}

// Scan visits at most n pairs in ascending key order from the smallest
// key >= start, gathered across every shard through a merged k-way
// iterator: each shard contributes an ordered chunk stream and the merge
// emits the minimum head until n pairs are out or all streams dry up.
// Range-routed stores skip the merge (scanRanged).
//
// Ordering rule under concurrency: each chunk is one atomic shard scan,
// and chunks restart at the successor of the last emitted key, so the
// merged stream is strictly ascending and every key that exists for the
// whole scan in the visited range appears exactly once. Keys mutated
// concurrently may appear or not, exactly as with a single tree's
// node-at-a-time scan.
func (s *Session) Scan(start []byte, n int, visit func(key []byte, value uint64) bool) int {
	if n <= 0 {
		return 0
	}
	if len(start) == 0 {
		// The tree requires non-empty keys; {0} is the minimum valid key,
		// so it means "from the beginning".
		start = minStartKey
	}
	if rr, ok := s.st.router.(*RangeRouter); ok {
		return s.scanRanged(rr.Shard(start), start, n, visit)
	}
	chunk := scanChunk
	if n < chunk {
		chunk = n
	}
	if cap(s.curs) < len(s.subs) {
		s.curs = make([]cursor, len(s.subs))
	}
	// active holds pointers to the cursors with a live head.
	active := s.active[:0]
	for i := range s.subs {
		c := &s.curs[i]
		c.tail = false
		c.sub = s.subs[i]
		c.resume = append(c.resume[:0], start...)
		if c.fill(chunk) {
			active = append(active, c)
		}
	}
	s.active = active[:0]
	count := 0
	for count < n && len(active) > 0 {
		// Linear min over the shard heads: shard counts are per-core small
		// (tens, not thousands), where a scan through a cache-resident
		// slice beats heap bookkeeping.
		min := 0
		for i := 1; i < len(active); i++ {
			if bytes.Compare(active[i].key(active[i].pos), active[min].key(active[min].pos)) < 0 {
				min = i
			}
		}
		c := active[min]
		if !visit(c.key(c.pos), c.vals[c.pos]) {
			return count + 1
		}
		count++
		c.pos++
		if c.pos >= c.len() {
			left := chunk
			if rem := n - count; rem < left {
				left = rem
			}
			if left == 0 || !c.fill(left) {
				active[min] = active[len(active)-1]
				active = active[:len(active)-1]
			}
		}
	}
	return count
}

// scanRanged is Scan over a range-routed store. Its shards are disjoint
// and ordered, so no merge or buffering is needed: each shard from from
// (the one owning start; every earlier shard ends below start) scans
// straight into visit, asked for the pairs still missing, and shard i+1
// is opened only once shard i has run dry — a scan that ends inside one
// shard reads no other.
func (s *Session) scanRanged(from int, start []byte, n int, visit func(key []byte, value uint64) bool) int {
	count, stopped := 0, false
	counted := func(k []byte, v uint64) bool {
		count++
		stopped = !visit(k, v)
		return !stopped
	}
	for i := from; i < len(s.subs) && count < n && !stopped; i++ {
		s.subs[i].Scan(start, n-count, counted)
	}
	return count
}
