package core

import (
	"bytes"
	"runtime"
	"slices"

	"repro/internal/obs"
)

// Iterator provides ordered forward and backward traversal (§3.2). It
// never holds recyclable chain memory across calls: each positioning step
// takes a view of one logical leaf node under the epoch pin, so concurrent
// inserts, deletes, and SMOs cannot invalidate the cursor. Moving past
// either end of the view re-traverses the tree using the view's low or
// high key (Appendix C).
//
// A view is zero-copy for the common chain shape — a base node topped by
// insert/update/delete records and at most pending splits, in a
// unique-key tree. Base nodes are immutable and owned by the Go GC (only
// slab delta slots are recycled), so the view reads the base's items in
// place through the window [0, hi), hi = baseSearch(highKey). The chain's
// records are copied into the overlay: the newest record per key, sorted.
// The cursor merges the two streams; an overlay record hides the base
// item with its key, and an overlay delete emits nothing. Chains the view
// cannot describe that way (a merge delta, a missing base, non-unique
// keys, or in-place leaf updates, whose bases are not immutable) get a
// degenerate view: no base, and an overlay holding the consolidated copy
// from collect.
//
// An Iterator is owned by its Session and must not outlive it or be used
// concurrently with it from another goroutine.
type Iterator struct {
	s *Session

	// The current view.
	base    *delta   // nil for a degenerate view
	hi      int      // base items [0, hi) lie below highKey
	ov      []effRec // overlay, sorted by key; scratch reused across views
	lowKey  []byte
	highKey []byte

	// The cursor. bi and oi are the lower bounds of the current key in
	// the base window and the overlay. fromOv says which stream holds the
	// current item; tie says base[bi] has the current key too and is
	// hidden by the overlay record.
	bi, oi int
	fromOv bool
	tie    bool
	curKey []byte
	curVal uint64
	valid  bool
}

// NewIterator returns an unpositioned iterator; call Seek, SeekFirst, or
// SeekToLast before use.
func (s *Session) NewIterator() *Iterator { return &Iterator{s: s} }

// Valid reports whether the iterator is positioned on an item. It is the
// precondition for Key and Value: it holds after a Seek variant or a
// Next/Prev that found an item, and stays false on a freshly created
// iterator and after the cursor moves past either end of the tree. Key
// and Value panic with a descriptive message when it does not hold.
func (it *Iterator) Valid() bool { return it.valid }

// mustBePositioned panics with an actionable message when the iterator is
// not on an item, naming the method and the broken contract.
func (it *Iterator) mustBePositioned(method string) {
	if !it.valid {
		panic("core: Iterator." + method + " called while not positioned on an item; " +
			"position with Seek/SeekFirst/SeekToLast and check Valid() before every access")
	}
}

// Key returns the current item's key. The slice aliases immutable tree
// memory and must not be modified. Key panics unless Valid() holds.
func (it *Iterator) Key() []byte {
	it.mustBePositioned("Key")
	return it.curKey
}

// Value returns the current item's value. Value panics unless Valid()
// holds.
func (it *Iterator) Value() uint64 {
	it.mustBePositioned("Value")
	return it.curVal
}

// loadNode builds the view of the logical leaf covering key.
func (it *Iterator) loadNode(key []byte) {
	s := it.s
	s.h.Enter()
	defer s.h.Exit()
	spins := 0
	for {
		var tr traversal
		if !s.descendProbed(key, &tr) {
			s.abortBackoff(&spins)
			continue
		}
		it.buildView(tr.head)
		return
	}
}

// buildView replaces the iterator's view with leaf chain head's. It runs
// under the caller's epoch pin: the overlay copies each record's key and
// value out of the (recyclable) slab slots, while the base node itself is
// immutable and stays readable after the pin is dropped.
func (it *Iterator) buildView(head *delta) {
	s := it.s
	t0 := s.phStart()
	it.lowKey, it.highKey = head.lowKey, head.highKey
	ov := it.ov[:0]
	var base *delta
	if !s.t.opts.NonUnique && !s.t.opts.InPlaceLeafUpdates {
	walk:
		for d := head; ; d = d.next {
			switch d.kind {
			case kLeafInsert, kLeafUpdate, kLeafDelete:
				// Records at or above the high key belong to a split-off
				// sibling.
				if keyLT(d.key, head.highKey) {
					ov = append(ov, effRec{key: d.key, val: d.value, del: d.kind == kLeafDelete})
				}
			case kSplit:
				// The high-key filter above and the base window handle it.
			case kLeafBase:
				base = d
				break walk
			default:
				break walk // a merge or an unexpected record: degenerate view
			}
			s.chases++
		}
	}
	if base != nil {
		// Stable, so the newest record of each key stays first of its run.
		slices.SortStableFunc(ov, func(a, b effRec) int { return bytes.Compare(a.key, b.key) })
		ov = dedupeOverlay(ov)
		it.hi = base.baseLen()
		if head.highKey != nil {
			it.hi, _ = base.baseSearch(head.highKey)
		}
	} else {
		c := s.collect(head)
		ov = ov[:0]
		for i, k := range c.keys {
			ov = append(ov, effRec{key: k, val: c.vals[i]})
		}
		it.hi = 0
	}
	it.base, it.ov = base, ov
	s.phEnd(obs.PhaseChainWalk, t0, uint64(head.depth))
}

// dedupeOverlay keeps the first (newest) record of each run of equal keys
// in a stably sorted overlay.
func dedupeOverlay(ov []effRec) []effRec {
	out := ov[:0]
	for _, r := range ov {
		if n := len(out); n > 0 && bytes.Equal(out[n-1].key, r.key) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// cmpOvBase compares overlay record r's key against base item j.
func (it *Iterator) cmpOvBase(r *effRec, j int) int {
	return bytes.Compare(r.key, it.base.baseKey(j))
}

// seekView points the cursor's lower bounds at key within the view.
func (it *Iterator) seekView(key []byte) {
	it.bi = 0
	if it.base != nil {
		it.bi, _ = it.base.baseSearchRange(key, 0, it.hi)
	}
	it.oi, _ = slices.BinarySearchFunc(it.ov, key, func(r effRec, k []byte) int {
		return bytes.Compare(r.key, k)
	})
}

func (it *Iterator) onBase() {
	it.fromOv, it.tie = false, false
	it.curKey, it.curVal = it.base.baseKey(it.bi), it.base.vals[it.bi]
}

func (it *Iterator) onOverlay(tie bool) {
	it.fromOv, it.tie = true, tie
	it.curKey, it.curVal = it.ov[it.oi].key, it.ov[it.oi].val
}

// settleForward moves the cursor onto the first visible item at or after
// its lower bounds, reporting false when the view has none.
func (it *Iterator) settleForward() bool {
	for {
		if it.oi == len(it.ov) {
			if it.bi == it.hi {
				return false
			}
			it.onBase()
			return true
		}
		r := &it.ov[it.oi]
		c := -1
		if it.bi < it.hi {
			c = it.cmpOvBase(r, it.bi)
		}
		switch {
		case c > 0:
			it.onBase()
			return true
		case r.del:
			it.oi++
			if c == 0 {
				it.bi++
			}
		default:
			it.onOverlay(c == 0)
			return true
		}
	}
}

// settleBackward moves the cursor onto the last visible item below its
// lower bounds, reporting false when the view has none.
func (it *Iterator) settleBackward() bool {
	for {
		if it.oi == 0 {
			if it.bi == 0 {
				return false
			}
			it.bi--
			it.onBase()
			return true
		}
		r := &it.ov[it.oi-1]
		c := 1
		if it.bi > 0 {
			c = it.cmpOvBase(r, it.bi-1)
		}
		if c < 0 {
			it.bi--
			it.onBase()
			return true
		}
		it.oi--
		if c == 0 {
			it.bi--
		}
		if !r.del {
			it.onOverlay(c == 0)
			return true
		}
	}
}

// loadNodeLeft builds the view of the logical leaf immediately left of
// key (i.e. covering key-ε), using the backward traversal rule of
// Appendix C.2: when a separator equals the search key, take the
// next-smaller one. A nil key stands for +inf: the descent then always
// takes the last child and lands on the rightmost leaf.
func (it *Iterator) loadNodeLeft(key []byte) {
	s := it.s
	t := s.t
	s.h.Enter()
	defer s.h.Exit()
	t0 := s.phStart()
	spins := 0
restart:
	for {
		if spins > 2 {
			runtime.Gosched()
		}
		spins++
		id := t.root
		parentID := invalidNode
		var parentHead *delta
		for hops := 0; hops < maxTraversalHops; hops++ {
			head := t.load(id)
			if head == nil || head.kind == kAbort {
				s.stats.aborts.Add(1)
				continue restart
			}
			if head.kind == kRemove {
				leftID, ok := s.helpMerge(parentID, parentHead, id, head)
				if !ok {
					s.stats.aborts.Add(1)
					continue restart
				}
				id = leftID
				continue
			}
			// The target covers key-ε: it needs highKey >= key. A node
			// with highKey < key lies too far left; chase right.
			if head.highKey != nil && (key == nil || keyGT(key, head.highKey)) {
				if head.rightSib == invalidNode {
					s.stats.aborts.Add(1)
					continue restart
				}
				id = head.rightSib
				continue
			}
			// Appendix C.2 abort rule: a concurrent SMO can hand us a
			// node that no longer lies strictly left of the search key.
			if key != nil && head.lowKey != nil && !keyGT(key, head.lowKey) {
				s.stats.aborts.Add(1)
				continue restart
			}
			if head.isLeaf {
				s.phEnd(obs.PhaseDescend, t0, 0)
				it.buildView(head)
				return
			}
			var child nodeID
			var ok bool
			if key == nil {
				child, ok = s.routeInnerLast(head)
			} else {
				child, ok = s.routeInnerLeft(head, key)
			}
			if !ok {
				s.stats.aborts.Add(1)
				continue restart
			}
			parentID, parentHead = id, head
			id = child
		}
		s.stats.aborts.Add(1)
	}
}

// Seek positions the iterator at the smallest item with key >= key.
func (it *Iterator) Seek(key []byte) {
	checkKey(key)
	it.loadNode(key)
	it.seekView(key)
	it.valid = true
	if !it.settleForward() {
		it.advanceNode()
	}
}

// SeekFirst positions the iterator at the tree's smallest item.
func (it *Iterator) SeekFirst() {
	// The leftmost leaf has a nil low key; an empty view advances to the
	// right.
	it.loadNode([]byte{0})
	it.bi, it.oi = 0, 0
	it.valid = true
	if !it.settleForward() {
		it.advanceNode()
	}
}

// SeekToLast positions the iterator at the tree's largest item.
func (it *Iterator) SeekToLast() {
	it.loadNodeLeft(nil)
	it.bi, it.oi = it.hi, len(it.ov)
	it.valid = true
	if !it.settleBackward() {
		it.retreatNode()
	}
}

// Next moves to the next item in ascending key order.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	if it.fromOv {
		it.oi++
		if it.tie {
			it.bi++
		}
	} else {
		it.bi++
	}
	if !it.settleForward() {
		it.advanceNode()
	}
}

// Prev moves to the previous item in descending key order.
func (it *Iterator) Prev() {
	if !it.valid {
		return
	}
	// The lower bounds already exclude the current item.
	if !it.settleBackward() {
		it.retreatNode()
	}
}

// advanceNode jumps to the next logical leaf (Appendix C.1): re-traverse
// with the exhausted view's high key and position at it, which lands
// correctly even if the next node merged or split meanwhile.
func (it *Iterator) advanceNode() {
	for {
		if it.highKey == nil {
			it.valid = false
			return
		}
		bound := it.highKey
		it.loadNode(bound)
		it.seekView(bound)
		if it.settleForward() {
			return
		}
		// The node is empty past the bound (e.g. everything deleted);
		// keep walking right.
	}
}

// retreatNode jumps to the previous logical leaf (Appendix C.2).
func (it *Iterator) retreatNode() {
	for {
		if it.lowKey == nil {
			it.valid = false
			return
		}
		bound := it.lowKey
		it.loadNodeLeft(bound)
		// Position on the largest item strictly below bound.
		it.seekView(bound)
		if it.settleBackward() {
			return
		}
		// Nothing below the bound in this view; continue left.
	}
}

// scanIterator returns the session's reusable scan iterator, or a fresh
// one when a visit callback scans the same session re-entrantly. The
// caller hands it back with endScan.
func (s *Session) scanIterator() *Iterator {
	if s.scanBusy {
		return s.NewIterator()
	}
	s.scanBusy = true
	s.scanIt.s = s
	return &s.scanIt
}

// endScan releases the session's scan iterator. It drops the view's
// references — the base node and the overlay's keys — so an idle session
// does not keep its last scanned leaf alive after that chain is
// consolidated and retired; the overlay keeps its capacity.
func (s *Session) endScan(it *Iterator) {
	if it == &s.scanIt {
		it.base, it.lowKey, it.highKey, it.curKey = nil, nil, nil, nil
		clear(it.ov[:cap(it.ov)])
		it.ov = it.ov[:0]
		it.valid = false
		s.scanBusy = false
	}
}

// Scan visits at most n items in ascending order starting at the smallest
// key >= start, stopping early when visit returns false. It returns the
// number of items visited. This is the YCSB-E range-scan entry point.
func (s *Session) Scan(start []byte, n int, visit func(key []byte, value uint64) bool) int {
	defer s.opDone(obs.OpScan, s.opStart())
	it := s.scanIterator()
	defer s.endScan(it)
	it.Seek(start)
	count := 0
	for it.Valid() && count < n {
		count++
		if !visit(it.Key(), it.Value()) {
			break
		}
		it.Next()
	}
	return count
}

// Range visits every item with start <= key < end in ascending order,
// stopping early when visit returns false. It returns the number of
// items visited. A nil end means +inf.
func (s *Session) Range(start, end []byte, visit func(key []byte, value uint64) bool) int {
	defer s.opDone(obs.OpScan, s.opStart())
	it := s.scanIterator()
	defer s.endScan(it)
	it.Seek(start)
	count := 0
	for it.Valid() && keyLT(it.Key(), end) {
		count++
		if !visit(it.Key(), it.Value()) {
			break
		}
		it.Next()
	}
	return count
}

// ScanReverse visits at most n items in descending order starting at the
// largest key <= start (with every value of that key in a non-unique
// tree).
func (s *Session) ScanReverse(start []byte, n int, visit func(key []byte, value uint64) bool) int {
	defer s.opDone(obs.OpScan, s.opStart())
	it := s.scanIterator()
	defer s.endScan(it)
	it.Seek(start)
	if s.t.opts.NonUnique {
		// Step past every value of start; the Prev below then lands on
		// the last of them.
		for it.Valid() && bytes.Equal(it.Key(), start) {
			it.Next()
		}
	}
	if !it.Valid() {
		it.SeekToLast()
	} else if !bytes.Equal(it.Key(), start) {
		it.Prev()
	}
	count := 0
	for it.Valid() && count < n {
		count++
		if !visit(it.Key(), it.Value()) {
			break
		}
		it.Prev()
	}
	return count
}
