package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
)

// scanFixture mirrors every write into a sorted-map model so scans can be
// checked item by item. Keys are key64(id).
type scanFixture struct {
	t         *testing.T
	tr        *Tree
	s         *Session
	nonUnique bool
	m         map[uint64]map[uint64]bool
}

type scanPair struct {
	key []byte
	val uint64
}

func (f *scanFixture) insert(id, v uint64) {
	f.t.Helper()
	set := f.m[id]
	want := len(set) == 0 || f.nonUnique && !set[v]
	if got := f.s.Insert(key64(id), v); got != want {
		f.t.Fatalf("Insert(%d, %d) = %v, model %v", id, v, got, want)
	}
	if want {
		if set == nil {
			set = map[uint64]bool{}
			f.m[id] = set
		}
		set[v] = true
	}
}

func (f *scanFixture) delete(id, v uint64) {
	f.t.Helper()
	set := f.m[id]
	want := len(set) > 0 && (!f.nonUnique || set[v])
	if got := f.s.Delete(key64(id), v); got != want {
		f.t.Fatalf("Delete(%d, %d) = %v, model %v", id, v, got, want)
	}
	if !want {
		return
	}
	if f.nonUnique {
		delete(set, v)
	} else {
		clear(set)
	}
	if len(set) == 0 {
		delete(f.m, id)
	}
}

// update replaces (id, old) with (id, v): Update in unique mode, the
// exact-pair UpdateValue in non-unique mode.
func (f *scanFixture) update(id, old, v uint64) {
	f.t.Helper()
	set := f.m[id]
	var got, want bool
	if f.nonUnique {
		want = set[old] && !set[v]
		got = f.s.UpdateValue(key64(id), old, v)
	} else {
		want = len(set) > 0
		got = f.s.Update(key64(id), v)
	}
	if got != want {
		f.t.Fatalf("update(%d, %d→%d) = %v, model %v", id, old, v, got, want)
	}
	if want {
		if !f.nonUnique {
			clear(set)
		}
		delete(set, old)
		set[v] = true
	}
}

// pairs returns the model's contents in ascending (key, value) order.
func (f *scanFixture) pairs() []scanPair {
	var out []scanPair
	for id, set := range f.m {
		for v := range set {
			out = append(out, scanPair{key64(id), v})
		}
	}
	slices.SortFunc(out, func(a, b scanPair) int {
		if c := bytes.Compare(a.key, b.key); c != 0 {
			return c
		}
		return int(a.val) - int(b.val)
	})
	return out
}

// buildScanFixture loads a tree whose leaves cover every state a scan view
// must handle: bare bases, chains that insert, update and delete the same
// key, pending splits whose base still holds keys at or above the high key,
// and merge chains (the degenerate view). Base keys are the multiples of
// 4 in [0, 1200).
func buildScanFixture(t *testing.T, opts Options) *scanFixture {
	t.Helper()
	opts.LeafNodeSize = 16
	opts.InnerNodeSize = 8
	opts.LeafChainLength = 64
	opts.InnerChainLength = 2
	opts.LeafMergeSize = 4
	opts.InnerMergeSize = 2
	tr := New(opts)
	f := &scanFixture{t: t, tr: tr, s: tr.NewSession(), nonUnique: opts.NonUnique, m: map[uint64]map[uint64]bool{}}
	t.Cleanup(func() {
		f.s.Release()
		tr.Close()
	})
	for id := uint64(0); id < 1200; id += 4 {
		f.insert(id, id)
	}
	tr.ConsolidateAll()

	// Merge region [800, 1000): drain most keys, consolidate to merge the
	// underflowing leaves, then write into the merged ranges so records
	// sit on top of each ∆merge.
	for id := uint64(800); id < 1000; id += 4 {
		if id%20 != 0 {
			f.delete(id, id)
		}
	}
	tr.ConsolidateAll()
	for id := uint64(801); id < 1000; id += 10 {
		f.insert(id, 5)
	}
	f.delete(900, 900)

	// Chain region [200, 400): every leaf gets a chain mixing inserts,
	// updates and deletes, several of them on the same key.
	for id := uint64(200); id < 400; id++ {
		switch {
		case id%16 == 1: // insert, update, delete, re-insert one new key
			f.insert(id, 1)
			f.update(id, 1, 2)
			f.delete(id, 2)
			f.insert(id, 3)
		case id%16 == 9: // a new key that ends up deleted
			f.insert(id, 1)
			f.update(id, 1, 2)
			f.delete(id, 2)
		case id%16 == 0:
			f.update(id, id, id+1)
		case id%16 == 4:
			f.delete(id, id)
		case id%16 == 8: // delete a base key, then bring it back
			f.delete(id, id)
			f.insert(id, 7)
		case id%16 == 12:
			f.update(id, id, id+1)
			f.update(id, id+1, id+2)
			if f.nonUnique {
				f.insert(id, 99) // a second value under the same key
			}
		}
	}

	// Split region [600, 720): fail every split's left-half fold so the
	// ∆split stays on top of the old chain and base, then write below
	// the split keys so records sit on top of the ∆split.
	restore := SetCASFailHook(func(ci CASInfo) bool {
		return ci.OldKind == kSplit.String() && ci.NewKind == kLeafBase.String()
	})
	for id := uint64(600); id < 720; id++ {
		if id%4 != 0 && id%4 != 2 {
			f.insert(id, id)
		}
	}
	restore()
	for id := uint64(600); id < 720; id += 8 {
		f.delete(id, id)
		f.insert(id+2, 2)
	}

	f.requireLeafStates()
	return f
}

// requireLeafStates fails the test unless the fixture really produced
// every leaf state it promises, so the differential cannot go vacuous.
func (f *scanFixture) requireLeafStates() {
	f.t.Helper()
	var tv traversal
	if !f.s.descend([]byte{0}, &tv) {
		f.t.Fatal("descend to the leftmost leaf failed")
	}
	var bare, sameKey, pendingSplit, merge int
	for id := tv.id; id != invalidNode; {
		head := f.tr.load(id)
		kinds := map[kind]bool{}
		keyKinds := map[string]map[kind]bool{}
		var base *delta
		for d := head; d != nil; d = d.next {
			kinds[d.kind] = true
			switch d.kind {
			case kLeafInsert, kLeafUpdate, kLeafDelete:
				if keyKinds[string(d.key)] == nil {
					keyKinds[string(d.key)] = map[kind]bool{}
				}
				keyKinds[string(d.key)][d.kind] = true
			case kLeafBase:
				base = d
			}
		}
		if head.kind == kLeafBase {
			bare++
		}
		for _, ks := range keyKinds {
			if ks[kLeafInsert] && ks[kLeafUpdate] && ks[kLeafDelete] {
				sameKey++
				break
			}
		}
		if kinds[kSplit] && head.kind != kSplit && base != nil {
			if pos, _ := base.baseSearch(head.highKey); pos < base.baseLen() {
				pendingSplit++
			}
		}
		if kinds[kMerge] && head.kind != kMerge {
			merge++
		}
		id = head.rightSib
	}
	if bare == 0 || sameKey == 0 || pendingSplit == 0 || merge == 0 {
		f.t.Fatalf("fixture leaf states: bare %d, same-key chains %d, pending splits %d, merge chains %d; want all > 0",
			bare, sameKey, pendingSplit, merge)
	}
}

// checkPairs compares a visited sequence against the model's expected
// one. Unique trees must match exactly. Non-unique trees leave the value
// order within a key unspecified, so keys must match position by position
// and each visited pair must exist in the model, at most once.
func (f *scanFixture) checkPairs(what string, got, want []scanPair) {
	f.t.Helper()
	if len(got) != len(want) {
		f.t.Fatalf("%s: visited %d pairs, model %d", what, len(got), len(want))
	}
	seen := map[string]bool{}
	for i := range got {
		if !bytes.Equal(got[i].key, want[i].key) {
			f.t.Fatalf("%s: item %d key %x, model %x", what, i, got[i].key, want[i].key)
		}
		if !f.nonUnique {
			if got[i].val != want[i].val {
				f.t.Fatalf("%s: item %d (%x) value %d, model %d", what, i, got[i].key, got[i].val, want[i].val)
			}
			continue
		}
		pk := fmt.Sprintf("%x/%d", got[i].key, got[i].val)
		if seen[pk] || !f.m[binary.BigEndian.Uint64(got[i].key)][got[i].val] {
			f.t.Fatalf("%s: item %d (%x, %d) repeated or not in model", what, i, got[i].key, got[i].val)
		}
		seen[pk] = true
	}
}

func collectInto(out *[]scanPair) func([]byte, uint64) bool {
	return func(k []byte, v uint64) bool {
		*out = append(*out, scanPair{append([]byte(nil), k...), v})
		return true
	}
}

// differential runs Scan, Range, ScanReverse and a random Next/Prev walk
// from every start in starts and compares each against the model.
func (f *scanFixture) differential(starts [][]byte, rng *rand.Rand) {
	f.t.Helper()
	want := f.pairs()
	lb := func(k []byte) int {
		i, _ := slices.BinarySearchFunc(want, k, func(p scanPair, k []byte) int { return bytes.Compare(p.key, k) })
		return i
	}
	// ub is the index of the first pair with key > k.
	ub := func(k []byte) int {
		i := lb(k)
		for i < len(want) && bytes.Equal(want[i].key, k) {
			i++
		}
		return i
	}
	reversed := func(ps []scanPair) []scanPair {
		out := slices.Clone(ps)
		slices.Reverse(out)
		return out
	}
	it := f.s.NewIterator()
	for si, start := range starts {
		for _, n := range []int{1, 7, 40} {
			var got []scanPair
			f.s.Scan(start, n, collectInto(&got))
			i := lb(start)
			f.checkPairs(fmt.Sprintf("Scan(%x, %d)", start, n), got, want[i:min(i+n, len(want))])

			got = got[:0]
			f.s.ScanReverse(start, n, collectInto(&got))
			j := ub(start)
			f.checkPairs(fmt.Sprintf("ScanReverse(%x, %d)", start, n), got, reversed(want[max(j-n, 0):j]))
		}
		end := append(slices.Clone(start), 0x40)
		var got []scanPair
		f.s.Range(start, end, collectInto(&got))
		f.checkPairs(fmt.Sprintf("Range(%x, %x)", start, end), got, want[lb(start):lb(end)])

		// Interleaved Next/Prev walk against a model index.
		it.Seek(start)
		p := lb(start)
		for step := 0; step < 30; step++ {
			if valid := p >= 0 && p < len(want); it.Valid() != valid {
				f.t.Fatalf("walk %d from %x, step %d: Valid() = %v, model %v", si, start, step, it.Valid(), valid)
			}
			if !it.Valid() {
				break
			}
			if !bytes.Equal(it.Key(), want[p].key) ||
				!f.nonUnique && it.Value() != want[p].val ||
				f.nonUnique && !f.m[binary.BigEndian.Uint64(it.Key())][it.Value()] {
				f.t.Fatalf("walk from %x, step %d: at (%x, %d), model (%x, %d)", start, step, it.Key(), it.Value(), want[p].key, want[p].val)
			}
			if rng.Intn(3) == 0 {
				it.Prev()
				p--
			} else {
				it.Next()
				p++
			}
		}
	}
	var got []scanPair
	f.s.Scan([]byte{0}, len(want)+1, collectInto(&got))
	f.checkPairs("full Scan", got, want)
	got = got[:0]
	f.s.ScanReverse(bytes.Repeat([]byte{0xff}, 9), len(want)+1, collectInto(&got))
	f.checkPairs("full ScanReverse", got, reversed(want))
}

// TestScanViewDifferential checks the iterator's leaf views against a
// sorted-map model on every leaf state (bare base, same-key chains,
// pending splits, merge chains), under both node layouts, with search
// shortcuts on and off, and in unique and non-unique trees. Starts cover
// every key id, so every leaf is entered below, at and above its bounds.
func TestScanViewDifferential(t *testing.T) {
	for _, flat := range []bool{true, false} {
		for _, shortcuts := range []bool{true, false} {
			for _, nonUnique := range []bool{false, true} {
				name := fmt.Sprintf("flat=%t/shortcuts=%t/nonunique=%t", flat, shortcuts, nonUnique)
				t.Run(name, func(t *testing.T) {
					opts := DefaultOptions()
					opts.FlatBaseNodes = flat
					opts.FlatInnerNodes = flat
					opts.SearchShortcuts = shortcuts
					opts.NonUnique = nonUnique
					f := buildScanFixture(t, opts)
					starts := [][]byte{{0}, bytes.Repeat([]byte{0xff}, 9)}
					for id := uint64(0); id < 1204; id++ {
						starts = append(starts, key64(id))
					}
					f.differential(starts, rand.New(rand.NewSource(1)))
				})
			}
		}
	}
}

// TestScanZeroAllocs pins the zero-allocation scan: once warm, Session.Scan
// of 1-96 pairs reuses the session's iterator and overlay scratch, over
// leaves carrying mixed insert, update and delete chains.
func TestScanZeroAllocs(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	const n = 20000
	for i := uint64(0); i < n; i++ {
		s.Insert(key64(i*2), i)
	}
	tr.ConsolidateAll()
	for i := uint64(0); i < n; i += 5 {
		switch i % 3 {
		case 0:
			s.Insert(key64(i*2+1), i)
		case 1:
			s.Update(key64(i*2), i+1)
		case 2:
			s.Delete(key64(i*2), 0)
		}
	}
	if st := tr.StructureStats(); st.AvgLeafChainLen == 0 {
		t.Fatal("no delta chains left on the leaves")
	}
	visited := 0
	visit := func([]byte, uint64) bool { visited++; return true }
	starts := make([][]byte, 512)
	for i := range starts {
		starts[i] = key64(uint64(i) * 2 * n / uint64(len(starts)))
	}
	call := 0
	scan := func() {
		s.Scan(starts[call%len(starts)], 1+call%96, visit)
		call++
	}
	for range starts {
		scan() // warm the overlay scratch on every leaf
	}
	if allocs := testing.AllocsPerRun(2000, scan); allocs != 0 {
		t.Fatalf("Scan allocates %.2f objects per call, want 0", allocs)
	}
	if visited == 0 {
		t.Fatal("scans visited nothing")
	}
	// An idle session keeps no reference into its last scanned leaf.
	it := &s.scanIt
	if it.base != nil || it.lowKey != nil || it.highKey != nil || it.curKey != nil {
		t.Fatal("idle session's scan iterator still references its last view")
	}
	for i, r := range it.ov[:cap(it.ov)] {
		if r.key != nil {
			t.Fatalf("idle session's overlay scratch still holds key %x at %d", r.key, i)
		}
	}
}

// TestScanReverseSeekToLastDescends pins SeekToLast to a single
// rightmost descent: a reverse scan starting above the largest key calls
// it, and on a tree of over a thousand leaves the sampled op may record at
// most height + 2 descents (the Seek, the rightmost descent, and a
// retreat), not one per leaf.
func TestScanReverseSeekToLastDescends(t *testing.T) {
	opts := DefaultOptions()
	opts.LeafNodeSize = 16
	opts.PhaseSampleEvery = 1
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	const n = 16000
	for i := uint64(0); i < n; i++ {
		s.Insert(key64(i), i)
	}
	tr.ConsolidateAll()
	st := tr.StructureStats()
	if st.LeafNodes < 1000 {
		t.Fatalf("tree has %d leaves, want >= 1000", st.LeafNodes)
	}
	tr.PhaseTraces() // drop the load's traces

	var got []uint64
	s.ScanReverse(key64(n+10), 10, func(k []byte, v uint64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 10 || got[0] != n-1 || got[9] != n-10 {
		t.Fatalf("ScanReverse from past the end visited %v", got)
	}
	var scans int
	for _, tc := range tr.PhaseTraces() {
		if tc.Class != obs.OpScan {
			continue
		}
		scans++
		descents := 0
		for _, sp := range tc.Spans[:tc.NSpans] {
			if sp.Phase == obs.PhaseDescend {
				descents++
			}
		}
		if descents > st.Height+2 {
			t.Fatalf("reverse scan recorded %d descents on a tree of height %d, want <= %d",
				descents, st.Height, st.Height+2)
		}
	}
	if scans != 1 {
		t.Fatalf("found %d sampled scans, want 1", scans)
	}
}

// TestScanNestedInVisit scans the same session from inside a visit
// callback: the inner scan must get its own iterator and leave the outer
// scan's reused one untouched.
func TestScanNestedInVisit(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	for i := uint64(0); i < 2000; i++ {
		s.Insert(key64(i), i)
	}
	var outer []uint64
	s.Scan(key64(100), 500, func(k []byte, v uint64) bool {
		outer = append(outer, v)
		inner := 0
		s.Scan(key64(v*3%2000), 5, func(_ []byte, w uint64) bool {
			if w != v*3%2000+uint64(inner) {
				t.Fatalf("inner scan from %d visited %d at step %d", v*3%2000, w, inner)
			}
			inner++
			return true
		})
		return true
	})
	if len(outer) != 500 {
		t.Fatalf("outer scan visited %d pairs, want 500", len(outer))
	}
	for i, v := range outer {
		if v != 100+uint64(i) {
			t.Fatalf("outer scan item %d = %d, want %d", i, v, 100+i)
		}
	}
}
