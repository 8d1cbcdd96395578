package core

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// layoutOpts returns tiny-node options that make a short churn split,
// merge and consolidate many times.
func layoutOpts(flat bool) Options {
	opts := DefaultOptions()
	opts.FlatBaseNodes = flat
	opts.FlatInnerNodes = flat
	opts.LeafNodeSize = 16
	opts.InnerNodeSize = 8
	opts.LeafChainLength = 4
	opts.InnerChainLength = 2
	opts.LeafMergeSize = 4
	opts.InnerMergeSize = 2
	return opts
}

// churn grows the tree to n keys, then deletes most of them and re-inserts
// a few, from one session, calling check every 256 operations so the
// checker sees chains mid-life rather than only consolidated bases.
func churn(t *testing.T, tr *Tree, n int, check func()) {
	t.Helper()
	s := tr.NewSession()
	defer s.Release()
	rng := rand.New(rand.NewSource(1))
	ops := 0
	step := func() {
		if ops++; ops%256 == 0 {
			check()
		}
	}
	for _, i := range rng.Perm(n) {
		s.Insert(key64(uint64(i)), uint64(i))
		step()
	}
	for _, i := range rng.Perm(n) {
		if i%8 != 0 {
			s.Delete(key64(uint64(i)), uint64(i))
			step()
		}
		if i%32 == 0 {
			s.Update(key64(uint64(i)), uint64(i)+1)
			step()
		}
	}
	check()
}

// TestDeltaLayout pins the slim chain record and the record layout rule:
// a base carries a body and no smo, a delta record no body, and an smo
// exactly for the four SMO kinds. Validate enforces the rule; the test
// runs it throughout a churn that splits, merges and consolidates, under
// both key layouts, and checks that SMO records were actually seen.
func TestDeltaLayout(t *testing.T) {
	if sz := unsafe.Sizeof(delta{}); sz > 160 {
		t.Fatalf("unsafe.Sizeof(delta{}) = %d, want <= 160", sz)
	}
	for _, flat := range []bool{false, true} {
		t.Run(map[bool]string{false: "slice", true: "flat"}[flat], func(t *testing.T) {
			tr := New(layoutOpts(flat))
			defer tr.Close()
			seen := map[kind]int{}
			churn(t, tr, 6000, func() {
				if err := tr.Validate(); err != nil {
					t.Fatal(err)
				}
				for id := uint64(0); id < tr.mt.Hwm(); id++ {
					for d := tr.load(id); d != nil; d = d.next {
						seen[d.kind]++
					}
				}
			})
			st := tr.Stats()
			if st.Splits == 0 || st.Merges == 0 || st.Consolidations == 0 {
				t.Fatalf("churn did not exercise SMOs: %+v", st)
			}
			smoSeen := 0
			for k, c := range seen {
				if k.hasSMO() {
					smoSeen += c
				}
			}
			if smoSeen == 0 || seen[kLeafInsert] == 0 {
				t.Fatalf("checks saw no SMO or leaf records: %v", seen)
			}
		})
	}
}

// TestSlabPoolHygiene checks that a slab reclaimed into the pool holds no
// pointers: its claimed slots are cleared before it is pooled, so a pooled
// slab pins nothing of the retired chain it served.
func TestSlabPoolHygiene(t *testing.T) {
	tr := New(layoutOpts(false))
	churn(t, tr, 4000, func() {})
	// Close runs every outstanding reclamation callback.
	tr.Close()
	pooled, claimed := 0, 0
	for _, p := range []*slabPool{&tr.leafSlabs, &tr.innerSlabs} {
		for e := p.head.Load(); e != nil; e = e.next {
			pooled++
			claimed += e.s.used()
			for i := range e.s.slots {
				if !reflect.ValueOf(e.s.slots[i]).IsZero() {
					t.Fatalf("pooled slab slot %d of %d not cleared: kind %v", i, e.s.used(), e.s.slots[i].kind)
				}
			}
		}
	}
	if pooled == 0 || claimed == 0 {
		t.Fatalf("no used slab reached the pool (pooled %d, claimed slots %d)", pooled, claimed)
	}
}
