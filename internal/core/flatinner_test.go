package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Tests for the inner-node arena layout (Options.FlatInnerNodes): the
// branch-free window search.

// TestWindowSearchDifferential is the three-way search differential: for
// random key sets (with and without shared prefixes, with and without a
// leading nil -inf separator) the slice path, the flat-arena path, and
// the branch-free path must return the same position for every (lo, hi,
// strict) window and probe — including probes shorter than the node's
// common prefix and probes outside the key range.
func TestWindowSearchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	// The longer prefixes drive routeSearch's prefix pre-check and leave
	// short suffixes whose first 8 bytes collide often (word-tie
	// fallback); the empty prefix drives the no-pre-check arm.
	prefixes := []string{"", "x", "sep:inner:v1:", "tenant/000042/rack/17/object/"}
	for trial := 0; trial < 120; trial++ {
		pfx := prefixes[rng.Intn(len(prefixes))]
		n := rng.Intn(24) + 1
		set := map[string]bool{}
		for len(set) < n {
			set[fmt.Sprintf("%s%03d", pfx, rng.Intn(300))] = true
		}
		var keys [][]byte
		for k := range set {
			keys = append(keys, []byte(k))
		}
		sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
		if trial%3 == 0 {
			// Leftmost inner base: -inf separator first, which forces
			// pfx = 0 and exercises the nil0 path.
			keys = append([][]byte{nil}, keys...)
		}

		leafD := flatBaseFromKeys(keys) // isLeaf: windowSearch arena arm
		innerD := flatBaseFromKeys(keys)
		innerD.kind, innerD.isLeaf = kInnerBase, false  // branch-free arm
		innerD.sfx = buildSuffixWords(keys, innerD.pfx) // word-plane arm
		innerRaw := flatBaseFromKeys(keys)
		innerRaw.kind, innerRaw.isLeaf = kInnerBase, false // stride / variable-width fallback arms

		probes := [][]byte{[]byte("0"), []byte("zzzz"), []byte(pfx + "150")}
		if len(pfx) > 1 {
			// Shorter than, exactly, and extending the common prefix.
			probes = append(probes, []byte(pfx[:1]), []byte(pfx), []byte(pfx+"~"))
		}
		for _, k := range keys {
			if k == nil {
				continue
			}
			probes = append(probes, k, append(append([]byte(nil), k...), 0))
		}
		for _, p := range probes {
			if len(p) == 0 {
				continue
			}
			for lo := 0; lo <= len(keys); lo++ {
				for hi := lo; hi <= len(keys); hi++ {
					for _, strict := range []bool{false, true} {
						want := windowSearch(keys, nil, nil, 0, p, lo, hi, strict)
						gotLeaf, _ := leafD.flatSearch(p, lo, hi, strict)
						gotInner, _ := innerD.flatSearch(p, lo, hi, strict)
						if gotLeaf != want || gotInner != want {
							t.Fatalf("pfx=%q n=%d probe=%q window [%d,%d) strict=%t: slice %d, flat %d, branch-free %d",
								pfx, len(keys), p, lo, hi, strict, want, gotLeaf, gotInner)
						}
					}
				}
			}
			// routeSearch is the full-window routing probe: same answer as
			// the slice search through the suffix-word plane (innerD —
			// exact-key and key+\x00 probes force word ties, exercising
			// the arena fallback) and through the planeless fixed-stride /
			// variable-width fallbacks (innerRaw).
			for _, strict := range []bool{false, true} {
				want := windowSearch(keys, nil, nil, 0, p, 0, len(keys), strict)
				if got := innerD.routeSearch(p, strict); got != want {
					t.Fatalf("pfx=%q n=%d probe=%q strict=%t: word routeSearch %d, slice %d",
						pfx, len(keys), p, strict, got, want)
				}
				if got := innerRaw.routeSearch(p, strict); got != want {
					t.Fatalf("pfx=%q n=%d probe=%q strict=%t stride=%d: raw routeSearch %d, slice %d",
						pfx, len(keys), p, strict, innerRaw.stride, got, want)
				}
			}
		}
	}
}

// TestBranchFreeSearchPrimitive pins branchFreeSearch directly against
// windowSearch's arena arm on the raw (arena, offs) representation for
// both bound kinds, without flatSearch's prefix pre-check in the way.
func TestBranchFreeSearchPrimitive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(65)
		set := map[string]bool{}
		for len(set) < n {
			set[fmt.Sprintf("%04d", rng.Intn(2000))] = true
		}
		keys := make([][]byte, 0, n)
		for k := range set {
			keys = append(keys, []byte(k))
		}
		sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
		arena, offs, _, stride, _ := buildFlat(keys)

		for probe := 0; probe < 32; probe++ {
			p := []byte(fmt.Sprintf("%04d", rng.Intn(2000)))
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n+1-lo)
			for limit := 0; limit <= 1; limit++ {
				want := windowSearch(nil, arena, offs, 0, p, lo, hi, limit == 1)
				got := branchFreeSearch(arena, offs, 0, p, lo, hi, limit)
				if got != want {
					t.Fatalf("n=%d probe=%q window [%d,%d) limit=%d: windowSearch %d, branchFreeSearch %d",
						n, p, lo, hi, limit, want, got)
				}
				// The %04d keys are uniform-width, so the fixed-stride
				// variant applies over the full window and must agree.
				if stride != 0 {
					full := windowSearch(nil, arena, offs, 0, p, 0, n, limit == 1)
					if got := strideSearch(arena, stride, 0, n, p, limit); got != full {
						t.Fatalf("n=%d probe=%q limit=%d: windowSearch %d, strideSearch %d",
							n, p, limit, full, got)
					}
				}
			}
		}
	}
}
