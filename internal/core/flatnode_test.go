package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// flatBaseFromKeys builds a flat-layout base node over keys for direct
// search testing.
func flatBaseFromKeys(keys [][]byte) *delta {
	n := &delta{kind: kLeafBase, isLeaf: true, size: int32(len(keys))}
	n.arena, n.offs, n.pfx, n.stride, n.nil0 = buildFlat(keys)
	n.base = n
	return n
}

func TestBuildFlat(t *testing.T) {
	cases := []struct {
		name   string
		keys   [][]byte
		pfx    uint32
		stride uint32
		nil0   bool
	}{
		{"empty", nil, 0, 0, false},
		{"single", [][]byte{[]byte("hello")}, 5, 5, false},
		{"shared-prefix", [][]byte{[]byte("user123"), []byte("user456"), []byte("user789")}, 4, 7, false},
		{"no-prefix", [][]byte{[]byte("alpha"), []byte("beta")}, 0, 0, false},
		{"nil-separator", [][]byte{nil, []byte("m")}, 0, 0, true},
		{"duplicates", [][]byte{[]byte("dup"), []byte("dup"), []byte("dup")}, 3, 3, false},
		{"prefix-is-a-key", [][]byte{[]byte("ab"), []byte("abc"), []byte("abd")}, 2, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := flatBaseFromKeys(tc.keys)
			if n.pfx != tc.pfx || n.stride != tc.stride || n.nil0 != tc.nil0 {
				t.Fatalf("pfx=%d stride=%d nil0=%t, want %d/%d/%t",
					n.pfx, n.stride, n.nil0, tc.pfx, tc.stride, tc.nil0)
			}
			if got := n.baseLen(); got != len(tc.keys) {
				t.Fatalf("baseLen=%d, want %d", got, len(tc.keys))
			}
			for i, k := range tc.keys {
				got := n.baseKey(i)
				if (got == nil) != (k == nil) || !bytes.Equal(got, k) {
					t.Fatalf("baseKey(%d)=%q (nil=%t), want %q (nil=%t)",
						i, got, got == nil, k, k == nil)
				}
			}
		})
	}
}

// TestFlatSearchMatchesSlice drives the flat prefix-skip search and the
// slice search with identical key sets and probes — including probes
// shorter than, equal to, and extending the common prefix — and demands
// byte-identical (position, exact) results.
func TestFlatSearchMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prefixes := []string{"", "k", "user:profile:", "aa"}
	for trial := 0; trial < 200; trial++ {
		pfx := prefixes[rng.Intn(len(prefixes))]
		n := rng.Intn(40) + 1
		set := map[string]bool{}
		for len(set) < n {
			set[fmt.Sprintf("%s%03d", pfx, rng.Intn(500))] = true
		}
		var keys [][]byte
		for k := range set {
			keys = append(keys, []byte(k))
		}
		for i := range keys {
			for j := i + 1; j < len(keys); j++ {
				if bytes.Compare(keys[j], keys[i]) < 0 {
					keys[i], keys[j] = keys[j], keys[i]
				}
			}
		}
		flat := flatBaseFromKeys(keys)

		probes := [][]byte{[]byte("0"), []byte("zzz"), []byte(pfx), []byte(pfx + "5")}
		if len(pfx) > 1 {
			probes = append(probes, []byte(pfx[:1]), []byte(pfx+"999999"))
		}
		for _, k := range keys {
			probes = append(probes, k, append(append([]byte(nil), k...), 0))
		}
		for _, p := range probes {
			if len(p) == 0 {
				continue
			}
			wantPos, wantExact := searchKeys(keys, p)
			gotPos, gotExact := flat.baseSearch(p)
			if gotPos != wantPos || gotExact != wantExact {
				t.Fatalf("pfx=%q keys=%d probe=%q: flat (%d,%t), slice (%d,%t)",
					pfx, len(keys), p, gotPos, gotExact, wantPos, wantExact)
			}
			// Windowed search with a random valid window must agree too.
			lo := rng.Intn(len(keys) + 1)
			hi := lo + rng.Intn(len(keys)+1-lo)
			wp, we := searchKeysRange(keys, p, lo, hi)
			gp, ge := flat.baseSearchRange(p, lo, hi)
			if gp != wp || ge != we {
				t.Fatalf("pfx=%q probe=%q window [%d,%d): flat (%d,%t), slice (%d,%t)",
					pfx, p, lo, hi, gp, ge, wp, we)
			}
		}
	}
}

// TestFlatRouteMatchesSlice checks that inner-node routing (upper-bound
// and lower-bound variants) agrees between the layouts, including on the
// nil -inf separator of a leftmost inner node.
func TestFlatRouteMatchesSlice(t *testing.T) {
	keys := [][]byte{nil, []byte("e"), []byte("ee"), []byte("k"), []byte("r")}
	kids := []nodeID{10, 20, 30, 40, 50}
	slice := &delta{kind: kInnerBase, keys: keys, kids: kids}
	flat := &delta{kind: kInnerBase, kids: kids}
	flat.arena, flat.offs, flat.pfx, flat.stride, flat.nil0 = buildFlat(keys)

	probes := []string{"a", "e", "e0", "ee", "eee", "j", "k", "k1", "q", "r", "z"}
	for _, p := range probes {
		k := []byte(p)
		if got, want := routeBaseInner(flat, k), routeBaseInner(slice, k); got != want {
			t.Errorf("routeBaseInner(%q): flat %d, slice %d", p, got, want)
		}
		if got, want := routeBaseInnerLeft(flat, k), routeBaseInnerLeft(slice, k); got != want {
			t.Errorf("routeBaseInnerLeft(%q): flat %d, slice %d", p, got, want)
		}
	}
}

// TestFlatLayoutDifferential runs one random operation stream against an
// arena-layout tree (each combination of leaf/inner flat flags) and an
// all-slice tree with tiny nodes (forcing splits, merges, and
// consolidations) and demands identical results.
func TestFlatLayoutDifferential(t *testing.T) {
	combos := []struct{ leaf, inner bool }{
		{true, false}, {false, true}, {true, true},
	}
	for _, nonUnique := range []bool{false, true} {
		for _, combo := range combos {
			t.Run(fmt.Sprintf("nonUnique=%t/leafFlat=%t/innerFlat=%t", nonUnique, combo.leaf, combo.inner), func(t *testing.T) {
				mk := func(leafFlat, innerFlat bool) (*Tree, *Session) {
					opts := DefaultOptions()
					opts.FlatBaseNodes = leafFlat
					opts.FlatInnerNodes = innerFlat
					opts.NonUnique = nonUnique
					opts.LeafNodeSize = 16
					opts.InnerNodeSize = 8
					opts.LeafChainLength = 4
					opts.InnerChainLength = 2
					opts.LeafMergeSize = 4
					opts.InnerMergeSize = 2
					tr := New(opts)
					return tr, tr.NewSession()
				}
				ft, fs := mk(combo.leaf, combo.inner)
				defer ft.Close()
				st, ss := mk(false, false)
				defer st.Close()

				rng := rand.New(rand.NewSource(7))
				key := func() []byte {
					// Shared prefix plus a short tail: exercises prefix-skip.
					return []byte(fmt.Sprintf("key:%04d", rng.Intn(400)))
				}
				for op := 0; op < 8000; op++ {
					k := key()
					v := uint64(rng.Intn(4))
					switch rng.Intn(10) {
					case 0, 1, 2:
						if got, want := fs.Insert(k, v), ss.Insert(k, v); got != want {
							t.Fatalf("op %d: Insert(%q,%d) flat=%t slice=%t", op, k, v, got, want)
						}
					case 3:
						if got, want := fs.Delete(k, v), ss.Delete(k, v); got != want {
							t.Fatalf("op %d: Delete(%q,%d) flat=%t slice=%t", op, k, v, got, want)
						}
					case 4:
						if got, want := fs.Update(k, v), ss.Update(k, v); got != want {
							t.Fatalf("op %d: Update(%q,%d) flat=%t slice=%t", op, k, v, got, want)
						}
					case 5:
						var fgot, sgot []uint64
						fgot = fs.Lookup(k, fgot)
						sgot = ss.Lookup(k, sgot)
						sortU64(fgot)
						sortU64(sgot)
						if fmt.Sprint(fgot) != fmt.Sprint(sgot) {
							t.Fatalf("op %d: Lookup(%q) flat=%v slice=%v", op, k, fgot, sgot)
						}
					default:
						count := rng.Intn(30) + 1
						var fk, sk []string
						fs.Scan(k, count, func(kk []byte, vv uint64) bool {
							fk = append(fk, fmt.Sprintf("%s=%d", kk, vv))
							return true
						})
						ss.Scan(k, count, func(kk []byte, vv uint64) bool {
							sk = append(sk, fmt.Sprintf("%s=%d", kk, vv))
							return true
						})
						if fmt.Sprint(fk) != fmt.Sprint(sk) {
							t.Fatalf("op %d: Scan(%q,%d)\nflat:  %v\nslice: %v", op, k, count, fk, sk)
						}
					}
				}
				if err := ft.Validate(); err != nil {
					t.Fatalf("flat tree validate: %v", err)
				}
				if err := st.Validate(); err != nil {
					t.Fatalf("slice tree validate: %v", err)
				}
				if got, want := ft.Count(), st.Count(); got != want {
					t.Fatalf("count: flat %d, slice %d", got, want)
				}
			})
		}
	}
}

func sortU64(vs []uint64) {
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			if vs[j] < vs[i] {
				vs[i], vs[j] = vs[j], vs[i]
			}
		}
	}
}

// TestFlatBulkLoad bulk-loads a flat-layout tree and checks structure,
// content, and that the bases actually use the flat layout.
func TestFlatBulkLoad(t *testing.T) {
	opts := DefaultOptions()
	opts.LeafNodeSize = 16
	opts.InnerNodeSize = 8
	tr := New(opts)
	defer tr.Close()

	const n = 5000
	i := 0
	err := tr.BulkLoad(func() ([]byte, uint64, bool) {
		if i >= n {
			return nil, 0, false
		}
		k := []byte(fmt.Sprintf("bulk:%06d", i))
		v := uint64(i)
		i++
		return k, v, true
	})
	if err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	s := tr.NewSession()
	defer s.Release()
	for j := 0; j < n; j += 37 {
		k := []byte(fmt.Sprintf("bulk:%06d", j))
		got := s.Lookup(k, nil)
		if len(got) != 1 || got[0] != uint64(j) {
			t.Fatalf("Lookup(%q) = %v, want [%d]", k, got, j)
		}
	}
	st := tr.StructureStats()
	if st.FlatBases == 0 {
		t.Fatal("bulk-loaded tree reports no flat bases")
	}
	if st.FlatBases != st.LeafNodes+st.InnerNodes {
		t.Errorf("FlatBases=%d, want every base flat (%d leaves + %d inner)",
			st.FlatBases, st.LeafNodes, st.InnerNodes)
	}
	if st.InnerFlatBases != st.InnerNodes {
		t.Errorf("InnerFlatBases=%d, want every inner base flat (%d)", st.InnerFlatBases, st.InnerNodes)
	}
	if st.InnerArenaBytes == 0 || st.InnerArenaBytes >= st.ArenaBytes {
		t.Errorf("InnerArenaBytes=%d out of range (ArenaBytes=%d)", st.InnerArenaBytes, st.ArenaBytes)
	}
	if st.ArenaBytes == 0 || st.KeyBytes == 0 || st.LeafBytesPerEntry == 0 {
		t.Errorf("footprint metrics missing: %+v", st)
	}
	// A flat base carries a constant 3 payload pointers.
	if st.GCPtrsPerLeaf != 3 {
		t.Errorf("GCPtrsPerLeaf=%v, want 3 for all-flat leaves", st.GCPtrsPerLeaf)
	}
}

// TestStructureStatsSliceFootprint pins the slice-layout pointer
// accounting: 2 + one pointer per key.
func TestStructureStatsSliceFootprint(t *testing.T) {
	opts := DefaultOptions()
	opts.FlatBaseNodes = false
	opts.FlatInnerNodes = false
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	for i := 0; i < 50; i++ {
		s.Insert(key64(uint64(i)), uint64(i))
	}
	tr.ConsolidateAll()
	st := tr.StructureStats()
	if st.FlatBases != 0 {
		t.Errorf("FlatBases=%d on a slice-layout tree", st.FlatBases)
	}
	if st.LeafNodes == 1 && st.GCPtrsPerLeaf != float64(2+50) {
		t.Errorf("GCPtrsPerLeaf=%v, want %d", st.GCPtrsPerLeaf, 2+50)
	}
	if st.KeyBytes != 50*8 {
		t.Errorf("KeyBytes=%d, want %d", st.KeyBytes, 50*8)
	}
}

// TestLeafChainUnexpectedKind is the regression test for the stale
// fallback fixed in leaf.go: all four leaf replay loops must skip an
// unexpected record kind and fall through to the base search instead of
// reporting not-found, and must terminate on a baseless chain.
func TestLeafChainUnexpectedKind(t *testing.T) {
	for _, flat := range []bool{true, false} {
		t.Run(fmt.Sprintf("flat=%t", flat), func(t *testing.T) {
			opts := DefaultOptions()
			opts.FlatBaseNodes = flat
			tr := New(opts)
			defer tr.Close()
			s := tr.NewSession()
			defer s.Release()
			for i := 0; i < 8; i++ {
				s.Insert(key64(uint64(i)), uint64(100+i))
			}
			tr.ConsolidateAll()

			root := tr.load(tr.root)
			leaf := tr.load(root.kids[0])
			if leaf.kind != kLeafBase {
				t.Fatalf("expected consolidated leaf base, got %v", leaf.kind)
			}
			// An inner-only kind can never legally appear in a leaf chain;
			// splice one in above the base.
			bogus := &delta{kind: kInnerInsert}
			bogus.inheritFrom(leaf)
			bogus.offset = -1

			k := key64(3)
			if r := s.leafSeek(bogus, k); !r.found || r.value != 103 {
				t.Errorf("leafSeek through unexpected kind: %+v, want found value 103", r)
			}
			if vs, off := s.collectValues(bogus, k, nil); len(vs) != 1 || vs[0] != 103 || off < 0 {
				t.Errorf("collectValues through unexpected kind: %v off=%d", vs, off)
			}
			if r := s.leafSeekPair(bogus, k, 103); !r.found {
				t.Errorf("leafSeekPair through unexpected kind: %+v", r)
			}
			if r := s.leafSeekFirstVisible(bogus, k); !r.found || r.value != 103 {
				t.Errorf("leafSeekFirstVisible through unexpected kind: %+v", r)
			}

			// A baseless chain of unexpected records must terminate with
			// not-found and no offset.
			orphan := &delta{kind: kInnerInsert, isLeaf: true}
			if r := s.leafSeek(orphan, k); r.found || r.baseOff != -1 {
				t.Errorf("leafSeek on baseless chain: %+v", r)
			}
			if vs, off := s.collectValues(orphan, k, nil); len(vs) != 0 || off != -1 {
				t.Errorf("collectValues on baseless chain: %v off=%d", vs, off)
			}
			if r := s.leafSeekPair(orphan, k, 103); r.found || r.baseOff != -1 {
				t.Errorf("leafSeekPair on baseless chain: %+v", r)
			}
			if r := s.leafSeekFirstVisible(orphan, k); r.found || r.baseOff != -1 {
				t.Errorf("leafSeekFirstVisible on baseless chain: %+v", r)
			}
		})
	}
}

// TestFlatLookupNoAllocs pins the zero-allocation contract of the flat
// read path: unique-key lookups against consolidated flat bases must not
// allocate.
func TestFlatLookupNoAllocs(t *testing.T) {
	opts := DefaultOptions()
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	const n = 4096
	for i := 0; i < n; i++ {
		s.Insert(key64(uint64(i)), uint64(i))
	}
	tr.ConsolidateAll()

	out := make([]uint64, 0, 4)
	k := make([]byte, 8)
	copy(k, key64(uint64(n/2)))
	avg := testing.AllocsPerRun(2000, func() {
		out = s.Lookup(k, out[:0])
	})
	if avg > 0.01 {
		t.Errorf("Lookup allocates %.3f per op on flat bases, want 0", avg)
	}
}
