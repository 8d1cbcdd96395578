package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// Micro-benchmarks for the shared window-search helper (flatnode.go).
// BenchmarkBaseSearch/slice-* vs BenchmarkBaseSearch/handrolled-* proves
// deduplicating the four hand-rolled binary searches behind windowSearch
// cost the slice path nothing; the flat-* variants show the arena layout
// with prefix-skip comparisons.

// handrolledSearch is the pre-deduplication searchKeys, kept verbatim as
// the regression reference.
func handrolledSearch(keys [][]byte, k []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && bytes.Equal(keys[lo], k)
}

func benchKeySet(n int, prefix string) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%s%08d", prefix, i*7))
	}
	return keys
}

func BenchmarkBaseSearch(b *testing.B) {
	for _, size := range []int{128, 1024} {
		for _, prefix := range []string{"", "user:profile:v2:"} {
			keys := benchKeySet(size, prefix)
			flat := flatBaseFromKeys(keys)
			probes := make([][]byte, 64)
			for i := range probes {
				probes[i] = keys[(i*31)%len(keys)]
			}
			tag := fmt.Sprintf("n=%d,pfx=%d", size, len(prefix))
			b.Run("handrolled/"+tag, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					handrolledSearch(keys, probes[i&63])
				}
			})
			b.Run("slice/"+tag, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					searchKeys(keys, probes[i&63])
				}
			})
			b.Run("flat/"+tag, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					flat.baseSearch(probes[i&63])
				}
			})
			// The same probes through the conditional-move variant inner
			// routing uses (flatSearch dispatches on isLeaf).
			inner := flatBaseFromKeys(keys)
			inner.kind, inner.isLeaf = kInnerBase, false
			b.Run("branchfree/"+tag, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					inner.baseSearch(probes[i&63])
				}
			})
		}
	}
}

// BenchmarkDeepDescent is the end-to-end regime the flatnode inner arm
// gates: consolidated lookups on a deliberately deep tree (fanout 64,
// leaf size 16 — 3+ inner levels at this population, matching the
// harness inner arm), with the inner arena layout on or off and flat
// leaves on both sides. The guard for the suffix-word routing path:
// flatinner=true must not lose to flatinner=false.
func BenchmarkDeepDescent(b *testing.B) {
	const n = 200_000
	keys := make([][]byte, n)
	for i := range keys {
		j := (i * 7919) % n // insertion order unrelated to sort order
		keys[i] = []byte(fmt.Sprintf("user%08d@bench.example.com......", j))
	}
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("flatinner=%t", on), func(b *testing.B) {
			opts := DefaultOptions()
			opts.FlatBaseNodes = true
			opts.FlatInnerNodes = on
			opts.InnerNodeSize = 64
			opts.LeafNodeSize = 16
			tr := New(opts)
			defer tr.Close()
			s := tr.NewSession()
			defer s.Release()
			for i, k := range keys {
				s.Insert(k, uint64(i))
			}
			tr.ConsolidateAll()
			runtime.GC() // clear construction garbage before timing
			var out []uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = s.Lookup(keys[i%n], out[:0])
			}
		})
	}
}
