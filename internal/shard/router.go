// Package shard partitions one logical key space across N independent
// Bw-Tree shards — the Doppel-style "sticky worker" deployment the
// serving tier is built on: each shard owns its tree, its epoch handles,
// and (when durable) its own log directory, so the latch-free hot path
// inside a shard never synchronizes with another shard. Cross-shard work
// exists only at the edges: a Router decides which shard owns a key, and
// range scans scatter to every shard and gather through a merged k-way
// iterator (see Session.Scan).
package shard

import (
	"bytes"
	"fmt"
	"sort"
)

// Router maps keys to shard numbers. Implementations must be pure
// functions of the key (stateless and safe for unlimited concurrency):
// the same key must route to the same shard for the lifetime of a Store.
type Router interface {
	// Shard returns the owning shard in [0, NumShards).
	Shard(key []byte) int
	// NumShards is the partition count the router was built for.
	NumShards() int
	// Name identifies the routing scheme ("hash", "range") in reports.
	Name() string
}

// HashRouter routes by FNV-1a hash of the whole key. Point operations
// spread uniformly regardless of key skew in the prefix, at the cost of
// making every range scan touch all shards.
type HashRouter struct{ n int }

// NewHashRouter returns a hash router over n shards.
func NewHashRouter(n int) *HashRouter {
	if n <= 0 {
		n = 1
	}
	return &HashRouter{n: n}
}

// Shard hashes key with FNV-1a and reduces it mod the shard count.
func (r *HashRouter) Shard(key []byte) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(r.n))
}

// NumShards returns the partition count.
func (r *HashRouter) NumShards() int { return r.n }

// Name returns "hash".
func (r *HashRouter) Name() string { return "hash" }

// RangeRouter routes by key range: shard i owns keys in
// [bounds[i-1], bounds[i]) with bounds[-1] = -inf and bounds[n-1] = +inf.
// Scans touch only the shards overlapping the requested range, but point
// throughput depends on the key distribution matching the bounds.
type RangeRouter struct {
	// bounds holds the n-1 separator keys, ascending.
	bounds [][]byte
}

// NewRangeRouter returns a range router over n shards with separators
// spread uniformly over the first two key bytes — the right default for
// the big-endian integer and email key sets the harness generates.
func NewRangeRouter(n int) *RangeRouter {
	if n <= 0 {
		n = 1
	}
	bounds := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		cut := uint32(i) * 0x10000 / uint32(n)
		bounds = append(bounds, []byte{byte(cut >> 8), byte(cut)})
	}
	return &RangeRouter{bounds: bounds}
}

// NewRangeRouterBounds builds a range router from explicit ascending
// separator keys; len(bounds)+1 shards result.
func NewRangeRouterBounds(bounds [][]byte) (*RangeRouter, error) {
	for i := 1; i < len(bounds); i++ {
		if bytes.Compare(bounds[i-1], bounds[i]) >= 0 {
			return nil, fmt.Errorf("shard: range bounds not strictly ascending at %d", i)
		}
	}
	cp := make([][]byte, len(bounds))
	for i, b := range bounds {
		cp[i] = append([]byte(nil), b...)
	}
	return &RangeRouter{bounds: cp}, nil
}

// Shard binary-searches the separator list.
func (r *RangeRouter) Shard(key []byte) int {
	return sort.Search(len(r.bounds), func(i int) bool {
		return bytes.Compare(key, r.bounds[i]) < 0
	})
}

// NumShards returns the partition count.
func (r *RangeRouter) NumShards() int { return len(r.bounds) + 1 }

// Name returns "range".
func (r *RangeRouter) Name() string { return "range" }

// NewRouter builds a router by scheme name ("hash" or "range").
func NewRouter(scheme string, n int) (Router, error) {
	switch scheme {
	case "", "hash":
		return NewHashRouter(n), nil
	case "range":
		return NewRangeRouter(n), nil
	}
	return nil, fmt.Errorf("shard: unknown router %q (want hash or range)", scheme)
}
