package main

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/shard"
	"repro/internal/ycsb"
)

// workload is one named traffic mix. Sizes are the full-run sizes; short
// runs (the package's own tests) scale keys down.
// Request keys are uniform in every workload.
type workload struct {
	name   string
	keys   int
	shards int // store partitions behind a loopback server; 0 means one bare tree
	mix    opMix
}

type opMix uint8

const (
	mixA opMix = iota // 50% read / 50% update
	mixE              // 95% scan of 1-96 pairs / 5% insert
)

// workloads are the benchmark's traffic mixes, as listed in
// BENCHMARK.json.
var workloads = []*workload{
	{name: "tree-ycsb-a", keys: 1_000_000, mix: mixA},
	{name: "wire-scan-e", keys: 200_000, shards: 2, mix: mixE},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// top is the ladder rung the workload's clients call: core for the bare
// tree, wire for a served store.
func (w *workload) top() int {
	if w.shards == 0 {
		return rungCore
	}
	return rungWire
}

const (
	maxScanLen = 96
	// loadBatch is the OpBatch frame size used to load wire stores.
	loadBatch = 1024
)

// population is the loaded key set. Keys are the ycsb Email keys (32
// bytes, distinct); order is the seeded load order.
type population struct {
	keys    [][]byte
	order   []int // load order, a seeded permutation of key indices
	byKey   []int // key indices in key order
	router  shard.Router
	shardOf []uint8 // owning shard per key (set by route)
	byShard [][]int // per shard, its key indices in key order (set by route)
}

// newPopulation builds n keys and a seeded load order; sorted also
// builds byKey, which scan checks and bulk loads need.
func newPopulation(n int, seed uint64, sorted bool) *population {
	p := &population{keys: ycsb.NewKeySet(ycsb.Email, n).Keys, order: make([]int, n)}
	rng := ycsb.NewRand(seed ^ 0x5eed)
	for i := range p.order {
		j := rng.Intn(i + 1)
		p.order[i] = p.order[j]
		p.order[j] = i
	}
	if sorted {
		p.byKey = make([]int, n)
		for i := range p.byKey {
			p.byKey[i] = i
		}
		sort.Slice(p.byKey, func(i, j int) bool { return bytes.Compare(p.keys[p.byKey[i]], p.keys[p.byKey[j]]) < 0 })
	}
	return p
}

// route records each key's owning shard (p must be sorted), so the core rung can address
// the right tree without paying for routing inside its timed calls.
func (p *population) route(r shard.Router) {
	p.router = r
	p.shardOf = make([]uint8, len(p.keys))
	p.byShard = make([][]int, r.NumShards())
	for _, i := range p.byKey {
		sh := r.Shard(p.keys[i])
		p.shardOf[i] = uint8(sh)
		p.byShard[sh] = append(p.byShard[sh], i)
	}
}

// loadValue is key i's value right after load, tagged with its index.
func loadValue(i int) uint64 { return uint64(i) << 32 }

// remaining counts the keys of sorted (indices in key order) that are
// >= start.
func (p *population) remaining(sorted []int, start []byte) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return bytes.Compare(p.keys[sorted[i]], start) >= 0 })
}

type opKind uint8

const (
	opRead opKind = iota
	opUpdate
	opInsert
	opScan
)

type op struct {
	kind opKind
	a    int    // population index
	key  []byte // insert key (not in the population)
	sh   int    // owning shard of the op's key (insert key or key a)
	val  uint64
	n    int // scan length
	// b is the partner key a write commits with on the txn rung, in
	// the next shard round from sh, and valB its value; set only when
	// the population is routed (the traced run).
	b    int
	valB uint64
}

// gen is one client's seeded op stream. Replaying a gen with the same
// seed and client yields the same ops; rung only changes written values
// and insert keys, so that a replay on the same store never turns an
// update into a same-value no-op or an insert into a duplicate.
type gen struct {
	w      *workload
	p      *population
	rng    *ycsb.Rand
	client int
	rung   int
	seq    uint64
}

func newGen(w *workload, p *population, seed uint64, client, rung int) *gen {
	s := seed*0x9E3779B97F4A7C15 + uint64(client+1)*0xBF58476D1CE4E5B9
	return &gen{w: w, p: p, client: client, rung: rung, rng: ycsb.NewRand(s)}
}

func (g *gen) pick() int { return g.rng.Intn(len(g.p.keys)) }

// writeValue tags an updated value with its key index, so a read can
// check that it got a value written for the key it asked for.
func (g *gen) writeValue(a int) uint64 {
	return uint64(a)<<32 | uint64(g.rung&0xf)<<28 | uint64(g.client+1)<<24 | g.seq&(1<<24-1)
}

func (g *gen) next() op {
	g.seq++
	var o op
	switch g.w.mix {
	case mixA:
		o.a = g.pick()
		if g.rng.Uint64()&1 == 0 {
			o.kind = opRead
		} else {
			o.kind, o.val = opUpdate, g.writeValue(o.a)
		}
	case mixE:
		if g.rng.Intn(100) < 5 {
			o.kind, o.key, o.val = opInsert, g.insertKey(), uint64(g.client+1)<<60|g.seq
		} else {
			o.kind, o.a, o.n = opScan, g.pick(), 1+g.rng.Intn(maxScanLen)
		}
	}
	if g.p.router == nil {
		return o
	}
	if o.kind == opInsert {
		o.sh = g.p.router.Shard(o.key)
	} else {
		o.sh = int(g.p.shardOf[o.a])
	}
	if o.kind == opUpdate || o.kind == opInsert {
		// With one shard the partner is any other loaded key.
		part := g.p.byShard[(o.sh+1)%len(g.p.byShard)]
		for o.b = o.a; o.b == o.a; {
			o.b = part[g.rng.Intn(len(part))]
		}
		o.valB = g.writeValue(o.b)
	}
	return o
}

var (
	emailUsers   = []string{"amy", "ben", "cleo", "dan", "eve", "finn", "gus", "hana"}
	emailDomains = []string{"example.com", "mail.net", "corp.org", "inbox.io"}
)

// insertKey returns a fresh 32-byte email key. The digit field is unique
// per (rung, client, seq) and the final byte is '+', where every loaded
// Email key ends in '.' padding, so inserts never collide with the
// population or with each other.
func (g *gen) insertKey() []byte {
	num := uint64(g.rung)*10_000_000 + g.seq*2 + uint64(g.client)
	h := g.rng.Uint64()
	s := fmt.Sprintf("%s%08d@%s", emailUsers[h%8], num%100_000_000, emailDomains[(h>>8)%4])
	k := bytes.Repeat([]byte{'.'}, 32)
	copy(k, s)
	k[31] = '+'
	return k
}
