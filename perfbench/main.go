// Command perfbench is the repository benchmark: closed-loop workloads
// on the in-process tree and over the wire protocol, plus a traced run
// that replays each workload's op stream up a ladder of layers, through
// durable and transactional commits. See README.md; run it through run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// nClients is the closed-loop client count (one per CPU of the 2-CPU
// host the bounds were set on).
const nClients = 2

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // scratch space for WAL directories and span dumps
	short    bool   // scaled-down key counts, for the package tests
}

func (c *config) keys(w *workload) int {
	if c.short {
		return max(w.keys/50, 2000)
	}
	return w.keys
}

func (c *config) dur() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec names a metric, its unit and which direction is better; the same
// tables drive the output and the package test that checks them against
// BENCHMARK.json.
type spec struct{ name, unit, better string }

var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"throughput_kops", "kops/s", "higher"},
	{"read_p50_us", "us", "lower"},
	{"read_p99_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"write_p99_us", "us", "lower"},
	{"op_p50_us", "us", "lower"},
	{"op_p99_us", "us", "lower"},
	{"mem_bytes_per_key", "B/key", "lower"},
}

var perLayer = []spec{
	{"ladder.core_op_us", "us", "lower"},
	{"ladder.shard_op_us", "us", "lower"},
	{"ladder.durable_op_us", "us", "lower"},
	{"ladder.txn_op_us", "us", "lower"},
	{"ladder.wire_op_us", "us", "lower"},
	{"core.read_us", "us", "lower"},
	{"core.write_us", "us", "lower"},
	{"core.read_us_per_pair", "us", "lower"},
	{"core.descend_ns", "ns", "lower"},
	{"core.chain_walk_ns", "ns", "lower"},
	{"core.base_search_ns", "ns", "lower"},
	{"core.cas_ns", "ns", "lower"},
	{"core.consolidate_ns", "ns", "lower"},
	{"core.aborts_per_kop", "1/kop", "lower"},
	{"core.cas_failures_per_kop", "1/kop", "lower"},
	{"core.consolidations_per_kop", "1/kop", "lower"},
	{"core.pointer_chases_per_op", "1/op", "lower"},
	{"core.leaf_chain_len", "count", "lower"},
	{"core.height", "count", "lower"},
	{"epoch.unreclaimed", "count", "lower"},
	{"epoch.lag", "count", "lower"},
	{"shard.route_us", "us", "lower"},
	{"shard.read_us_per_pair", "us", "lower"},
	{"durable.write_us", "us", "lower"},
	{"durable.wal_append_ns", "ns", "lower"},
	{"durable.fsync_wait_us", "us", "lower"},
	{"wal.fsyncs_per_write", "1/op", "lower"},
	{"wal.records_per_fsync", "count", "higher"},
	{"wal.fsync_p50_us", "us", "lower"},
	{"wal.bytes_per_write", "B/op", "lower"},
	{"txn.commit_us", "us", "lower"},
	{"txn.validate_p99_us", "us", "lower"},
	{"txn.conflict_frac", "frac", "lower"},
	{"bwproto.ping_rtt_us", "us", "lower"},
	{"bwproto.overhead_us", "us", "lower"},
	{"bwproto.frames_per_op", "1/op", "lower"},
	{"bwproto.proto_errors", "count", "lower"},
	{"trace.overhead_us", "us", "lower"},
	{"host.steal_frac", "frac", "lower"},
}

// emit fills res.Metrics from vals for every spec in the table; a spec
// with no value is an error, so no metric is silently left out.
func emit(res *result, table []spec, vals map[string]float64) error {
	res.Metrics = make(map[string]metric, len(table))
	for _, s := range table {
		v, ok := vals[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return nil
}

func run(cfg *config) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.trace {
		return runTraced(cfg, w)
	}
	return runE2E(cfg, w)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced layer-ladder run reporting per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build/perfbench", "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 || cfg.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	dir, err := filepath.Abs(cfg.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.dir = dir
	res, err := run(&cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
