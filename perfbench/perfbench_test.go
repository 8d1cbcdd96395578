package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/obs"
	"repro/internal/shard"
)

// shortRun runs one workload at test scale.
func shortRun(t *testing.T, name string, trace bool) *result {
	t.Helper()
	cfg := &config{workload: name, seed: 7, seconds: 0.5, trace: trace, dir: t.TempDir(), short: true}
	if trace {
		cfg.seconds = 2
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", name, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// checkMetrics asserts that res holds exactly the table's metrics, each
// with its unit and a finite value, and positive where positive is set.
func checkMetrics(t *testing.T, name string, res *result, table []spec, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(table) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(table))
	}
	for _, s := range table {
		m, ok := res.Metrics[s.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, s.name)
		case m.Unit != s.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", name, s.name, m.Unit, s.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", name, s.name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, s.name, m.Value)
		}
	}
}

// TestWorkloads runs every workload untraced and traced at test scale:
// every op and end check passes, every end-to-end metric is emitted with
// its unit and is never 0, and the traced run emits every per-layer
// metric (each workload climbs every rung of the ladder).
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			checkMetrics(t, w.name, shortRun(t, w.name, false), endToEnd, true)
			res := shortRun(t, w.name, true)
			checkMetrics(t, w.name, res, perLayer, false)
			if v := res.Metrics["bwproto.proto_errors"].Value; v != 0 {
				t.Errorf("%s: %v protocol errors", w.name, v)
			}
		})
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the program: the same
// metrics with the same units and directions, and only workloads the
// program knows.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, program emits %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		if s := endToEnd[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("end_to_end[%d] = %s %s %s, program has %v", i, m.Name, m.Unit, m.Better, s)
		}
	}
	for i, m := range doc.PerLayer {
		if s := perLayer[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per_layer[%d] = %s %s %s, program has %v", i, m.Name, m.Unit, m.Better, s)
		}
	}
}

// TestSelfTime checks phase self-time attribution on nested spans.
func TestSelfTime(t *testing.T) {
	// 0: [0,100) contains 1: [10,60), which contains 2: [20,30);
	// 3: [70,80) sits directly in 0.
	spans := []obs.Span{{Start: 0, Dur: 100}, {Start: 10, Dur: 50}, {Start: 20, Dur: 10}, {Start: 70, Dur: 10}}
	for j, want := range []int64{100 - 50 - 10, 50 - 10, 10, 10} {
		if got := selfTime(spans, j); got != want {
			t.Errorf("selfTime(%d) = %d, want %d", j, got, want)
		}
	}
}

// TestTxnPartner checks that on a routed population every write op
// carries a partner key other than its own, in the next shard round, so
// that the txn rung commits across shards whenever there are two.
func TestTxnPartner(t *testing.T) {
	for _, w := range workloads {
		shards := max(w.shards, 1)
		p := newPopulation(2000, 3, true)
		p.route(shard.NewHashRouter(shards))
		g := newGen(w, p, 3, 0, rungTxn)
		writes := 0
		for i := 0; i < 2000; i++ {
			o := g.next()
			if o.kind != opUpdate && o.kind != opInsert {
				continue
			}
			writes++
			if o.kind == opUpdate && o.b == o.a {
				t.Fatalf("%s: update of key %d partners with itself", w.name, o.a)
			}
			if got := int(p.shardOf[o.b]); got != (o.sh+1)%shards {
				t.Fatalf("%s: write in shard %d partners with key %d in shard %d", w.name, o.sh, o.b, got)
			}
			if o.valB>>32 != uint64(o.b) {
				t.Fatalf("%s: partner value %#x not tagged with key %d", w.name, o.valB, o.b)
			}
		}
		if writes == 0 {
			t.Fatalf("%s: no writes generated", w.name)
		}
	}
}
