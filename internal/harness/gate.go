package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
)

// gateFailures counts acceptance-gate failures (bound violations,
// checked-experiment violations) so command frontends can turn them into
// a non-zero exit without parsing report text.
var gateFailures atomic.Int64

// GateFailures returns the number of gate failures recorded by
// experiments run in this process.
func GateFailures() int { return int(gateFailures.Load()) }

// reportDir is where gates write BENCH_<name>.json; baselineDir holds
// the committed BENCH_<name>.json each gate compares against. Both are
// relative to the working directory, so `bwbench <gate>` run from the
// repository root writes its report there and reads bench/.
var (
	reportDir   = "."
	baselineDir = "bench"
)

// boundKind selects how a bound's limit is computed.
type boundKind int

const (
	// atLeast and atMost are absolute: the limit is the column value.
	atLeast boundKind = iota
	atMost
	// baseFloor and baseCeil are relative to the committed baseline: the
	// column value is a tolerance, and the limit is base×(1−tol) or
	// base×(1+tol)+slack.
	baseFloor
	baseCeil
)

// bound is one gated metric. Path is the metric's dotted path in the
// report (the same flattening `bwbench trend` uses). Ref is the limit
// (absolute kinds) or tolerance (baseline kinds) on the reference host;
// Hosted is the same on GitHub-hosted runners, whose hardware varies
// from run to run. Slack is an absolute allowance added to a baseCeil
// limit, for metrics that sit near zero where a percentage permits
// nothing.
type bound struct {
	Path        string
	Kind        boundKind
	Ref, Hosted float64
	Slack       float64
}

// gateBounds is every gate's bound table, keyed by gate name; gate
// "x" writes BENCH_x.json and compares against bench/BENCH_x.json.
var gateBounds = map[string][]bound{
	"hotpath": {
		{Path: "speedup", Kind: atLeast, Ref: 1.15, Hosted: 1.15},
		{Path: "batched.mops", Kind: baseFloor, Ref: 0.25, Hosted: 0.5},
		{Path: "batched.p99_us", Kind: baseCeil, Ref: 0.5, Hosted: 1.0},
		{Path: "batched.allocs_per_op", Kind: baseCeil, Slack: 0.5},
		{Path: "batched.bytes_per_op", Kind: baseCeil, Ref: 0.25, Hosted: 0.5, Slack: 64},
	},
	"flatnode": {
		{Path: "lookup_speedup", Kind: atLeast, Ref: 1.15, Hosted: 1.15},
		{Path: "flat.lookup_allocs_per_op", Kind: atMost, Ref: 0.01, Hosted: 0.01},
		{Path: "flat.lookup_mops", Kind: baseFloor, Ref: 0.25, Hosted: 0.5},
		{Path: "inner.inner_levels", Kind: atLeast, Ref: 3, Hosted: 3},
		{Path: "inner.lookup_speedup", Kind: atLeast, Ref: 1.10, Hosted: 1.05},
		{Path: "inner.scan_ratio", Kind: atLeast, Ref: 0.85, Hosted: 0.70},
		{Path: "inner.gc_ptrs_reduction", Kind: atLeast, Ref: 5, Hosted: 5},
		{Path: "inner.on.lookup_allocs_per_op", Kind: atMost, Ref: 0.01, Hosted: 0.01},
		{Path: "inner.on.lookup_mops", Kind: baseFloor, Ref: 0.35, Hosted: 0.6},
	},
	"durability": {
		{Path: "ratio", Kind: atLeast, Ref: 0.5, Hosted: 0.35},
		{Path: "replay_mops", Kind: atLeast, Ref: 1.0, Hosted: 0.5},
	},
	"obs": {
		{Path: "disabled_overhead", Kind: atMost, Ref: 0.02, Hosted: 0.10},
		{Path: "enabled_overhead", Kind: atMost, Ref: 0.25, Hosted: 0.5},
	},
	"server": {
		{Path: "pipelined.mops", Kind: baseFloor, Ref: 0.30, Hosted: 0.5},
		{Path: "point.p99_us", Kind: baseCeil, Ref: 0.60, Hosted: 1.0},
	},
	"txn": {
		{Path: "transfer_low.mcommits_per_s", Kind: baseFloor, Ref: 0.35, Hosted: 0.60},
	},
}

// hostedRunner reports whether the process runs on a GitHub Actions
// runner, which sets GITHUB_ACTIONS=true in every job by itself.
func hostedRunner() bool { return os.Getenv("GITHUB_ACTIONS") == "true" }

// checkGate is the one gate engine. It writes rep as BENCH_<name>.json
// under reportDir, flattens it and the committed baseline
// (baselineDir/BENCH_<name>.json) into dotted metrics, checks every
// bound against the column for this host, and prints one line per
// bound. Any failing bound, a bound whose path the report lacks, or a
// baseline that exists but does not parse counts one gate failure.
// A missing baseline, or one without a usable value for a relative
// bound, skips that bound with a note.
func checkGate(w io.Writer, name string, rep any, bounds []bound) {
	failed := false
	fail := func(format string, args ...any) {
		failed = true
		fmt.Fprintf(w, "%s: FAIL %s\n", name, fmt.Sprintf(format, args...))
	}
	file := "BENCH_" + name + ".json"

	var cur map[string]float64
	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		cur, err = flattenMetrics(data)
	}
	if err != nil {
		fail("encode report: %v", err)
		gateFailures.Add(1)
		return
	}
	out := filepath.Join(reportDir, file)
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(w, "%s: cannot write %s: %v\n", name, out, err)
	} else {
		fmt.Fprintf(w, "%s: report written to %s\n", name, out)
	}

	basePath := filepath.Join(baselineDir, file)
	var base map[string]float64
	switch blob, err := os.ReadFile(basePath); {
	case errors.Is(err, fs.ErrNotExist):
		fmt.Fprintf(w, "%s: no baseline at %s; baseline-relative bounds skipped\n", name, basePath)
	case err != nil:
		fail("baseline %s: %v", basePath, err)
	default:
		if base, err = flattenMetrics(blob); err != nil {
			fail("unreadable baseline %s: %v", basePath, err)
		}
	}

	hosted := hostedRunner()
	column := "reference"
	if hosted {
		column = "hosted"
	}
	fmt.Fprintf(w, "%s: checking %d bounds, %s column\n", name, len(bounds), column)

	for _, b := range bounds {
		v := b.Ref
		if hosted {
			v = b.Hosted
		}
		got, ok := cur[b.Path]
		if !ok {
			fail("%s: not in report", b.Path)
			continue
		}
		var limit float64
		var how string
		switch b.Kind {
		case atLeast, atMost:
			limit = v
		case baseFloor, baseCeil:
			bv, ok := base[b.Path]
			// A zero baseline makes a purely relative limit zero, which
			// passes or fails everything; only an absolute slack keeps
			// it meaningful.
			if !ok || (bv == 0 && b.Slack == 0) {
				fmt.Fprintf(w, "%s: SKIP %s %.4g: no baseline value\n", name, b.Path, got)
				continue
			}
			if b.Kind == baseFloor {
				limit = bv * (1 - v)
				how = fmt.Sprintf(" (baseline %.4g, tol %.2f)", bv, v)
			} else {
				limit = bv*(1+v) + b.Slack
				how = fmt.Sprintf(" (baseline %.4g, tol %.2f, slack %g)", bv, v, b.Slack)
			}
		}
		pass, op := got >= limit, ">="
		if b.Kind == atMost || b.Kind == baseCeil {
			pass, op = got <= limit, "<="
		}
		if pass {
			fmt.Fprintf(w, "%s: PASS %s %.4g %s %.4g%s\n", name, b.Path, got, op, limit, how)
		} else {
			fail("%s %.4g, want %s %.4g%s", b.Path, got, op, limit, how)
		}
	}
	if failed {
		gateFailures.Add(1)
	}
}
