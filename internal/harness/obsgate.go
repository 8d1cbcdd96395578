package harness

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/ycsb"
)

// ObsOverheadFile is the obs-overhead experiment's JSON report.
type ObsOverheadFile struct {
	Config struct {
		Bench     string `json:"bench"`
		BenchTime string `json:"benchtime"`
		Rounds    int    `json:"rounds"`
		Keys      int    `json:"keys"`
		Ops       int    `json:"ops"`
		Seed      uint64 `json:"seed"`
	} `json:"config"`
	// Cross-build comparison: the same benchmark binary built normally
	// (probes present, deep tracing disabled at runtime) and with -tags
	// notrace (probes constant-folded away). DisabledOverhead is the
	// best-of-rounds ratio minus one: what the nil/flag checks cost.
	TraceNSOp        float64 `json:"trace_ns_op"`
	NotraceNSOp      float64 `json:"notrace_ns_op"`
	DisabledOverhead float64 `json:"disabled_overhead"`
	// In-process comparison: YCSB-C read throughput with deep tracing
	// off versus sampling 1-in-64 with the flight recorder on.
	DeepOffMops     float64 `json:"deep_off_mops"`
	DeepOnMops      float64 `json:"deep_on_mops"`
	EnabledOverhead float64 `json:"enabled_overhead"`
}

// obsBenchRE extracts ns/op from `go test -bench` output.
var obsBenchRE = regexp.MustCompile(`BenchmarkYCSBCHotPath\S*\s+\d+\s+([0-9.]+) ns/op`)

// obsBenchtime and obsRounds size the cross-build comparison: each build
// runs obsRounds times at -test.benchtime=obsBenchtime.
var (
	obsBenchtime = "300000x"
	obsRounds    = 5
)

// ObsOverhead is the observability-overhead gate. It proves the deep
// tracing probes honor their two-regime contract, checked against the
// "obs" bounds (gate.go):
//
//   - Disabled regime: BenchmarkYCSBCHotPath is compiled both normally
//     and with -tags notrace (which constant-folds every probe away), the
//     two binaries run alternately obsRounds times, and the per-build
//     minima are compared. The minimum is the noise-robust statistic
//     here: shared-machine interference only ever adds time, so the best
//     round is the closest view of each build's true cost. A probe that
//     leaks real work into the disabled path shows up as
//     disabled_overhead.
//   - Enabled regime (loosely gated): in-process YCSB-C read throughput
//     with deep tracing off versus sampling 1-in-64 with the flight
//     recorder on, best of three alternated rounds, as enabled_overhead.
//
// The cross-build half needs the go toolchain and a module checkout; when
// either is missing it is skipped with a note rather than failed, so the
// in-process half still runs everywhere.
func ObsOverhead(w io.Writer, sc Scale) {
	var rep ObsOverheadFile
	rep.Config.Bench = "BenchmarkYCSBCHotPath"
	rep.Config.BenchTime = obsBenchtime
	rep.Config.Rounds = obsRounds
	rep.Config.Keys = sc.Keys
	rep.Config.Ops = sc.Ops
	rep.Config.Seed = sc.Seed

	// Cross-build half.
	if root, err := moduleRoot(); err != nil {
		fmt.Fprintf(w, "obs: skipping cross-build half: %v\n", err)
	} else if traceNS, notraceNS, err := crossBuildNSOp(root, obsBenchtime, obsRounds); err != nil {
		fmt.Fprintf(w, "obs: skipping cross-build half: %v\n", err)
	} else {
		rep.TraceNSOp = traceNS
		rep.NotraceNSOp = notraceNS
		rep.DisabledOverhead = traceNS/notraceNS - 1
	}

	// In-process half: deep tracing off vs sampling with flight recorder,
	// alternated like the cross-build half, best round of each.
	measure := func(opts core.Options) float64 {
		idx := index.NewBwTreeWith("obs", opts)
		defer idx.Close()
		ks := ycsb.NewKeySet(ycsb.RandInt, sc.Keys)
		RunPhase(idx, ks, ycsb.InsertOnly, sc.Keys, sc.Threads, phaseSeed(sc.Seed, 0))
		dur := RunPhase(idx, ks, ycsb.ReadOnly, sc.Ops, sc.Threads, phaseSeed(sc.Seed, 1))
		return mops(sc.Ops, dur)
	}
	off := core.DefaultOptions()
	on := core.DefaultOptions()
	on.PhaseSampleEvery = 64
	on.PhaseTraceBuffer = 4096
	on.FlightRecorderSize = 512
	for i := 0; i < 3; i++ {
		if v := measure(off); v > rep.DeepOffMops {
			rep.DeepOffMops = v
		}
		if v := measure(on); v > rep.DeepOnMops {
			rep.DeepOnMops = v
		}
	}
	if rep.DeepOffMops > 0 {
		rep.EnabledOverhead = rep.DeepOffMops/rep.DeepOnMops - 1
	}

	tbl := NewTable("Obs overhead: deep-tracing probes on the YCSB-C hot path",
		"with probes", "without", "cost")
	if rep.NotraceNSOp > 0 {
		tbl.AddRow("disabled regime (ns/op, best of rounds)",
			fmt.Sprintf("%.1f", rep.TraceNSOp), fmt.Sprintf("%.1f", rep.NotraceNSOp),
			fmt.Sprintf("%+.2f%%", rep.DisabledOverhead*100))
	}
	tbl.AddRow("enabled 1-in-64 + flight (Mops/s, best of rounds)",
		f3(rep.DeepOnMops), f3(rep.DeepOffMops),
		fmt.Sprintf("%+.1f%%", rep.EnabledOverhead*100))
	tbl.Note("Disabled regime compares the normal build (probes compiled in, tracing off) against -tags notrace.")
	tbl.WriteTo(w)

	checkGate(w, "obs", &rep, gateBounds["obs"])
}

// crossBuildNSOp compiles the core test binary with and without -tags
// notrace and runs them alternately, returning the minimum ns/op of
// each. Alternation cancels slow machine-wide drift (thermal, noisy
// neighbors) that back-to-back batches would attribute to one build.
func crossBuildNSOp(root, benchtime string, rounds int) (traceNS, notraceNS float64, err error) {
	tmp, err := os.MkdirTemp("", "obsgate")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(tmp)

	traceBin := filepath.Join(tmp, "core_trace.test")
	notraceBin := filepath.Join(tmp, "core_notrace.test")
	for _, b := range []struct {
		out  string
		args []string
	}{
		{traceBin, []string{"test", "-c", "-o", traceBin, "./internal/core"}},
		{notraceBin, []string{"test", "-c", "-tags", "notrace", "-o", notraceBin, "./internal/core"}},
	} {
		cmd := exec.Command("go", b.args...)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return 0, 0, fmt.Errorf("go %v: %v\n%s", b.args, err, out)
		}
	}

	runOne := func(bin string) (float64, error) {
		cmd := exec.Command(bin, "-test.run=^$", "-test.bench=BenchmarkYCSBCHotPath", "-test.benchtime="+benchtime)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		if err != nil {
			return 0, fmt.Errorf("%s: %v\n%s", filepath.Base(bin), err, out)
		}
		m := obsBenchRE.FindSubmatch(out)
		if m == nil {
			return 0, fmt.Errorf("%s: no benchmark result in output:\n%s", filepath.Base(bin), out)
		}
		return strconv.ParseFloat(string(m[1]), 64)
	}

	var traceRuns, notraceRuns []float64
	for i := 0; i < rounds; i++ {
		t, err := runOne(traceBin)
		if err != nil {
			return 0, 0, err
		}
		n, err := runOne(notraceBin)
		if err != nil {
			return 0, 0, err
		}
		traceRuns = append(traceRuns, t)
		notraceRuns = append(notraceRuns, n)
	}
	return minOf(traceRuns), minOf(notraceRuns), nil
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// moduleRoot locates the directory holding go.mod, walking up from the
// working directory.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
