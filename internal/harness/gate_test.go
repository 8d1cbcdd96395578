package harness

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runGate runs checkGate for a one-gate table named "t" over rep, with
// the committed baseline holding baseline ("" means no baseline file),
// on a GitHub runner when ghActions is "true". It reports the output and
// whether the gate failed.
func runGate(t *testing.T, bounds []bound, rep any, baseline, ghActions string) (string, bool) {
	t.Helper()
	oldReport, oldBase := reportDir, baselineDir
	t.Cleanup(func() { reportDir, baselineDir = oldReport, oldBase })
	reportDir, baselineDir = t.TempDir(), t.TempDir()
	if baseline != "" {
		if err := os.WriteFile(filepath.Join(baselineDir, "BENCH_t.json"), []byte(baseline), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Setenv("GITHUB_ACTIONS", ghActions)
	var b strings.Builder
	before := GateFailures()
	checkGate(&b, "t", rep, bounds)
	if _, err := os.Stat(filepath.Join(reportDir, "BENCH_t.json")); err != nil {
		t.Errorf("report not written: %v", err)
	}
	return b.String(), GateFailures() > before
}

// TestGateBoundKinds: every bound kind passes exactly at its limit and
// fails one ulp past it.
func TestGateBoundKinds(t *testing.T) {
	const base = `{"m": 100}`
	for _, tc := range []struct {
		name  string
		b     bound
		limit float64
		up    bool // the failing side is above the limit
	}{
		{"atLeast", bound{Path: "m", Kind: atLeast, Ref: 1.15}, 1.15, false},
		{"atMost", bound{Path: "m", Kind: atMost, Ref: 0.02}, 0.02, true},
		{"baseFloor", bound{Path: "m", Kind: baseFloor, Ref: 0.25}, 75, false},
		{"baseCeil", bound{Path: "m", Kind: baseCeil, Ref: 0.5}, 150, true},
		{"baseCeil+slack", bound{Path: "m", Kind: baseCeil, Ref: 0.25, Slack: 64}, 189, true},
		{"slackOnly", bound{Path: "m", Kind: baseCeil, Slack: 0.5}, 100.5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			past := math.Nextafter(tc.limit, math.Inf(-1))
			if tc.up {
				past = math.Nextafter(tc.limit, math.Inf(1))
			}
			if out, failed := runGate(t, []bound{tc.b}, map[string]float64{"m": tc.limit}, base, ""); failed {
				t.Errorf("at limit %v: failed\n%s", tc.limit, out)
			}
			if out, failed := runGate(t, []bound{tc.b}, map[string]float64{"m": past}, base, ""); !failed {
				t.Errorf("past limit (%v): passed\n%s", past, out)
			}
		})
	}
}

// TestGateHostedColumn: the hosted column applies exactly when
// GITHUB_ACTIONS=true.
func TestGateHostedColumn(t *testing.T) {
	b := []bound{{Path: "m", Kind: atLeast, Ref: 2, Hosted: 1}}
	rep := map[string]float64{"m": 1.5}
	for _, tc := range []struct {
		env    string
		hosted bool
	}{{"", false}, {"false", false}, {"1", false}, {"TRUE", false}, {"true", true}} {
		out, failed := runGate(t, b, rep, "", tc.env)
		if failed == tc.hosted {
			t.Errorf("GITHUB_ACTIONS=%q: failed=%v, want %v\n%s", tc.env, failed, !tc.hosted, out)
		}
		col := "reference column"
		if tc.hosted {
			col = "hosted column"
		}
		if !strings.Contains(out, col) {
			t.Errorf("GITHUB_ACTIONS=%q: output does not name the %s:\n%s", tc.env, col, out)
		}
	}
}

// TestGateBaselineEdges covers the baseline and report cases that do not
// depend on a metric's value.
func TestGateBaselineEdges(t *testing.T) {
	floor := bound{Path: "m", Kind: baseFloor, Ref: 0.25}
	rep := map[string]float64{"m": 1}
	for _, tc := range []struct {
		name     string
		bounds   []bound
		baseline string
		failed   bool
		want     string
	}{
		{"no baseline file", []bound{floor}, "", false, "no baseline at"},
		{"metric absent from baseline", []bound{floor}, `{"other": 5}`, false, "SKIP m"},
		{"zero baseline metric", []bound{floor}, `{"m": 0}`, false, "SKIP m"},
		{"zero baseline with slack still checks", []bound{{Path: "m", Kind: baseCeil, Slack: 0.5}}, `{"m": 0}`, true, "FAIL m"},
		{"path missing from report", []bound{{Path: "typo", Kind: atMost, Ref: 10}}, "", true, "typo: not in report"},
		{"unparseable baseline", []bound{{Path: "m", Kind: atMost, Ref: 10}}, `{"m": `, true, "unreadable baseline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, failed := runGate(t, tc.bounds, rep, tc.baseline, "")
			if failed != tc.failed {
				t.Errorf("failed=%v, want %v\n%s", failed, tc.failed, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}
