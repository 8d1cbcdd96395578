package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrendListsCommittedBaselines runs Trend over the repo's real bench/
// directory and asserts that every gate in gateBounds has its committed
// baseline listed as a series with at least one point, and that every
// bound's metric path resolves in that baseline, so a typo or a renamed
// report field cannot silently disable a bound.
func TestTrendListsCommittedBaselines(t *testing.T) {
	const dir = "../../bench"
	var b strings.Builder
	if err := Trend(&b, dir, true); err != nil {
		t.Fatalf("trend over %s: %v", dir, err)
	}
	var series []TrendSeries
	if err := json.Unmarshal([]byte(b.String()), &series); err != nil {
		t.Fatalf("trend JSON: %v", err)
	}
	got := make(map[string]int)
	for _, s := range series {
		got[s.File] = len(s.Points)
	}
	for name, bounds := range gateBounds {
		file := "BENCH_" + name + ".json"
		if n, ok := got[file]; !ok {
			t.Errorf("trend missing baseline %s (have %v)", file, got)
		} else if n == 0 {
			t.Errorf("trend series %s has no points", file)
		}
		blob, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Errorf("gate %s: %v", name, err)
			continue
		}
		metrics, err := flattenMetrics(blob)
		if err != nil {
			t.Errorf("gate %s: %v", name, err)
			continue
		}
		for _, bd := range bounds {
			if _, ok := metrics[bd.Path]; !ok {
				t.Errorf("gate %s: bound path %q not in committed %s", name, bd.Path, file)
			}
		}
	}
}
