package experiments_test

import (
	"strings"
	"testing"

	"natpunch/internal/experiments"
)

// TestFleetTable1Expectations sanity-checks the fleet outcomes
// against the paper: cone pairs punch directly (near-universally),
// symmetric-involved pairs fall back to relay, nothing hard-fails
// while the relay fallback is on.
func TestFleetTable1Expectations(t *testing.T) {
	if _, ok := experiments.Lookup("E-FLEET"); !ok {
		t.Fatal("E-FLEET not registered")
	}
	r := seedOneResult(t, "E-FLEET")
	if r.Metrics["total_attempts"] == 0 {
		t.Fatal("fleet made no punch attempts")
	}
	for _, sc := range []string{"steady-80", "churn-120", "flash-200"} {
		if r.Metrics[sc+"_attempts"] == 0 {
			t.Errorf("%s: no attempts recorded", sc)
		}
	}
	// Every scenario's table rows: cone<->cone rows must show 100%
	// direct; rows containing "symmetric<->symmetric" must show 0%.
	for _, line := range strings.Split(r.Table, "\n") {
		if strings.Contains(line, "cone<->cone") && !strings.Contains(line, "100%") {
			t.Errorf("cone<->cone row not near-universal: %q", line)
		}
		if strings.Contains(line, "symmetric<->symmetric") && !strings.Contains(line, " 0%") {
			t.Errorf("symmetric<->symmetric row should relay, not punch: %q", line)
		}
	}
}
