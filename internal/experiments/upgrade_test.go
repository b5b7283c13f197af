package experiments_test

import (
	"math"
	"strings"
	"testing"

	"natpunch/internal/experiments"
)

// TestUpgradeExpectations pins the experiment's headline claims:
// relay-first connects faster than punch-at-dial (a usable relay
// session after ~one relay round-trip vs a punched path), the
// eventual direct share matches the baseline's at-establishment
// direct share (upgrading moves timing, not reachability), and the
// rebind scenario actually exercises failback.
func TestUpgradeExpectations(t *testing.T) {
	if _, ok := experiments.Lookup("E-UPGRADE"); !ok {
		t.Fatal("E-UPGRADE not registered")
	}
	r := seedOneResult(t, "E-UPGRADE")

	for _, sc := range []string{"steady-48", "rebind-24"} {
		rf, base := r.Metrics[sc+"_rf_connect_p50_ms"], r.Metrics[sc+"_base_connect_p50_ms"]
		if rf == 0 || base == 0 {
			t.Fatalf("%s: missing connect-latency distributions (rf=%v base=%v)", sc, rf, base)
		}
		if rf >= base {
			t.Errorf("%s: relay-first p50 connect %vms not faster than punch-at-dial %vms", sc, rf, base)
		}
		if r.Metrics[sc+"_rf_upgrade_p50_ms"] <= 0 {
			t.Errorf("%s: no relay->direct upgrade latency recorded", sc)
		}
	}

	// Class equality: the same NAT-pair classes reach a direct path in
	// both modes, so the population-level shares track each other
	// (counts diverge because the two runs draw different dials).
	got := r.Metrics["steady-48_rf_eventual_direct_pct"]
	want := r.Metrics["steady-48_base_direct_pct"]
	if math.Abs(got-want) > 10 {
		t.Errorf("steady-48 eventual direct %v%% drifted from baseline direct %v%%", got, want)
	}
	if r.Metrics["rebind-24_rf_failbacks"] == 0 {
		t.Error("rebind scenario produced no direct->relay failbacks")
	}

	// Table rows: relay-first establishes every session on the relay
	// (direct@est column is 0), and symmetric<->symmetric pairs never
	// reach a direct path in either mode.
	for _, line := range strings.Split(r.Table, "\n") {
		f := strings.Fields(line)
		if strings.Contains(line, "relay-first") && len(f) >= 5 && f[4] != "0" {
			t.Errorf("relay-first row punched at dial time: %q", line)
		}
		if strings.Contains(line, "symmetric<->symmetric") && !strings.Contains(line, " 0%") {
			t.Errorf("symmetric<->symmetric row reached a direct path: %q", line)
		}
	}
}
