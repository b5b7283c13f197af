package experiments_test

import (
	"strings"
	"testing"

	"natpunch/internal/experiments"
)

// TestICEExpectations pins the scenario outcomes the issue's
// acceptance criteria name: same-site pairs connect via private
// candidates, and symmetric<->symmetric pairs behind a hairpinning
// CGN connect without relay.
func TestICEExpectations(t *testing.T) {
	if _, ok := experiments.Lookup("E-ICE"); !ok {
		t.Fatal("E-ICE not registered")
	}
	r := seedOneResult(t, "E-ICE")
	if r.Metrics["total_attempts"] == 0 {
		t.Fatal("no attempts recorded")
	}
	// Fig 4 fleet: every same-site completion rides the private
	// candidate (hairpin-less NATs would otherwise force relays).
	if got := r.Metrics["shared-32_same-site_direct_pct"]; got != 100 {
		t.Errorf("shared-32 same-site direct%% = %v, want 100", got)
	}
	// The isolating CGN scenario: all pairs are same-cgn
	// symmetric<->symmetric under a hairpinning CGN — all direct.
	if got := r.Metrics["cgn-symopen-16_same-cgn_direct_pct"]; got != 100 {
		t.Errorf("cgn-symopen-16 same-cgn direct%% = %v, want 100", got)
	}
	if got := r.Metrics["cgn-symopen-16_symsym_relay"]; got != 0 {
		t.Errorf("cgn-symopen-16 symmetric<->symmetric relays = %v, want 0", got)
	}
	if got := r.Metrics["cgn-symopen-16_symsym_hairpin"]; got == 0 {
		t.Error("cgn-symopen-16 recorded no hairpin nominations")
	}
	// Ablations invert their scenario: no private candidates -> the
	// same-site class relays; no hairpin candidates -> same-cgn does.
	for _, key := range []string{"shared-nopriv-32_same-site_direct_pct", "cgn-nohair-32_same-cgn_direct_pct"} {
		if got := r.Metrics[key]; got != 0 {
			t.Errorf("%s = %v, want 0 (the ablated candidate type was the only direct path)", key, got)
		}
	}
	// Format spot-checks: the private column carries the shared-32
	// same-site row; the hairpin column carries cgn-symopen-16.
	var sawShared, sawSymOpen bool
	for _, line := range strings.Split(r.Table, "\n") {
		if strings.HasPrefix(line, "shared-32") && strings.Contains(line, "same-site") {
			sawShared = true
		}
		if strings.HasPrefix(line, "cgn-symopen-16") && strings.Contains(line, "same-cgn") {
			sawSymOpen = true
		}
	}
	if !sawShared || !sawSymOpen {
		t.Errorf("expected scenario rows missing from table:\n%s", r.Table)
	}
}
