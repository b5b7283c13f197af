package experiments_test

import (
	"fmt"
	"strings"
	"testing"

	"natpunch/internal/experiments"
)

// TestTable1Reproduction is the headline check: NAT Check over the
// generated vendor populations reproduces every per-vendor cell of
// Table 1.
func TestTable1Reproduction(t *testing.T) {
	r := experiments.Table1Survey(1)
	if r.Metrics["row_mismatches"] != 0 {
		t.Fatalf("Table 1 rows mismatched:\n%s", r.Table)
	}
	if r.Metrics["devices"] != 380 {
		t.Errorf("devices = %v, want 380", r.Metrics["devices"])
	}
	// The paper's headline numbers.
	if r.Metrics["udp_punch_pct"] != 82 {
		t.Errorf("UDP punch = %v%%, want 82%%", r.Metrics["udp_punch_pct"])
	}
	if r.Metrics["tcp_punch_pct"] != 64 {
		t.Errorf("TCP punch = %v%%, want 64%%", r.Metrics["tcp_punch_pct"])
	}
	for _, vendor := range []string{"Linksys", "Netgear", "D-Link", "Draytek", "Belkin", "Cisco", "SMC", "ZyXEL", "3Com", "Windows", "Linux", "FreeBSD"} {
		if !strings.Contains(r.Table, vendor) {
			t.Errorf("table missing vendor %s", vendor)
		}
	}
}

func TestFigureExperiments(t *testing.T) {
	checks := map[string]func(t *testing.T, r experiments.Result){
		"E2": func(t *testing.T, r experiments.Result) {
			// Only private->public directions work: 2 of 6 pairs.
			if r.Metrics["reachable_pairs"] != 2 {
				t.Errorf("reachable pairs = %v, want 2", r.Metrics["reachable_pairs"])
			}
		},
		"E3": func(t *testing.T, r experiments.Result) {
			if r.Metrics["relay_rtt_ms"] <= r.Metrics["direct_rtt_ms"] {
				t.Errorf("relay RTT %vms should exceed direct %vms",
					r.Metrics["relay_rtt_ms"], r.Metrics["direct_rtt_ms"])
			}
			// 50 pings and 50 echoes of 4 bytes each: anything less means
			// the "relayed" session silently went direct.
			if r.Metrics["relay_bytes"] < 50*2*4 {
				t.Errorf("relay forwarded %vB, want at least the %dB application payload", r.Metrics["relay_bytes"], 50*2*4)
			}
		},
		"E4": func(t *testing.T, r experiments.Result) {
			if r.Metrics["reversal_ok"] != 1 {
				t.Error("reversal failed")
			}
		},
		"E5": func(t *testing.T, r experiments.Result) {
			if r.Metrics["private_locked"] != 1 {
				t.Errorf("common-NAT punch did not lock private endpoints:\n%s", r.Table)
			}
		},
		"E6": func(t *testing.T, r experiments.Result) {
			// All 7 cone-involving-only combos + symmetric x full-cone
			// succeed; see the experiment notes. At minimum the 9
			// cone x cone cells must all pass.
			if r.Metrics["successes"] < 9 {
				t.Errorf("only %v successes:\n%s", r.Metrics["successes"], r.Table)
			}
		},
		"E7": func(t *testing.T, r experiments.Result) {
			if r.Metrics["needs_hairpin"] != 1 {
				t.Errorf("multi-level hairpin dependency not observed:\n%s", r.Table)
			}
		},
		"E8": func(t *testing.T, r experiments.Result) {
			if r.Metrics["ports_mid_punch"] != 1 {
				t.Errorf("punching used %v local ports, want 1 (Figure 7)", r.Metrics["ports_mid_punch"])
			}
			if r.Metrics["sockets_mid_punch"] < 3 {
				t.Errorf("expected >=3 sockets mid-punch, got %v", r.Metrics["sockets_mid_punch"])
			}
		},
		"E9": func(t *testing.T, r experiments.Result) {
			if r.Metrics["consistent"] != 1 || r.Metrics["hairpin"] != 1 {
				t.Errorf("NAT Check walkthrough wrong: %+v", r.Metrics)
			}
			if !strings.Contains(r.Table, "packet trace") {
				t.Error("trace missing")
			}
		},
		"E16": func(t *testing.T, r experiments.Result) {
			if r.Metrics["plain_ok"] != 0 || r.Metrics["obfuscated_ok"] != 1 {
				t.Errorf("mangling experiment: %+v", r.Metrics)
			}
		},
		"E17": func(t *testing.T, r experiments.Result) {
			if r.Metrics["punched"]+r.Metrics["relayed"] != r.Metrics["pairs"] {
				t.Errorf("connector did not reach full connectivity: %+v", r.Metrics)
			}
		},
	}
	for _, e := range experiments.All() {
		if e.ID == "E1" {
			continue // covered above (slow)
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := seedOneResult(t, e.ID)
			if r.Table == "" {
				t.Fatal("empty table")
			}
			if r.ID != e.ID {
				t.Errorf("result ID %s != %s", r.ID, e.ID)
			}
			if check, ok := checks[e.ID]; ok {
				check(t, r)
			}
		})
	}
}

// TestPortPredictionDiagonal reads E14's grid at two seeds: a predicted
// punch is established exactly when the competing sessions are fewer
// than the spray window, since each one moves A's next mapping a port
// past the prediction (§5.1's "moving target").
func TestPortPredictionDiagonal(t *testing.T) {
	e, _ := experiments.Lookup("E14")
	for _, r := range []experiments.Result{seedOneResult(t, "E14"), e.Run(7)} {
		rows := strings.Split(strings.TrimSpace(r.Table), "\n")[2:]
		if len(rows) != 8 {
			t.Fatalf("E14 has %d rows, want 8:\n%s", len(rows), r.Table)
		}
		for _, row := range rows {
			var competing, window int
			var outcome string
			if _, err := fmt.Sscan(row, &competing, &window, &outcome); err != nil {
				t.Fatalf("row %q: %v", row, err)
			}
			if want := competing < window; (outcome == "established") != want {
				t.Errorf("%d competing sessions, window %d: %s", competing, window, outcome)
			}
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := experiments.Lookup("E1"); !ok {
		t.Error("E1 missing")
	}
	if _, ok := experiments.Lookup("E99"); ok {
		t.Error("E99 should not exist")
	}
}
