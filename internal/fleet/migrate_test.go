package fleet

import (
	"testing"
	"time"

	"natpunch/internal/punch"
)

// migrationCfg is a churn-heavy relay-first fleet: fast engine clocks
// so upgrade/failback/re-punch cycles fit the run, and periodic NAT
// rebinds so live direct paths keep dying mid-session.
func migrationCfg() Config {
	return Config{
		Peers:            24,
		Duration:         10 * time.Minute,
		MeanArrival:      time.Second,
		MeanLifetime:     time.Hour, // stay online: the churn under test is path churn
		MeanConnectEvery: 20 * time.Second,
		AppDataEvery:     5 * time.Second,
		MeanRebindEvery:  3 * time.Minute,
		Punch: punch.Config{
			RelayFirst:        true,
			KeepAliveInterval: 5 * time.Second,
			DeadAfter:         15 * time.Second,
			PunchTimeout:      5 * time.Second,
			RepunchEvery:      20 * time.Second,
		},
	}
}

func TestFleetRelayFirstMigrationUnderChurn(t *testing.T) {
	// Relay-first fleet under NAT-rebind churn: sessions must
	// establish on the relay, upgrade to direct paths in the
	// background, fail back when rebinds kill their mappings, and
	// re-punch their way back — with the concurrency accounting
	// staying consistent through all the path flapping.
	f := build(3, migrationCfg())
	f.in.Net.Sched.RunUntil(f.cfg.Duration)

	want := 0
	for _, p := range f.peers {
		for _, ls := range p.live {
			if ls.initiated {
				want++
			}
		}
	}
	if f.sessionsOpen != want {
		t.Errorf("sessionsOpen=%d but recount says %d after path churn", f.sessionsOpen, want)
	}
	f.finish()
	rep := f.rep

	if rep.NATRebinds == 0 {
		t.Fatal("MeanRebindEvery injected no NAT rebinds")
	}
	if rep.Upgrades == 0 {
		t.Error("no relay->direct upgrades in a relay-first run")
	}
	if rep.Failbacks == 0 {
		t.Error("NAT rebinds killed direct paths but no session failed back to the relay")
	}
	if len(rep.UpgradeTimes) == 0 {
		t.Fatal("no upgrade latencies recorded")
	}
	for i := 1; i < len(rep.UpgradeTimes); i++ {
		if rep.UpgradeTimes[i] < rep.UpgradeTimes[i-1] {
			t.Fatalf("UpgradeTimes not sorted at %d", i)
		}
	}
	if q := rep.UpgradeQuantile(0.5); q <= 0 {
		t.Errorf("p50 upgrade latency = %v, want > 0", q)
	}
	// Relay-first establishment is kind-agnostic relay: every
	// completed attempt lands in Relay first, so the direct-outcome
	// counters stay zero and upgrades carry the direct share.
	if rep.Direct() != 0 {
		t.Errorf("relay-first run recorded direct establishment outcomes: %+v", rep)
	}
	if cc := rep.Pair("cone<->cone"); cc == nil || cc.Upgraded == 0 {
		t.Errorf("cone<->cone pairs never upgraded: %+v", cc)
	}
	if ss := rep.Pair("symmetric<->symmetric"); ss != nil && ss.Upgraded != 0 {
		t.Errorf("symmetric<->symmetric upgraded %d times; these pairs cannot punch", ss.Upgraded)
	}
}

func TestFleetRelayFirstBeatsPunchAtDial(t *testing.T) {
	// Relay-first against punch-at-dial on the same fleet: it must not
	// change which pair classes can reach a direct path — it only
	// changes when (upgrade after establishment vs punch before) —
	// and its connect latency must be lower, since the relay path is
	// usable after about one rendezvous round-trip.
	rfCfg := migrationCfg()
	rfCfg.MeanRebindEvery = 0 // hold paths still for the class comparison
	rf := Run(7, rfCfg)

	dialCfg := rfCfg
	dialCfg.Punch.RelayFirst = false
	atDial := Run(7, dialCfg)

	rfCC, dialCC := rf.Pair("cone<->cone"), atDial.Pair("cone<->cone")
	if rfCC == nil || dialCC == nil {
		t.Fatalf("cone<->cone missing: relay-first=%v punch-at-dial=%v", rfCC, dialCC)
	}
	if dialCC.Direct() == 0 {
		t.Errorf("punch-at-dial cone<->cone punched 0 direct sessions: %+v", dialCC.Outcomes)
	}
	if rfCC.Upgraded == 0 {
		t.Errorf("relay-first cone<->cone upgraded 0 sessions: %+v", rfCC)
	}
	if rfSS := rf.Pair("symmetric<->symmetric"); rfSS != nil && rfSS.Upgraded != 0 {
		t.Errorf("relay-first symmetric<->symmetric upgraded %d, the class is relay-only", rfSS.Upgraded)
	}
	if dialSS := atDial.Pair("symmetric<->symmetric"); dialSS != nil && dialSS.Direct() != 0 {
		t.Errorf("punch-at-dial symmetric<->symmetric direct %d, want 0", dialSS.Direct())
	}

	// Connect latency: relay-first p50 (dial to usable session) must
	// undercut punch-at-dial's p50 time-to-establish, which needs at
	// least one check round-trip beyond the rendezvous.
	rfP50, dialP50 := rf.ConnectQuantile(0.5), atDial.Quantile(0.5)
	if rfP50 == 0 || dialP50 == 0 {
		t.Fatalf("missing latency distributions: relay-first p50=%v punch-at-dial p50=%v", rfP50, dialP50)
	}
	if rfP50 >= dialP50 {
		t.Errorf("relay-first p50 connect %v not faster than punch-at-dial p50 %v", rfP50, dialP50)
	}
}
