package fleet_test

import (
	"fmt"
	"testing"
	"time"

	"natpunch/internal/fleet"
	"natpunch/internal/nat"
)

// halfSymmetricMix is a two-entry mix that makes pair-class outcomes
// easy to assert: half the population punches (cone), half cannot
// (symmetric behind port-restricted filtering).
func halfSymmetricMix() []fleet.Weighted {
	return []fleet.Weighted{
		{Label: "cone", Behavior: nat.Cone(), Weight: 1},
		{Label: "symmetric", Behavior: nat.Symmetric(), Weight: 1},
	}
}

// stable returns a config with no churn: everyone arrives early and
// stays online for the whole run.
func stable(peers int) fleet.Config {
	return fleet.Config{
		Peers:            peers,
		Duration:         5 * time.Minute,
		MeanArrival:      500 * time.Millisecond,
		MeanLifetime:     24 * time.Hour,
		MeanConnectEvery: 20 * time.Second,
	}
}

func TestFleetSameSeedBitForBit(t *testing.T) {
	cfg := stable(40)
	cfg.MeanLifetime = 90 * time.Second // include churn in the determinism surface
	cfg.MeanRejoin = 30 * time.Second
	cfg.Topology = fleet.Heterogeneous() // and the full site-shape mix
	a := fleet.Run(11, cfg)
	b := fleet.Run(11, cfg)
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Errorf("same seed produced different reports:\n--- a ---\n%+v\n--- b ---\n%+v", a, b)
	}
	c := fleet.Run(12, cfg)
	if fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", c) {
		t.Error("different seeds produced identical reports (rng unused?)")
	}
}

func TestFleetPairClassOutcomes(t *testing.T) {
	cfg := stable(40)
	cfg.Mix = halfSymmetricMix()
	rep := fleet.Run(3, cfg)

	if rep.Attempts == 0 {
		t.Fatal("no punch attempts were made")
	}
	if rep.Failed != 0 {
		t.Errorf("with relay fallback enabled no attempt may hard-fail; got %d", rep.Failed)
	}
	cc := rep.Pair("cone<->cone")
	if cc == nil || cc.Attempts == 0 {
		t.Fatal("no cone<->cone attempts")
	}
	// §5.1: endpoint-independent mappings punch; cone pairs must be
	// near-universal direct successes (all, in the clean simulator).
	if cc.Direct() != cc.Completed() {
		t.Errorf("cone<->cone: %d direct of %d completed; want all", cc.Direct(), cc.Completed())
	}
	// Symmetric pairs (port-restricted filtering on every Table-1-style
	// device) cannot punch and must fall back to relaying (§2.2).
	for _, key := range []string{"cone<->symmetric", "symmetric<->symmetric"} {
		ps := rep.Pair(key)
		if ps == nil || ps.Attempts == 0 {
			t.Fatalf("no %s attempts", key)
		}
		if ps.Direct() != 0 {
			t.Errorf("%s: %d direct punches; want 0", key, ps.Direct())
		}
		if ps.Relay != ps.Completed() {
			t.Errorf("%s: %d relay of %d completed; want all", key, ps.Relay, ps.Completed())
		}
	}
	// Direct establishment should be fast (two core RTTs, well under a
	// second); relay fallback takes the punch timeout first.
	if p90 := rep.Quantile(0.9); p90 <= 0 || p90 > time.Second {
		t.Errorf("p90 time-to-establish %v out of range", p90)
	}
	if rep.Server.NegotiateRequests == 0 || rep.Server.RelayedMessages == 0 {
		t.Errorf("server saw no load: %+v", rep.Server)
	}
	if rep.PeakSessions == 0 || rep.PeakOnline == 0 {
		t.Errorf("peaks not tracked: online=%d sessions=%d", rep.PeakOnline, rep.PeakSessions)
	}
}

func TestFleetNoRelayHardFails(t *testing.T) {
	cfg := stable(24)
	cfg.Mix = halfSymmetricMix()
	cfg.NoRelay = true
	rep := fleet.Run(4, cfg)
	if rep.Relay != 0 {
		t.Errorf("relay disabled but %d relayed sessions", rep.Relay)
	}
	if rep.Failed == 0 {
		t.Error("symmetric pairs should hard-fail without relay fallback")
	}
	if cc := rep.Pair("cone<->cone"); cc == nil || cc.Failed != 0 {
		t.Errorf("cone<->cone should still punch: %+v", cc)
	}
}

func TestFleetChurnLifecycle(t *testing.T) {
	rep := fleet.Run(5, fleet.Config{
		Peers:            60,
		Duration:         12 * time.Minute,
		MeanArrival:      time.Second,
		MeanLifetime:     100 * time.Second,
		MeanRejoin:       40 * time.Second,
		MeanConnectEvery: 15 * time.Second,
	})
	if rep.Arrivals != 60 {
		t.Errorf("arrivals = %d, want 60", rep.Arrivals)
	}
	if rep.Departures == 0 || rep.Rejoins == 0 {
		t.Errorf("no churn: departures=%d rejoins=%d", rep.Departures, rep.Rejoins)
	}
	// Departed peers stop answering; their sessions must be detected
	// dead (§3.6) and re-punched on demand when both ends return.
	if rep.DeadSessions == 0 {
		t.Error("no idle session deaths despite churn")
	}
	if rep.PeakOnline >= 60 {
		t.Errorf("peak online %d should stay below the population under churn", rep.PeakOnline)
	}
	if rep.VirtualTime != 12*time.Minute {
		t.Errorf("virtual time %v, want full duration", rep.VirtualTime)
	}
}

func TestFleetPublicPeers(t *testing.T) {
	cfg := stable(16)
	cfg.PublicFraction = 1.0
	rep := fleet.Run(6, cfg)
	pp := rep.Pair("public<->public")
	if pp == nil || pp.Attempts == 0 {
		t.Fatal("no public<->public attempts")
	}
	if pp.Direct() != pp.Completed() || rep.Relay != 0 {
		t.Errorf("un-NATed peers must connect directly: %+v", pp)
	}
	for _, ps := range rep.Pairs {
		if ps.Pair != "public<->public" {
			t.Errorf("unexpected pair class %q with PublicFraction=1", ps.Pair)
		}
	}
}

// coneMix is an all-cone single-entry mix.
func coneMix() []fleet.Weighted {
	return []fleet.Weighted{{Label: "cone", Behavior: nat.Cone(), Weight: 1}}
}

func TestFleetSharedSitesConnectPrivately(t *testing.T) {
	// Figure 4 at fleet scale: multi-peer sites behind hairpin-less
	// cone NATs. Same-site pairs must ride the private candidate —
	// the public path would need hairpin support that isn't there.
	cfg := stable(32)
	cfg.Mix = coneMix()
	cfg.Topology = []fleet.SiteShape{
		{Label: "household-4", Kind: fleet.SiteShared, Hosts: 4, Weight: 1},
	}
	rep := fleet.Run(21, cfg)
	ss := rep.Topo(fleet.TopoSameSite)
	if ss == nil || ss.Attempts == 0 {
		t.Fatal("no same-site attempts in an all-shared topology")
	}
	if ss.Private != ss.Completed() {
		t.Errorf("same-site: %d private of %d completed; want all private: %+v", ss.Private, ss.Completed(), ss)
	}
	cross := rep.Topo(fleet.TopoCross)
	if cross == nil || cross.Attempts == 0 {
		t.Fatal("no cross-site attempts")
	}
	if cross.Public != cross.Completed() {
		t.Errorf("cross-site cone pairs should punch publicly: %+v", cross)
	}
	if rep.Relay != 0 || rep.Failed != 0 {
		t.Errorf("all-cone fleet should never relay or fail: relay=%d failed=%d", rep.Relay, rep.Failed)
	}
}

func TestFleetCGNHairpinTopology(t *testing.T) {
	// Figure 6 at fleet scale. With a hairpin-capable CGN, same-cgn
	// pairs connect directly via the hairpin candidate; with a plain
	// CGN they must relay.
	base := stable(24)
	base.Mix = coneMix()

	hairpin := base
	hairpin.Topology = []fleet.SiteShape{
		{Label: "cgn-hairpin", Kind: fleet.SiteCGN, Hosts: 4, CGN: nat.WellBehaved(), Weight: 1},
	}
	rep := fleet.Run(22, hairpin)
	sc := rep.Topo(fleet.TopoSameCGN)
	if sc == nil || sc.Attempts == 0 {
		t.Fatal("no same-cgn attempts in an all-CGN topology")
	}
	if sc.Hairpin != sc.Completed() {
		t.Errorf("hairpin CGN: %d hairpin of %d completed; want all: %+v", sc.Hairpin, sc.Completed(), sc)
	}

	plain := base
	plain.Topology = []fleet.SiteShape{
		{Label: "cgn-plain", Kind: fleet.SiteCGN, Hosts: 4, CGN: nat.Cone(), Weight: 1},
	}
	rep = fleet.Run(23, plain)
	sc = rep.Topo(fleet.TopoSameCGN)
	if sc == nil || sc.Attempts == 0 {
		t.Fatal("no same-cgn attempts")
	}
	if sc.Relay != sc.Completed() {
		t.Errorf("plain CGN: %d relay of %d completed; want all: %+v", sc.Relay, sc.Completed(), sc)
	}
}

func TestFleetSymmetricOpenBehindHairpinCGN(t *testing.T) {
	// The E-ICE acceptance scenario: symmetric-mapping (open-filter)
	// homes under a hairpinning CGN connect without relay — the
	// triggered peer-reflexive checks converge through the loopback.
	cfg := stable(24)
	cfg.Mix = []fleet.Weighted{
		{Label: "symmetric-open", Behavior: nat.SymmetricOpen(), Weight: 1},
	}
	cfg.Topology = []fleet.SiteShape{
		{Label: "cgn-hairpin", Kind: fleet.SiteCGN, Hosts: 4, CGN: nat.WellBehaved(), Weight: 1},
	}
	rep := fleet.Run(24, cfg)
	ss := rep.Pair("symmetric<->symmetric")
	if ss == nil || ss.Attempts == 0 {
		t.Fatal("no symmetric<->symmetric attempts")
	}
	sc := rep.Topo(fleet.TopoSameCGN)
	if sc == nil || sc.Attempts == 0 {
		t.Fatal("no same-cgn attempts")
	}
	if sc.Relay != 0 || sc.Direct() != sc.Completed() {
		t.Errorf("same-cgn symmetric-open pairs should connect without relay: %+v", sc)
	}
	if sc.Hairpin == 0 {
		t.Errorf("expected hairpin-classified nominations, got %+v", sc)
	}
}

func TestFleetFlatConesGoDirect(t *testing.T) {
	// On flat all-cone topologies every pair can punch (§3.4), so
	// every completed attempt is direct: none relayed, none failed.
	// The paper's plain §3.2 punch has the same profile (the
	// per-pair differential against it lives in internal/ice's tests).
	cfg := stable(30)
	cfg.Mix = coneMix()
	rep := fleet.Run(25, cfg)
	if rep.Attempts == 0 {
		t.Fatal("no attempts")
	}
	if rep.Relay != 0 || rep.Failed != 0 {
		t.Errorf("relay=%d failed=%d; want 0/0", rep.Relay, rep.Failed)
	}
	if direct := rep.Direct(); direct+rep.Abandoned != rep.Attempts {
		t.Errorf("direct=%d abandoned=%d of %d attempts", direct, rep.Abandoned, rep.Attempts)
	}
}

// TestFleetTable1MixMarginals checks the default mix reproduces the
// survey's cone fraction: 310/380 of weighted draws are cone.
func TestFleetTable1MixMarginals(t *testing.T) {
	cone, total := 0, 0
	for _, w := range fleet.Table1Mix() {
		total += w.Weight
		if fleet.Classify(w.Behavior) == fleet.ClassCone {
			cone += w.Weight
		}
	}
	if total != 380 || cone != 310 {
		t.Errorf("Table1Mix marginals %d/%d, want 310/380", cone, total)
	}
}

func TestPairKeyUnordered(t *testing.T) {
	a := fleet.PairKey(fleet.ClassCone, fleet.ClassSymmetric)
	b := fleet.PairKey(fleet.ClassSymmetric, fleet.ClassCone)
	if a != b || a != "cone<->symmetric" {
		t.Errorf("PairKey not canonical: %q vs %q", a, b)
	}
}
