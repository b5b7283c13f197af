package fleet_test

import (
	"fmt"
	"testing"
	"time"

	"natpunch/internal/fleet"
)

// TestFleetFederatedOutcomeClassesMatchSingleServer pins the
// acceptance row: a peer registered on S1 dialing a peer registered
// on S2 lands in the same direct/relay outcome class as the
// single-server baseline. With the half-symmetric mix the class map
// is exact — cone pairs all direct, symmetric-involved pairs all
// relay — and it must hold identically at 1, 2, and 4 servers.
func TestFleetFederatedOutcomeClassesMatchSingleServer(t *testing.T) {
	for _, servers := range []int{1, 2, 4} {
		cfg := stable(40)
		cfg.Mix = halfSymmetricMix()
		cfg.Servers = servers
		rep := fleet.Run(3, cfg)

		if rep.Attempts == 0 {
			t.Fatalf("servers=%d: no punch attempts", servers)
		}
		if rep.Failed != 0 {
			t.Errorf("servers=%d: %d hard failures with relay fallback on", servers, rep.Failed)
		}
		cc := rep.Pair("cone<->cone")
		if cc == nil || cc.Attempts == 0 {
			t.Fatalf("servers=%d: no cone<->cone attempts", servers)
		}
		if cc.Direct() != cc.Completed() {
			t.Errorf("servers=%d: cone<->cone %d direct of %d completed; want all",
				servers, cc.Direct(), cc.Completed())
		}
		for _, key := range []string{"cone<->symmetric", "symmetric<->symmetric"} {
			ps := rep.Pair(key)
			if ps == nil || ps.Attempts == 0 {
				t.Fatalf("servers=%d: no %s attempts", servers, key)
			}
			if ps.Direct() != 0 {
				t.Errorf("servers=%d: %s punched %d direct; want 0", servers, key, ps.Direct())
			}
			if ps.Relay != ps.Completed() {
				t.Errorf("servers=%d: %s relayed %d of %d; want all",
					servers, key, ps.Relay, ps.Completed())
			}
		}
		if len(rep.PerServer) != servers {
			t.Fatalf("servers=%d: PerServer has %d rows", servers, len(rep.PerServer))
		}
	}
}

// TestFleetMultiServerSpreadsLoad pins that stable hashing actually
// shards the population: with 4 servers, every instance homes peers
// and takes registrations, and cross-server introductions flow
// (federation forwards happen).
func TestFleetMultiServerSpreadsLoad(t *testing.T) {
	cfg := stable(60)
	cfg.Servers = 4
	rep := fleet.Run(7, cfg)

	totalHomed := 0
	for _, sl := range rep.PerServer {
		totalHomed += sl.Homed
		if sl.Homed == 0 {
			t.Errorf("server %d homes no peers (hashing degenerate?)", sl.Index)
		}
		if sl.Stats.RegistrationsUDP == 0 {
			t.Errorf("server %d took no registrations", sl.Index)
		}
	}
	if totalHomed != cfg.Peers {
		t.Errorf("homed sums to %d, want %d", totalHomed, cfg.Peers)
	}
	var fed uint64
	for _, sl := range rep.PerServer {
		fed += sl.Stats.FedForwards
	}
	if fed == 0 {
		t.Error("no federation forwards: cross-server pairs were never introduced")
	}
	if rep.Server.FedRecords == 0 {
		t.Error("no replicated registrations reached any peer server")
	}
}

// TestFleetFederatedDeterminism pins bit-for-bit reproducibility with
// a federated tier and churn — federation fan-out must not leak map
// iteration order into the packet stream.
func TestFleetFederatedDeterminism(t *testing.T) {
	cfg := stable(30)
	cfg.Servers = 3
	cfg.MeanLifetime = 90 * time.Second
	cfg.MeanRejoin = 30 * time.Second
	a := fleet.Run(11, cfg)
	b := fleet.Run(11, cfg)
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Errorf("same seed produced different federated reports:\n--- a ---\n%+v\n--- b ---\n%+v", a, b)
	}
}

// TestFleetServerKillFailsOver pins mid-run failover: killing one of
// two servers re-homes its clients to the survivor (Failovers > 0),
// the overlay keeps establishing sessions afterwards, and established
// direct sessions are not torn down by the server's death.
func TestFleetServerKillFailsOver(t *testing.T) {
	cfg := stable(30)
	cfg.Servers = 2
	cfg.Duration = 12 * time.Minute
	cfg.KillServerAt = 5 * time.Minute
	rep := fleet.Run(9, cfg)

	if rep.ServerKilledAt != cfg.KillServerAt {
		t.Fatalf("kill never fired (at %v)", rep.ServerKilledAt)
	}
	if rep.Failovers == 0 {
		t.Error("no client ever failed over to the surviving server")
	}
	if rep.Attempts == 0 || rep.Public+rep.Private == 0 {
		t.Fatalf("overlay made no direct sessions at all: %+v", rep)
	}
	// The acceptance pin: established peer-to-peer sessions predate
	// the kill and must ride through it — only sessions that depend
	// on the dead server (relays through it, dials in flight during
	// the failover window) may blip.
	if rep.PreKillDirectDeaths != 0 {
		t.Errorf("server kill killed %d established direct sessions; they are peer-to-peer and must survive",
			rep.PreKillDirectDeaths)
	}
	// The survivor must have absorbed re-registrations: every
	// killed-server client re-homes there and keeps dialing.
	survivor := rep.PerServer[1]
	if survivor.Stats.RegistrationsUDP == 0 {
		t.Error("survivor took no registrations")
	}
}

// TestFleetNoKillHasNoFailovers is the control: with both servers
// healthy the failover machinery must never trip.
func TestFleetNoKillHasNoFailovers(t *testing.T) {
	cfg := stable(30)
	cfg.Servers = 2
	rep := fleet.Run(9, cfg)
	if rep.Failovers != 0 {
		t.Errorf("healthy tier produced %d spurious failovers", rep.Failovers)
	}
	if rep.PreKillDirectDeaths != 0 {
		t.Errorf("PreKillDirectDeaths=%d without any kill", rep.PreKillDirectDeaths)
	}
}
