package ice_test

import (
	"testing"
	"time"

	"natpunch/internal/ice"
	"natpunch/internal/nat"
	"natpunch/internal/punch"
	"natpunch/internal/topo"
)

// legacyPunch runs a legacy direct punch (punch.ConnectUDP) between
// alice and bob on an already-built rig topology.
func legacyPunch(t *testing.T, in *topo.Internet, a, b *punch.Client, window time.Duration) (bool, punch.Method) {
	t.Helper()
	var sa *punch.UDPSession
	failed := false
	b.InboundUDP = punch.UDPCallbacks{}
	a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession, _ ice.Candidate) { sa = s },
		Failed:      func(string, error) { failed = true },
	})
	sched := in.Net.Sched
	deadline := sched.Now() + window
	sched.RunWhile(func() bool { return sa == nil && !failed && sched.Now() < deadline })
	if sa == nil {
		return false, punch.MethodNone
	}
	return true, sa.Via
}

// methodClass folds outcomes into the comparable classes: direct vs
// relay vs fail. The engine refines "direct" into
// public/hairpin/reflexive/private, which legacy cannot distinguish,
// so the differential compares at the coarse level and then pins the
// engine's refinement separately.
func methodClass(m punch.Method) string {
	switch m {
	case punch.MethodRelay:
		return "relay"
	case punch.MethodNone:
		return "fail"
	default:
		return "direct"
	}
}

func kindClass(k ice.Kind) string {
	if k == ice.KindRelay {
		return "relay"
	}
	return "direct"
}

// TestDifferentialFlatPairsMatchLegacy pins the refactor against the
// legacy path: for every flat NAT-behavior pairing, the engine's
// outcome class must equal the legacy direct-punch outcome class —
// no regressions from routing everything through candidate
// negotiation.
func TestDifferentialFlatPairsMatchLegacy(t *testing.T) {
	behaviors := []func() nat.Behavior{
		nat.Cone, nat.FullCone, nat.RestrictedCone, nat.WellBehaved,
		nat.Symmetric, nat.SymmetricOpen, nat.Mangler,
	}
	seed := int64(40)
	for _, mkA := range behaviors {
		for _, mkB := range behaviors {
			seed++
			behA, behB := mkA(), mkB()

			// Legacy run on its own isolated simulation.
			c := topo.NewCanonical(seed, behA, behB)
			lr := newRig(t, c.Internet, c.S, c.A, c.B, fastCfg(), ice.Config{})
			lOK, lVia := legacyPunch(t, lr.in, lr.a, lr.b, 20*time.Second)

			// Engine run on a fresh identical topology, same seed.
			er := flatRig(t, seed, behA, behB, fastCfg(), ice.Config{})
			out := er.negotiate(20 * time.Second)

			if !lOK || !out.ok {
				t.Fatalf("%s vs %s: no outcome (legacy ok=%v, ice ok=%v)", behA.Label, behB.Label, lOK, out.ok)
			}
			lc, ec := methodClass(lVia), kindClass(out.chosen.Kind)
			if lc != ec {
				t.Errorf("%s vs %s: legacy %s (%v) but engine %s (%v)",
					behA.Label, behB.Label, lc, lVia, ec, out.chosen.Kind)
			}
			// Flat distinct-NAT pairs can never legitimately classify
			// as private or hairpin.
			if out.chosen.Kind == ice.KindPrivate || out.chosen.Kind == ice.KindHairpin {
				t.Errorf("%s vs %s: flat pair classified %v", behA.Label, behB.Label, out.chosen.Kind)
			}
		}
	}
}

// TestDifferentialSameSiteUsesPrivate pins the same-site half of the
// satellite: pairs behind one hairpin-less NAT must connect via the
// private candidate — the path that, for any public-endpoint-only
// strategy (and for the fleet's legacy configuration, whose uniform
// addressing made private endpoints self-referential), ends in a
// relay.
func TestDifferentialSameSiteUsesPrivate(t *testing.T) {
	// Engine: private nomination.
	er := commonRig(t, 90, nat.Cone(), fastCfg(), ice.Config{})
	out := er.negotiate(20 * time.Second)
	if !out.ok || out.chosen.Kind != ice.KindPrivate {
		t.Fatalf("engine same-site outcome %+v, want private", out)
	}

	// The public-endpoint-only strategy on the same topology relays:
	// this is what "legacy" meant at fleet scale, where every site
	// reused one private address and the advertised private endpoint
	// pointed back at the prober itself.
	ar := commonRig(t, 90, nat.Cone(), fastCfg(), ice.Config{NoPrivate: true})
	aout := ar.negotiate(20 * time.Second)
	if !aout.ok || aout.chosen.Kind != ice.KindRelay {
		t.Fatalf("public-only same-site outcome %+v, want relay", aout)
	}

	// And the legacy punch client itself — which does probe both
	// §3.2 endpoints — agrees with the engine here (no regression).
	c := topo.NewCommonNAT(91, nat.Cone())
	lr := newRig(t, c.Internet, c.S, c.A, c.B, fastCfg(), ice.Config{})
	lOK, lVia := legacyPunch(t, lr.in, lr.a, lr.b, 20*time.Second)
	if !lOK || lVia != punch.MethodPrivate {
		t.Fatalf("legacy same-site outcome via=%v ok=%v, want private", lVia, lOK)
	}
}

// TestDifferentialMultiLevelHairpin pins Figure 6 both ways: with a
// hairpinning upper NAT legacy and engine both go direct (the engine
// labeling the path hairpin); without hairpin support both relay.
func TestDifferentialMultiLevelHairpin(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cgn     nat.Behavior
		class   string
		engKind ice.Kind
	}{
		{"hairpin-cgn", nat.WellBehaved(), "direct", ice.KindHairpin},
		{"plain-cgn", nat.Cone(), "relay", ice.KindRelay},
	} {
		c := topo.NewMultiLevel(95, tc.cgn, nat.Cone(), nat.Cone())
		lr := newRig(t, c.Internet, c.S, c.A, c.B, fastCfg(), ice.Config{})
		lOK, lVia := legacyPunch(t, lr.in, lr.a, lr.b, 20*time.Second)

		er := multiRig(t, 95, tc.cgn, nat.Cone(), nat.Cone(), fastCfg(), ice.Config{})
		out := er.negotiate(20 * time.Second)

		if !lOK || !out.ok {
			t.Fatalf("%s: missing outcome (legacy %v, engine %v)", tc.name, lOK, out.ok)
		}
		if got := methodClass(lVia); got != tc.class {
			t.Errorf("%s: legacy class %s, want %s", tc.name, got, tc.class)
		}
		if out.chosen.Kind != tc.engKind {
			t.Errorf("%s: engine kind %v, want %v", tc.name, out.chosen.Kind, tc.engKind)
		}
	}
}
