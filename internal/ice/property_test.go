package ice_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"natpunch/internal/ice"
	"natpunch/internal/inet"
	"natpunch/internal/nat"
)

// randomPair draws an endpoint pair as S sends it, including the
// shapes BuildChecks must handle: zero endpoints, a public endpoint
// on self's address (the peer behind the same outer NAT), and a
// private endpoint equal to the public one (an un-NATed peer).
func randomPair(rng *rand.Rand, self inet.Endpoint) (public, private inet.Endpoint) {
	draw := func() inet.Endpoint {
		switch rng.Intn(4) {
		case 0:
			return inet.Endpoint{}
		case 1:
			return inet.Endpoint{Addr: self.Addr, Port: inet.Port(rng.Intn(1 << 16))}
		}
		return inet.Endpoint{
			Addr: inet.Addr(rng.Uint32() >> uint(rng.Intn(24))),
			Port: inet.Port(rng.Intn(1 << 16)),
		}
	}
	public, private = draw(), draw()
	if rng.Intn(4) == 0 {
		private = public
	}
	return public, private
}

// sortChecks orders candidates by ice.Less.
func sortChecks(cands []ice.Candidate) {
	sort.Slice(cands, func(i, j int) bool { return ice.Less(cands[i], cands[j]) })
}

// TestCandidateOrderIsDeterministicTotalOrder pins the first half of
// the ordering satellite: Less is a strict total order over distinct
// candidates, so sorting by it yields one canonical schedule
// regardless of input permutation.
func TestCandidateOrderIsDeterministicTotalOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var cands []ice.Candidate
		for i := 0; i < 30; i++ {
			k := ice.Kind(rng.Intn(5))
			cands = append(cands, ice.Candidate{
				Kind:     k,
				Endpoint: inet.Endpoint{Addr: inet.Addr(rng.Intn(64)), Port: inet.Port(rng.Intn(8))},
			})
		}
		sorted := append([]ice.Candidate(nil), cands...)
		sortChecks(sorted)
		// Any shuffle sorts to the identical schedule.
		for trial := 0; trial < 5; trial++ {
			shuf := append([]ice.Candidate(nil), cands...)
			rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
			sortChecks(shuf)
			if !reflect.DeepEqual(sorted, shuf) {
				t.Fatalf("seed %d trial %d: sort is permutation-sensitive:\n%v\n%v", seed, trial, sorted, shuf)
			}
		}
		// Strict total order: exactly one of Less(a,b), Less(b,a)
		// holds for distinct candidates; neither for equal ones.
		for i := range cands {
			for j := range cands {
				ab, ba := ice.Less(cands[i], cands[j]), ice.Less(cands[j], cands[i])
				if cands[i] == cands[j] {
					if ab || ba {
						t.Fatalf("equal candidates ordered: %v", cands[i])
					}
				} else if ab == ba {
					t.Fatalf("order not total on %v vs %v (ab=%v ba=%v)", cands[i], cands[j], ab, ba)
				}
			}
		}
	}
}

// TestBuildChecksIsPure pins schedule determinism: the check plan is
// a pure function of (self public endpoint, the peer's endpoint pair,
// config), in Less order, with no zero or repeated endpoint; ablations
// hold, a shared-address public endpoint is reclassified hairpin, and
// each endpoint of the pair is checked unless one of those rules
// drops it.
func TestBuildChecksIsPure(t *testing.T) {
	self := inet.EP("155.99.25.11", 62000)
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		public, private := randomPair(rng, self)
		for _, cfg := range []ice.Config{
			{},
			{NoPrivate: true},
			{NoHairpin: true},
			{NoPrivate: true, NoHairpin: true},
		} {
			a := ice.BuildChecks(self, public, private, cfg)
			if b := ice.BuildChecks(self, public, private, cfg); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: BuildChecks not pure:\n%v\n%v", seed, a, b)
			}
			for i := 1; i < len(a); i++ {
				if ice.Less(a[i], a[i-1]) {
					t.Fatalf("seed %d: schedule out of Less order: %v", seed, a)
				}
			}
			want := map[inet.Endpoint]ice.Kind{}
			if !private.IsZero() && private != public && !cfg.NoPrivate {
				want[private] = ice.KindPrivate
			}
			if !public.IsZero() {
				switch {
				case public.Addr != self.Addr, public == self:
					want[public] = ice.KindPublic
				case !cfg.NoHairpin:
					want[public] = ice.KindHairpin
				}
			}
			got := map[inet.Endpoint]ice.Kind{}
			for _, c := range a {
				if _, dup := got[c.Endpoint]; dup {
					t.Fatalf("seed %d: duplicate endpoint %v in schedule %v", seed, c.Endpoint, a)
				}
				got[c.Endpoint] = c.Kind
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (public %v, private %v, cfg %+v): schedule %v, want %v",
					seed, public, private, cfg, a, want)
			}
		}
	}
}

// TestNominationAlwaysTerminatesWithRelayFloor is the second half of
// the ordering satellite: across randomized NAT-pair and topology
// draws, a negotiation with the relay floor enabled ALWAYS
// establishes — direct paths when physics permit, relay otherwise —
// and the same seed reproduces the identical outcome.
func TestNominationAlwaysTerminatesWithRelayFloor(t *testing.T) {
	behaviors := []func() nat.Behavior{
		nat.Cone, nat.FullCone, nat.RestrictedCone, nat.WellBehaved,
		nat.Symmetric, nat.SymmetricOpen, nat.SymmetricRandom, nat.Mangler,
	}
	type result struct {
		kind    ice.Kind
		elapsed time.Duration
	}
	run := func(seed int64) result {
		rng := rand.New(rand.NewSource(seed))
		behA := behaviors[rng.Intn(len(behaviors))]()
		behB := behaviors[rng.Intn(len(behaviors))]()
		var r *rig
		switch rng.Intn(4) {
		case 0:
			r = flatRig(t, seed, behA, behB, fastCfg(), ice.Config{})
		case 1:
			r = commonRig(t, seed, behA, fastCfg(), ice.Config{})
		case 2:
			r = multiRig(t, seed, nat.WellBehaved(), behA, behB, fastCfg(), ice.Config{})
		default:
			r = multiRig(t, seed, nat.Cone(), behA, behB, fastCfg(), ice.Config{})
		}
		out := r.negotiate(20 * time.Second)
		if out.failed {
			t.Fatalf("seed %d (%s vs %s): negotiation failed (%v) despite relay floor",
				seed, behA.Label, behB.Label, out.err)
		}
		if !out.ok {
			t.Fatalf("seed %d (%s vs %s): negotiation never resolved", seed, behA.Label, behB.Label)
		}
		// The floor is bounded: nomination can't outlive the deadline
		// by more than scheduling slop.
		if limit := fastCfg().PunchTimeout + time.Second; out.elapsed > limit {
			t.Fatalf("seed %d: nomination after %v (> %v)", seed, out.elapsed, limit)
		}
		return result{out.chosen.Kind, out.elapsed}
	}
	for seed := int64(100); seed < 140; seed++ {
		a, b := run(seed), run(seed)
		if a != b {
			t.Fatalf("seed %d not reproducible: %+v vs %+v", seed, a, b)
		}
	}
}

// TestRelayFloorSurvivesDeadPeer: even a peer that vanishes after
// registration (no checks ever answered) resolves to relay — the
// termination guarantee does not depend on the peer cooperating.
func TestRelayFloorSurvivesDeadPeer(t *testing.T) {
	r := flatRig(t, 500, nat.Cone(), nat.Cone(), fastCfg(), ice.Config{})
	// Kill bob after registration: his client closes, so every check
	// and even the details handshake on his side goes unanswered.
	r.b.Close()
	out := r.negotiate(10 * time.Second)
	if !out.ok || out.chosen.Kind != ice.KindRelay {
		t.Fatalf("want relay against a dead peer, got %+v", out)
	}
}
