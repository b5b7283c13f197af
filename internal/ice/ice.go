// Package ice is the candidate model of an ICE-lite: the candidate
// kinds and their total order, and the check schedule built from the
// endpoint pair S sends for a peer. The punch client's negotiation
// (internal/punch) runs the schedule.
//
// The paper's §3.4 shows that robust connectivity requires trying
// *multiple* candidate paths: private endpoints reach peers behind
// the same NAT (§3.3, Figure 4); public endpoints punch across
// different NATs (§3.4, Figure 5); when multi-level NAT puts both
// peers behind one upper device, the public path works only if that
// device hairpins (§3.4.2/§3.5, Figure 6); peer-reflexive candidates,
// discovered when checks arrive from endpoints S did not name (a
// symmetric NAT's fresh per-destination mapping, §5.1), let
// cone↔symmetric pairs converge; and relaying through S is the floor
// that always works (§2.2).
//
// The schedule is a pure function of its inputs, so with a fixed seed
// the candidate order and check schedule are bit-for-bit
// reproducible.
package ice

import (
	"fmt"

	"natpunch/internal/inet"
)

// Kind classifies a candidate path. The order is meaningful: higher
// kinds are preferred.
type Kind uint8

// Candidate kinds, lowest preference first.
const (
	// KindRelay is the §2.2 relay path through S — never probed, only
	// nominated at the deadline; the guaranteed floor.
	KindRelay Kind = iota
	// KindHairpin is a public candidate that shares the local client's
	// public address: both peers sit behind the same outer NAT, so the
	// path exists only if that NAT supports loopback translation
	// (§3.5). Also assigned to reflexive discoveries that arrive from
	// the shared public address.
	KindHairpin
	// KindPublic is the peer's rendezvous-observed public endpoint —
	// the canonical punched path of §3.4.
	KindPublic
	// KindReflexive is a peer-reflexive endpoint discovered when a
	// check arrives from a mapping S did not name (§5.1).
	KindReflexive
	// KindPrivate is the peer's self-reported private endpoint,
	// reaching peers in the same address realm (§3.3).
	KindPrivate
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRelay:
		return "relay"
	case KindHairpin:
		return "hairpin"
	case KindPublic:
		return "public"
	case KindReflexive:
		return "reflexive"
	case KindPrivate:
		return "private"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Candidate is one checkable transport address for a peer.
type Candidate struct {
	Kind     Kind
	Endpoint inet.Endpoint
}

// String renders "kind endpoint" for traces and tables.
func (c Candidate) String() string {
	return fmt.Sprintf("%s %s", c.Kind, c.Endpoint)
}

// Less is the engine's total order on candidates: by kind descending
// (the preferred kind first), then endpoint ascending. The endpoint
// tiebreak makes the order total over distinct candidates, so a check
// schedule in this order is a pure function of the candidate set.
func Less(a, b Candidate) bool {
	if a.Kind != b.Kind {
		return a.Kind > b.Kind
	}
	if a.Endpoint.Addr != b.Endpoint.Addr {
		return a.Endpoint.Addr < b.Endpoint.Addr
	}
	return a.Endpoint.Port < b.Endpoint.Port
}

// Config ablates the negotiation: each switch drops a candidate type
// from the checking side's schedule. Both peers should run the same
// config: nothing about it goes on the wire.
type Config struct {
	NoPrivate bool
	NoHairpin bool
}

// BuildChecks derives the deterministic check schedule from the
// endpoint pair S sent for the peer (§3.2 step 2, tried both ways as
// §3.4 asks): its private endpoint, unless that is zero or the public
// one again (an un-NATed peer), then its public endpoint, reclassified
// hairpin when it shares selfPublic's address (§3.5: the path exists
// only through the common NAT's loopback). The config's ablations
// apply. Private outranks public and hairpin, so the schedule is in
// Less order as built. The result is a pure function of (selfPublic,
// public, private, cfg) — the property the schedule determinism tests
// pin.
func BuildChecks(selfPublic, public, private inet.Endpoint, cfg Config) []Candidate {
	out := make([]Candidate, 0, 2)
	if !cfg.NoPrivate && !private.IsZero() && private != public {
		out = append(out, Candidate{Kind: KindPrivate, Endpoint: private})
	}
	k := KindPublic
	if public.Addr == selfPublic.Addr && public != selfPublic {
		k = KindHairpin
	}
	if !public.IsZero() && !(cfg.NoHairpin && k == KindHairpin) {
		out = append(out, Candidate{Kind: k, Endpoint: public})
	}
	return out
}

// ClassifyDiscovery assigns the kind for a peer-reflexive discovery:
// traffic arriving from the client's own public address can only have
// hairpinned off the shared outer NAT.
func ClassifyDiscovery(selfPublic inet.Endpoint, from inet.Endpoint) Kind {
	if from.Addr == selfPublic.Addr && from != selfPublic {
		return KindHairpin
	}
	return KindReflexive
}
