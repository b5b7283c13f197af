// Package ice is the candidate model of an ICE-lite: the candidate
// kinds, their priorities and total order, and the check schedule
// built from a peer's advertised list. The punch client's negotiation
// (internal/punch) runs the schedule.
//
// The paper's §3.4 shows that robust connectivity requires trying
// *multiple* candidate paths: private endpoints reach peers behind
// the same NAT (§3.3, Figure 4); public endpoints punch across
// different NATs (§3.4, Figure 5); when multi-level NAT puts both
// peers behind one upper device, the public path works only if that
// device hairpins (§3.4.2/§3.5, Figure 6); peer-reflexive candidates,
// discovered when checks arrive from endpoints nobody advertised (a
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
	"sort"

	"natpunch/internal/inet"
	"natpunch/internal/proto"
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
	// check arrives from an unadvertised mapping (§5.1).
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

// typePreference mirrors RFC 8445 §5.1.2.1's type preferences:
// host 126, peer-reflexive 110, server-reflexive 100, relayed 0;
// hairpin slots between server-reflexive and relay since it needs
// optional NAT behavior to work.
func (k Kind) typePreference() uint32 {
	switch k {
	case KindPrivate:
		return 126
	case KindReflexive:
		return 110
	case KindPublic:
		return 100
	case KindHairpin:
		return 80
	default:
		return 0
	}
}

// Priority is the advisory priority a client puts on the wire with a
// candidate of this kind (proto.Candidate.Priority). It increases with
// the kind, and the engine orders candidates by kind (Less).
func (k Kind) Priority() uint32 { return k.typePreference() << 24 }

// Candidate is one checkable transport address for a peer.
type Candidate struct {
	Kind     Kind
	Endpoint inet.Endpoint
}

// String renders "kind endpoint" for traces and tables.
func (c Candidate) String() string {
	return fmt.Sprintf("%s %s", c.Kind, c.Endpoint)
}

// wireKind maps proto candidate kind bytes onto engine kinds.
func wireKind(k uint8) (Kind, bool) {
	switch k {
	case proto.CandPrivate:
		return KindPrivate, true
	case proto.CandPublic:
		return KindPublic, true
	case proto.CandHairpin:
		return KindHairpin, true
	case proto.CandReflexive:
		return KindReflexive, true
	case proto.CandRelay:
		return KindRelay, true
	}
	return 0, false
}

// Less is the engine's total order on candidates: by kind descending
// (the kind's priority), then endpoint ascending. The endpoint tiebreak
// makes the order total over distinct candidates, so a sorted check
// schedule is a pure function of the candidate set.
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
// from both gathering and checking.
type Config struct {
	NoPrivate bool
	NoHairpin bool
}

// BuildChecks derives the deterministic check schedule from a peer's
// advertised candidate list: map wire kinds, reclassify public
// candidates that share selfPublic's address as hairpin (§3.5: the
// path exists only through the common NAT's loopback), apply the
// config's ablations, ignore the advertised priorities, sort, and
// deduplicate by endpoint keeping the preferred kind. The result is a
// pure function of (selfPublic, remote, cfg) — the property the
// schedule determinism tests pin.
func BuildChecks(selfPublic inet.Endpoint, remote []proto.Candidate, cfg Config) []Candidate {
	var out []Candidate
	for _, rc := range remote {
		k, ok := wireKind(rc.Kind)
		if !ok || k == KindRelay {
			continue // relay is nominated at the deadline, never probed
		}
		if k == KindPublic && rc.Endpoint.Addr == selfPublic.Addr && rc.Endpoint != selfPublic {
			k = KindHairpin
		}
		switch {
		case cfg.NoPrivate && k == KindPrivate,
			cfg.NoHairpin && k == KindHairpin:
			continue
		}
		if rc.Endpoint.IsZero() {
			continue
		}
		out = append(out, Candidate{Kind: k, Endpoint: rc.Endpoint})
	}
	sort.Slice(out, func(i, j int) bool { return Less(out[i], out[j]) })
	// Dedupe by endpoint; after sorting the first occurrence carries
	// the preferred kind.
	kept := out[:0]
	seen := make(map[inet.Endpoint]bool, len(out))
	for _, c := range out {
		if seen[c.Endpoint] {
			continue
		}
		seen[c.Endpoint] = true
		kept = append(kept, c)
	}
	return kept
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
