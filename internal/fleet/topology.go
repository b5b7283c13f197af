package fleet

import "natpunch/internal/nat"

// SiteKind is the shape of one fleet site — how many peers share
// which NAT arrangement.
type SiteKind uint8

// Site kinds.
const (
	// SiteFlat is the PR-2 shape and the paper's Figure 5 building
	// block: one peer behind its own NAT.
	SiteFlat SiteKind = iota
	// SiteShared puts several peers on one private segment behind a
	// single NAT (Figure 4, §3.3): pairs inside the site can reach
	// each other's private candidates directly.
	SiteShared
	// SiteCGN nests per-peer home NATs behind one ISP-level NAT using
	// topo's nested realms (Figure 6, §3.4.2/§3.4.3): pairs inside
	// the site need the upper NAT to hairpin — or a relay.
	SiteCGN
)

// SiteShape is one weighted entry of a topology mix.
type SiteShape struct {
	// Label names the shape in traces.
	Label string
	Kind  SiteKind
	// Hosts is the number of peers in the site (home NATs for
	// SiteCGN). Values < 1 — and any value for SiteFlat — mean 1;
	// values above 250 are clamped (per-site addressing assigns one
	// final-octet per peer: 10.0.0.x hosts, 172.16.0.x home NATs).
	Hosts int
	// CGN is the upper NAT's behavior for SiteCGN (hairpin support is
	// what the shape probes); ignored otherwise.
	CGN nat.Behavior
	// Weight is the draw weight within the mix.
	Weight int
}

func (s SiteShape) hosts() int {
	if s.Kind == SiteFlat || s.Hosts < 1 {
		return 1
	}
	if s.Hosts > 250 {
		return 250
	}
	return s.Hosts
}

// FlatOnly is the default topology mix: every site is one peer
// behind one NAT — the PR-2 fleet, unchanged.
func FlatOnly() []SiteShape {
	return []SiteShape{{Label: "flat", Kind: SiteFlat, Weight: 1}}
}

// Heterogeneous is a representative real-world mix: mostly flat home
// NATs, some multi-device households, and ISP-grade CGN deployments
// with and without hairpin support (the DCUtR-era measurement
// campaigns in PAPERS.md report exactly this split dominating
// success rates).
func Heterogeneous() []SiteShape {
	return []SiteShape{
		{Label: "flat", Kind: SiteFlat, Weight: 5},
		{Label: "household-3", Kind: SiteShared, Hosts: 3, Weight: 2},
		{Label: "cgn-hairpin-4", Kind: SiteCGN, Hosts: 4, CGN: nat.WellBehaved(), Weight: 2},
		{Label: "cgn-plain-4", Kind: SiteCGN, Hosts: 4, CGN: nat.Cone(), Weight: 1},
	}
}

// Pair topology classes (TopoStat.Topo values).
const (
	// TopoCross: the peers sit in different sites; candidate paths
	// cross the public core (Figure 5).
	TopoCross = "cross"
	// TopoSameSite: the peers share one private segment behind one
	// NAT (Figure 4); the private candidate is the direct path.
	TopoSameSite = "same-site"
	// TopoSameCGN: the peers sit behind different home NATs under one
	// upper NAT (Figure 6); the hairpin candidate is the only direct
	// path.
	TopoSameCGN = "same-cgn"
)

// topoClass buckets one attempt by the pair's relative topology.
func topoClass(p, q *peer) string {
	if p.site < 0 || q.site < 0 || p.site != q.site {
		return TopoCross
	}
	if p.siteKind == SiteCGN {
		return TopoSameCGN
	}
	return TopoSameSite
}
