package fleet

import (
	"fmt"
	"sort"
	"time"

	"natpunch/internal/ice"
	"natpunch/internal/inet"
	"natpunch/internal/nat"
	"natpunch/internal/rendezvous"
	"natpunch/internal/sim"
	"natpunch/internal/vendors"
)

// Class buckets a peer's NAT behavior into the coarse taxonomy that
// predicts hole punching outcomes (§5.1): un-NATed public hosts, cone
// NATs (endpoint-independent mapping, the paper's precondition), and
// symmetric NATs (per-destination mappings that defeat basic
// punching).
type Class uint8

// Peer classes.
const (
	ClassPublic Class = iota
	ClassCone
	ClassSymmetric
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassPublic:
		return "public"
	case ClassCone:
		return "cone"
	case ClassSymmetric:
		return "symmetric"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Classify buckets a NAT behavior. Endpoint-independent mapping is
// the cone precondition of §5.1; everything else acts symmetric for
// punching purposes.
func Classify(b nat.Behavior) Class {
	if b.Mapping == nat.MappingEndpointIndependent {
		return ClassCone
	}
	return ClassSymmetric
}

// PairKey renders the unordered NAT-pair class of a punch attempt,
// e.g. "cone<->symmetric". Order-insensitive so A->B and B->A
// attempts aggregate together.
func PairKey(a, b Class) string {
	if b < a {
		a, b = b, a
	}
	return a.String() + "<->" + b.String()
}

// Weighted is one entry of an arrival mix: a NAT behavior drawn with
// probability Weight / sum(Weights).
type Weighted struct {
	Label    string
	Behavior nat.Behavior
	Weight   int
}

// Table1Mix derives the default arrival mix from the paper's vendor
// survey (internal/vendors): one cone and one symmetric entry per
// Table 1 row, weighted by the row's UDP-punch cell, so the fleet's
// marginal cone fraction equals the survey's 310/380 (82%).
func Table1Mix() []Weighted {
	var mix []Weighted
	for _, row := range vendors.AllRows() {
		devs := vendors.Devices(row)
		if n := row.UDPPunch.Num; n > 0 {
			b := devs[0].Behavior // device 0 is always a cone exemplar
			b.Label = row.Name + "-cone"
			mix = append(mix, Weighted{b.Label, b, n})
		}
		if n := row.UDPPunch.Den - row.UDPPunch.Num; n > 0 {
			b := devs[len(devs)-1].Behavior // last device is symmetric
			b.Label = row.Name + "-symmetric"
			mix = append(mix, Weighted{b.Label, b, n})
		}
	}
	return mix
}

// Outcomes aggregates punch-attempt resolutions by the candidate
// type the negotiation nominated. Outcomes are counted on the
// initiating side only, so each logical attempt is counted once.
// Attempts = direct kinds + Relay + Failed + Abandoned once the run
// has drained (abandoned attempts are those whose initiator departed
// before any outcome).
type Outcomes struct {
	Attempts  int
	Public    int // locked the peer's rendezvous-observed endpoint (§3.4)
	Private   int // locked the peer's private endpoint (same realm, §3.3)
	Hairpin   int // locked a shared-outer-NAT loopback path (§3.5)
	Reflexive int // locked a peer-reflexive discovery (§5.1 fresh mappings)
	Relay     int // §2.2 fallback at the negotiation deadline
	Failed    int // hard failure (no relay fallback configured)
	Abandoned int
	// Times holds time-to-establish for direct (non-relay) sessions.
	Times []time.Duration
}

// add counts one resolved attempt by the candidate kind its
// negotiation nominated, and times it when the path is direct.
func (o *Outcomes) add(kind ice.Kind, elapsed time.Duration) {
	switch kind {
	case ice.KindRelay:
		o.Relay++
		return
	case ice.KindPrivate:
		o.Private++
	case ice.KindHairpin:
		o.Hairpin++
	case ice.KindReflexive:
		o.Reflexive++
	default:
		o.Public++
	}
	o.Times = append(o.Times, elapsed)
}

// Direct is the number of attempts that established without relaying.
func (o *Outcomes) Direct() int { return o.Public + o.Private + o.Hairpin + o.Reflexive }

// Completed is the number of attempts with a definite outcome.
func (o *Outcomes) Completed() int { return o.Direct() + o.Relay + o.Failed }

// DirectPct is the percentage of completed attempts that punched
// through directly.
func (o *Outcomes) DirectPct() float64 {
	c := o.Completed()
	if c == 0 {
		return 0
	}
	return float64(o.Direct()) / float64(c) * 100
}

// PairStat is the outcome aggregate for one NAT-pair class.
type PairStat struct {
	Pair string
	Outcomes
	// Upgraded counts initiated sessions in this class that won a
	// relay->direct live migration at least once (RelayFirst /
	// PathUpgrade runs). A relay-first attempt lands in Relay at
	// establishment; Upgraded is how many of those sessions later
	// reached a direct path. Unique per session, so EventualDirect
	// stays bounded by Attempts under failback/re-upgrade flapping.
	Upgraded int
}

// EventualDirect is the number of initiated sessions in this class
// that ended up on a direct path — punched at establishment, or
// upgraded afterwards.
func (ps *PairStat) EventualDirect() int { return ps.Direct() + ps.Upgraded }

// EventualDirectPct is the percentage of completed attempts that
// reached a direct path eventually.
func (ps *PairStat) EventualDirectPct() float64 {
	c := ps.Completed()
	if c == 0 {
		return 0
	}
	return float64(ps.EventualDirect()) / float64(c) * 100
}

// TopoStat is the outcome aggregate for one pair-topology class
// (TopoCross / TopoSameSite / TopoSameCGN).
type TopoStat struct {
	Topo string
	Outcomes
}

// ServerLoad is one rendezvous server's share of a federated tier's
// work: how many peers the stable hash homes there and the server's
// own counters (connect/negotiate brokering, §2.2 relay load,
// federation traffic).
type ServerLoad struct {
	Index    int
	Endpoint inet.Endpoint
	// Homed counts peers whose preference order heads here.
	Homed int
	Stats rendezvous.Stats
}

// Report is the aggregate outcome of one fleet run.
type Report struct {
	Seed int64

	// Population churn.
	Arrivals   int // first-time registrations
	Rejoins    int // re-registrations after a departure
	Departures int
	PeakOnline int

	// Federated rendezvous tier.
	Failovers      int           // client re-homings after a server went silent
	ServerKilledAt time.Duration // when KillServerAt fired (0 = never)
	// PreKillDirectDeaths counts direct (peer-to-peer) sessions that
	// were established before the server kill and died after it —
	// must be zero: killing a rendezvous server may only disturb
	// sessions that depend on it (relays through it, dials in
	// flight).
	PreKillDirectDeaths int
	PerServer           []ServerLoad // per-instance load; Server is the sum

	// Punch attempt outcomes (initiator side), fleet-wide; Times
	// holds every direct time-to-establish, sorted ascending.
	Outcomes

	// Session lifecycle.
	PeakSessions int // high-water mark of concurrent initiated sessions
	DeadSessions int // §3.6 idle-death detections on initiated sessions
	Repunches    int // on-demand re-punches triggered by session death

	// Live-path migration (RelayFirst / PathUpgrade runs; counted on
	// the initiating side, like attempt outcomes).
	Upgrades   int // relay->direct migrations of live sessions
	Failbacks  int // direct->relay failbacks after the direct path died
	NATRebinds int // site NAT table losses injected by MeanRebindEvery
	// UpgradeTimes holds each initiated session's establish->first-
	// direct-upgrade latency, sorted ascending.
	UpgradeTimes []time.Duration

	// Pairs holds per NAT-pair-class outcome rows, sorted by pair key.
	Pairs []PairStat

	// Topos holds per pair-topology-class outcome rows (cross /
	// same-site / same-cgn), sorted by class key.
	Topos []TopoStat

	// ConnectTimes holds time-to-establish for every completed attempt
	// regardless of path kind, sorted ascending — under RelayFirst
	// this is the dial-to-usable-Conn latency (about one relay RTT).
	ConnectTimes []time.Duration

	// Server (tier-wide aggregate) and fabric load.
	Server      rendezvous.Stats
	Fabric      sim.Stats
	VirtualTime time.Duration
	Events      uint64
}

// Quantile returns the q-th quantile (0 <= q <= 1) of the direct
// time-to-establish distribution, or 0 when no direct session was
// established.
func (r *Report) Quantile(q float64) time.Duration {
	return quantileOf(r.Times, q)
}

// ConnectQuantile returns the q-th quantile of the kind-agnostic
// connect-latency distribution (dial to usable session).
func (r *Report) ConnectQuantile(q float64) time.Duration {
	return quantileOf(r.ConnectTimes, q)
}

// UpgradeQuantile returns the q-th quantile of the relay->direct
// upgrade-latency distribution.
func (r *Report) UpgradeQuantile(q float64) time.Duration {
	return quantileOf(r.UpgradeTimes, q)
}

func quantileOf(ts []time.Duration, q float64) time.Duration {
	if len(ts) == 0 {
		return 0
	}
	i := int(q * float64(len(ts)-1))
	return ts[i]
}

// Pair returns the stats row for a pair key, or nil.
func (r *Report) Pair(key string) *PairStat {
	for i := range r.Pairs {
		if r.Pairs[i].Pair == key {
			return &r.Pairs[i]
		}
	}
	return nil
}

// finalize sorts the latency samples so reports render and compare
// deterministically (finish has already sorted Pairs and Topos).
func (r *Report) finalize() {
	sort.Slice(r.Times, func(i, j int) bool { return r.Times[i] < r.Times[j] })
	sort.Slice(r.ConnectTimes, func(i, j int) bool { return r.ConnectTimes[i] < r.ConnectTimes[j] })
	sort.Slice(r.UpgradeTimes, func(i, j int) bool { return r.UpgradeTimes[i] < r.UpgradeTimes[j] })
	for i := range r.Pairs {
		times := r.Pairs[i].Times
		sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	}
	for i := range r.Topos {
		times := r.Topos[i].Times
		sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	}
}
