// Package topo provides topology builders for the paper's network
// scenarios: a public Internet core, sites behind NATs (Figure 5),
// nested sites for multi-level NAT (Figure 6), and hosts sharing one
// private realm (Figure 4).
package topo

import (
	"fmt"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/inet"
	"natpunch/internal/nat"
	"natpunch/internal/sim"
)

// DefaultLatency values chosen to resemble a consumer path: ~20 ms
// across the core, ~1 ms on a LAN.
const (
	CoreLatency = 20 * time.Millisecond
	LANLatency  = time.Millisecond
)

// Internet is a simulation with a public core segment.
type Internet struct {
	Net  *sim.Network
	Core *sim.Segment
}

// NewInternet builds an empty public Internet.
func NewInternet(seed int64) *Internet {
	n := sim.NewNetwork(seed)
	core := n.NewSegment("internet", "0.0.0.0/0", CoreLatency)
	return &Internet{Net: n, Core: core}
}

// RunFor advances virtual time by d.
func (i *Internet) RunFor(d time.Duration) { i.Net.Sched.RunFor(d) }

// Realm is an address realm: the public core or a private network
// behind a NAT. NAT is nil for the core realm.
type Realm struct {
	in      *Internet
	Seg     *sim.Segment
	NAT     *nat.NAT
	Parent  *Realm
	nameGen int
}

// CoreRealm returns the public realm.
func (i *Internet) CoreRealm() *Realm {
	return &Realm{in: i, Seg: i.Core}
}

// AddHost attaches a host at addr with the given OS flavor.
func (r *Realm) AddHost(name, addr string, flavor host.OSFlavor) *host.Host {
	h := host.New(r.in.Net, name, flavor)
	h.Attach(r.Seg, inet.MustParseAddr(addr))
	return h
}

// AddSite creates a NAT with its outside interface at outsideAddr on
// this realm and a fresh private segment behind it, returning the
// inner realm. Nested calls produce the multi-level topologies of
// Figure 6.
func (r *Realm) AddSite(name string, b nat.Behavior, outsideAddr, lanCIDR string) *Realm {
	r.nameGen++
	n := nat.New(r.in.Net, name, b)
	lan := r.in.Net.NewSegment(fmt.Sprintf("%s-lan", name), lanCIDR, LANLatency)
	// Inside gateway address: last usable address of the subnet is
	// uninteresting; use .254-style convention via the prefix.
	prefix := inet.MustParsePrefix(lanCIDR)
	gwAddr := prefix.Nth(254 % (1 << (32 - prefix.Bits)))
	n.AttachInside(lan, gwAddr)
	n.AttachOutside(r.Seg, inet.MustParseAddr(outsideAddr))
	return &Realm{in: r.in, Seg: lan, NAT: n, Parent: r}
}

// Canonical builds the paper's Figure 5 topology with its exact
// addresses: server S at 18.181.0.31, client A at 10.0.0.1 behind
// NAT A (155.99.25.11), client B at 10.1.1.3 behind NAT B
// (138.76.29.7).
type Canonical struct {
	*Internet
	S      *host.Host
	A, B   *host.Host
	NATA   *nat.NAT
	NATB   *nat.NAT
	RealmA *Realm
	RealmB *Realm
}

// NewCanonical builds the Figure 5 topology with the given NAT
// behaviors.
func NewCanonical(seed int64, behaviorA, behaviorB nat.Behavior) *Canonical {
	in := NewInternet(seed)
	core := in.CoreRealm()
	c := &Canonical{Internet: in}
	c.S = core.AddHost("S", "18.181.0.31", host.BSDStyle)
	c.RealmA = core.AddSite("NAT-A", behaviorA, "155.99.25.11", "10.0.0.0/24")
	c.RealmB = core.AddSite("NAT-B", behaviorB, "138.76.29.7", "10.1.1.0/24")
	c.NATA = c.RealmA.NAT
	c.NATB = c.RealmB.NAT
	c.A = c.RealmA.AddHost("A", "10.0.0.1", host.BSDStyle)
	c.B = c.RealmB.AddHost("B", "10.1.1.3", host.BSDStyle)
	return c
}

// CommonNAT builds the Figure 4 topology: both clients behind one
// NAT, on one private segment.
type CommonNAT struct {
	*Internet
	S    *host.Host
	A, B *host.Host
	NAT  *nat.NAT
	LAN  *Realm
}

// NewCommonNAT builds the Figure 4 topology.
func NewCommonNAT(seed int64, b nat.Behavior) *CommonNAT {
	in := NewInternet(seed)
	core := in.CoreRealm()
	c := &CommonNAT{Internet: in}
	c.S = core.AddHost("S", "18.181.0.31", host.BSDStyle)
	c.LAN = core.AddSite("NAT", b, "155.99.25.11", "10.0.0.0/24")
	c.NAT = c.LAN.NAT
	c.A = c.LAN.AddHost("A", "10.0.0.1", host.BSDStyle)
	c.B = c.LAN.AddHost("B", "10.0.0.2", host.BSDStyle)
	return c
}

// MultiLevel builds the Figure 6 topology: an ISP-level NAT C at
// 155.99.25.11 multiplexing an ISP-private realm (10.0.1.0/24), with
// consumer NATs A and B at 10.0.1.1 and 10.0.1.2 and clients at
// 10.0.0.1 and 10.1.1.3 respectively.
type MultiLevel struct {
	*Internet
	S          *host.Host
	A, B       *host.Host
	NATC       *nat.NAT
	NATA, NATB *nat.NAT
}

// NewMultiLevel builds the Figure 6 topology. behaviorC governs the
// ISP NAT (hairpin support there is what the scenario tests).
func NewMultiLevel(seed int64, behaviorC, behaviorA, behaviorB nat.Behavior) *MultiLevel {
	in := NewInternet(seed)
	core := in.CoreRealm()
	m := &MultiLevel{Internet: in}
	m.S = core.AddHost("S", "18.181.0.31", host.BSDStyle)
	ispRealm := core.AddSite("NAT-C", behaviorC, "155.99.25.11", "10.0.1.0/24")
	m.NATC = ispRealm.NAT
	realmA := ispRealm.AddSite("NAT-A", behaviorA, "10.0.1.1", "10.0.0.0/24")
	realmB := ispRealm.AddSite("NAT-B", behaviorB, "10.0.1.2", "10.1.1.0/24")
	m.NATA = realmA.NAT
	m.NATB = realmB.NAT
	m.A = realmA.AddHost("A", "10.0.0.1", host.BSDStyle)
	m.B = realmB.AddHost("B", "10.1.1.3", host.BSDStyle)
	return m
}
