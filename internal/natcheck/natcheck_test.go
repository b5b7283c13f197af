package natcheck_test

import (
	"testing"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/nat"
	"natpunch/internal/natcheck"
	"natpunch/internal/topo"
)

// check runs NAT Check against a client behind the given behavior
// (nil = no NAT at all: the lab's servers with C on the core).
func check(t *testing.T, behavior *nat.Behavior) natcheck.Report {
	t.Helper()
	if behavior != nil {
		lab, err := natcheck.NewLab(1, *behavior)
		if err != nil {
			t.Fatal(err)
		}
		report, ok := lab.Run()
		if !ok {
			t.Fatal("NAT Check did not complete")
		}
		return report
	}
	in := topo.NewInternet(1)
	core := in.CoreRealm()
	sv := newServers(t, core)
	client := core.AddHost("C", "155.99.25.80", host.BSDStyle)
	var report natcheck.Report
	got := false
	if err := natcheck.Run(client, sv, 4321, func(r natcheck.Report) { report, got = r, true }); err != nil {
		t.Fatal(err)
	}
	in.RunFor(natcheck.CheckDuration + 10e9)
	if !got {
		t.Fatal("NAT Check did not complete")
	}
	return report
}

// newServers puts NAT Check's three servers on the core at the lab's
// addresses.
func newServers(t *testing.T, core *topo.Realm) *natcheck.Servers {
	t.Helper()
	sv, err := natcheck.NewServers(
		core.AddHost("s1", "18.181.0.31", host.BSDStyle),
		core.AddHost("s2", "18.181.0.32", host.BSDStyle),
		core.AddHost("s3", "18.181.0.33", host.BSDStyle))
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

func bp(b nat.Behavior) *nat.Behavior { return &b }

// runUDP runs RunUDP from a client behind a NAT with behavior b and
// returns the report and the NAT's live mappings once it arrived.
func runUDP(t *testing.T, b nat.Behavior) (natcheck.Report, int) {
	t.Helper()
	in := topo.NewInternet(1)
	core := in.CoreRealm()
	sv := newServers(t, core)
	site := core.AddSite("NAT", b, "155.99.25.11", "10.0.0.0/24")
	client := site.AddHost("C", "10.0.0.1", host.BSDStyle)
	var report natcheck.Report
	got := false
	if err := natcheck.RunUDP(client, sv, 4321, func(r natcheck.Report) { report, got = r, true }); err != nil {
		t.Fatal(err)
	}
	in.RunFor(5 * time.Second)
	if !got {
		t.Fatal("RunUDP did not report")
	}
	return report, site.NAT.MappingCount()
}

// TestRunUDP checks the UDP phase alone: behind a sequential symmetric
// NAT the two servers see consecutive ports, and the NAT holds exactly
// the two mappings the report shows; behind a cone they agree.
func TestRunUDP(t *testing.T) {
	r, mappings := runUDP(t, nat.Symmetric())
	if !r.UDPResponded || r.UDPConsistent {
		t.Errorf("symmetric NAT: responded=%v consistent=%v, want true false", r.UDPResponded, r.UDPConsistent)
	}
	if stride := int(r.UDPPublic2.Port) - int(r.UDPPublic1.Port); stride != 1 {
		t.Errorf("stride = %d (%v then %v), want 1", stride, r.UDPPublic1, r.UDPPublic2)
	}
	if mappings != 2 {
		t.Errorf("symmetric NAT holds %d mappings, want 2", mappings)
	}
	if r, _ := runUDP(t, nat.Cone()); !r.UDPResponded || !r.UDPConsistent {
		t.Errorf("cone NAT: responded=%v consistent=%v, want true true", r.UDPResponded, r.UDPConsistent)
	}
}

func TestNATCheckWellBehaved(t *testing.T) {
	r := check(t, bp(nat.WellBehaved()))
	if !r.SupportsUDPPunch() {
		t.Errorf("well-behaved NAT should support UDP punching: %+v", r)
	}
	if !r.SupportsTCPPunch() {
		t.Errorf("well-behaved NAT should support TCP punching: %+v", r)
	}
	if !r.UDPFilters {
		t.Error("port-restricted NAT should filter server 3's reply")
	}
	if !r.UDPHairpin || !r.TCPHairpin {
		t.Errorf("hairpin not detected: udp=%v tcp=%v", r.UDPHairpin, r.TCPHairpin)
	}
	if r.SYNBehavior != natcheck.SYNDropped {
		t.Errorf("SYN behavior = %v, want dropped", r.SYNBehavior)
	}
}

func TestNATCheckCone(t *testing.T) {
	r := check(t, bp(nat.Cone()))
	if !r.SupportsUDPPunch() || !r.SupportsTCPPunch() {
		t.Errorf("cone NAT should support punching: %+v", r)
	}
	if r.UDPHairpin || r.TCPHairpin {
		t.Error("cone preset has no hairpin, but NAT Check saw it")
	}
}

func TestNATCheckFullCone(t *testing.T) {
	r := check(t, bp(nat.FullCone()))
	if !r.SupportsUDPPunch() {
		t.Errorf("full-cone should punch: %+v", r)
	}
	if r.UDPFilters {
		t.Error("full cone must not filter server 3's unsolicited reply")
	}
	if r.SYNBehavior != natcheck.SYNAllowedThrough {
		t.Errorf("SYN behavior = %v, want allowed-through", r.SYNBehavior)
	}
	if !r.SupportsTCPPunch() {
		t.Error("allowed-through is punch-compatible (§6.1.2)")
	}
}

func TestNATCheckSymmetric(t *testing.T) {
	r := check(t, bp(nat.Symmetric()))
	if r.SupportsUDPPunch() {
		t.Errorf("symmetric NAT must fail the consistency test: %+v", r)
	}
	if r.UDPConsistent || r.TCPConsistent {
		t.Error("symmetric NAT reported consistent endpoints")
	}
	if r.SupportsTCPPunch() {
		t.Error("symmetric NAT must not be TCP-punch compatible")
	}
}

func TestNATCheckRSTNAT(t *testing.T) {
	r := check(t, bp(nat.RSTCone()))
	if !r.SupportsUDPPunch() {
		t.Error("RST cone still supports UDP punching")
	}
	if r.SYNBehavior != natcheck.SYNRejected {
		t.Errorf("SYN behavior = %v, want rejected", r.SYNBehavior)
	}
	if r.SupportsTCPPunch() {
		t.Error("§6.2: RST-sending NATs are counted TCP-punch incompatible")
	}
}

func TestNATCheckNoNAT(t *testing.T) {
	r := check(t, nil)
	if !r.UDPConsistent || !r.TCPConsistent {
		t.Errorf("no-NAT client inconsistent: %+v", r)
	}
	if r.UDPFilters {
		t.Error("no NAT, nothing filters")
	}
	// The public host answers its own hairpin probe trivially (there
	// is no NAT to loop through; the packet goes straight to the
	// socket).
	if !r.UDPHairpin {
		t.Error("loopback-to-self should deliver")
	}
}

func TestNATCheckHairpinFilteredPessimism(t *testing.T) {
	// §6.3: NAT Check under-reports hairpin on NATs that filter
	// hairpin traffic like inbound traffic, even though full two-way
	// punches would work. Our reproduction shows the same pessimism.
	b := nat.WellBehaved()
	b.HairpinFiltered = true
	r := check(t, bp(b))
	if r.UDPHairpin {
		t.Error("hairpin-filtering NAT should fail NAT Check's one-way hairpin probe")
	}
}

func TestNATCheckBehaviorMatrix(t *testing.T) {
	// Every mapping/filtering/refusal combination must classify
	// according to the paper's criteria: punch support == consistent
	// mapping (UDP) plus non-RST refusal (TCP).
	for _, mapping := range []nat.MappingPolicy{
		nat.MappingEndpointIndependent, nat.MappingAddressDependent, nat.MappingAddressPortDependent,
	} {
		for _, filtering := range []nat.FilteringPolicy{
			nat.FilterEndpointIndependent, nat.FilterAddressDependent, nat.FilterAddressPortDependent,
		} {
			for _, refusal := range []nat.TCPRefusal{nat.RefuseDrop, nat.RefuseRST} {
				b := nat.Behavior{
					Label: "matrix", Mapping: mapping, Filtering: filtering,
					PortAlloc: nat.PortSequential, TCPRefusal: refusal,
				}
				r := check(t, &b)
				if got, want := r.SupportsUDPPunch(), b.SupportsUDPPunch(); got != want {
					t.Errorf("%v/%v/%v: UDP punch detected=%v want %v", mapping, filtering, refusal, got, want)
				}
				if got, want := r.SupportsTCPPunch(), b.SupportsTCPPunch(); got != want {
					t.Errorf("%v/%v/%v: TCP punch detected=%v want %v", mapping, filtering, refusal, got, want)
				}
			}
		}
	}
}
