package natcheck

import (
	"time"

	"natpunch/internal/host"
	"natpunch/internal/nat"
	"natpunch/internal/sim"
	"natpunch/internal/topo"
)

// Lab is the measurement topology of §6.1 in a fresh simulated world:
// servers s1–s3 at 18.181.0.31–.33 on the core, and client C at
// 10.0.0.1 behind the NAT under test at 155.99.25.11.
type Lab struct {
	// Net is the lab's fabric, exposed so a recorder can attach
	// before Run.
	Net *sim.Network

	sv     *Servers
	client *host.Host
}

// NewLab builds the lab for one device with the given behavior.
func NewLab(seed int64, b nat.Behavior) (*Lab, error) {
	in := topo.NewInternet(seed)
	core := in.CoreRealm()
	s1 := core.AddHost("s1", "18.181.0.31", host.BSDStyle)
	s2 := core.AddHost("s2", "18.181.0.32", host.BSDStyle)
	s3 := core.AddHost("s3", "18.181.0.33", host.BSDStyle)
	sv, err := NewServers(s1, s2, s3)
	if err != nil {
		return nil, err
	}
	realm := core.AddSite("NAT", b, "155.99.25.11", "10.0.0.0/24")
	client := realm.AddHost("C", "10.0.0.1", host.BSDStyle)
	return &Lab{Net: in.Net, sv: sv, client: client}, nil
}

// Run runs the check from C on port 4321 to its end and returns the
// report; ok is false when the check could not start or never
// reported.
func (l *Lab) Run() (r Report, ok bool) {
	if err := Run(l.client, l.sv, 4321, func(got Report) { r, ok = got, true }); err != nil {
		return Report{}, false
	}
	l.Net.Sched.RunFor(CheckDuration + 10*time.Second)
	return r, ok
}
