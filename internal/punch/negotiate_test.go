package punch_test

import (
	"testing"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/ice"
	"natpunch/internal/nat"
	"natpunch/internal/punch"
	"natpunch/internal/topo"
)

// Negotiation rigs: the duo of punch_test.go with both clients
// registered, and the outcome of one Connect.

// fastCfg bounds negotiations at 3s with the relay floor on.
func fastCfg() punch.Config {
	return punch.Config{
		PunchTimeout:  3 * time.Second,
		RelayFallback: true,
	}
}

// flatDuo builds the Figure 5 pair with both clients registered.
func flatDuo(t *testing.T, seed int64, behA, behB nat.Behavior, cfg punch.Config) *duo {
	t.Helper()
	d := newDuo(t, seed, behA, behB, cfg)
	d.registerUDP(t)
	return d
}

// publicDuo puts S and both peers on the public core, un-NATed: each
// peer advertises one candidate, checked at once, and every datagram
// reaches its addressee.
func publicDuo(t *testing.T, seed int64) *duo {
	t.Helper()
	in := topo.NewInternet(seed)
	core := in.CoreRealm()
	d := duoOn(t, &topo.Canonical{
		Internet: in,
		S:        core.AddHost("S", "18.181.0.31", host.BSDStyle),
		A:        core.AddHost("A", "155.99.25.80", host.BSDStyle),
		B:        core.AddHost("B", "138.76.29.9", host.BSDStyle),
	}, fastCfg())
	d.registerUDP(t)
	return d
}

// await runs the simulation until cond holds or window passes, and
// reports whether cond holds.
func (d *duo) await(window time.Duration, cond func() bool) bool {
	sched := d.Net.Sched
	deadline := sched.Now() + window
	sched.RunWhile(func() bool { return !cond() && sched.Now() < deadline })
	return cond()
}

// outcome is the observed result of one negotiation.
type outcome struct {
	ok       bool
	failed   bool
	err      error
	chosen   ice.Candidate
	session  *punch.UDPSession
	elapsed  time.Duration
	bSession *punch.UDPSession
	bOK      bool
}

// negotiate runs alice -> bob and waits for both sides (or failure).
func (d *duo) negotiate(window time.Duration) outcome {
	var out outcome
	start := d.Net.Sched.Now()
	d.b.InboundUDP = punch.UDPCallbacks{
		Established: func(s *punch.UDPSession, _ ice.Candidate) { out.bOK, out.bSession = true, s },
	}
	d.a.Connect("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession, chosen ice.Candidate) {
			out.ok, out.chosen, out.session = true, chosen, s
			out.elapsed = d.Net.Sched.Now() - start
		},
		Failed: func(peer string, err error) { out.failed, out.err = true, err },
	})
	d.await(window, func() bool { return (out.ok && (out.bOK || out.chosen.Kind == ice.KindRelay)) || out.failed })
	return out
}
