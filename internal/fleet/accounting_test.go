package fleet

import (
	"testing"
	"time"
)

// TestSessionAccountingConsistent pins the concurrency counter
// against ground truth: after a churn-heavy run (crossing punches,
// replacements, departures mid-attempt, relay deaths), sessionsOpen
// must equal a recount of live initiated sessions (regression: an
// inbound session replacing an initiated one used to leave a stale
// initiated flag behind, double-decrementing on its death). Every
// live record must also be its peer's current session, and an offline
// peer must hold none.
func TestSessionAccountingConsistent(t *testing.T) {
	cfg := Config{
		Peers:            50,
		Duration:         10 * time.Minute,
		MeanArrival:      time.Second,
		MeanLifetime:     90 * time.Second,
		MeanRejoin:       30 * time.Second,
		MeanConnectEvery: 10 * time.Second,
	}
	for seed := int64(1); seed <= 4; seed++ {
		f := build(seed, cfg)
		f.in.Net.Sched.RunUntil(f.cfg.Duration)
		want := 0
		for _, p := range f.peers {
			if !p.online && len(p.live) != 0 {
				t.Errorf("seed %d: offline %s still holds %d live sessions", seed, p.name, len(p.live))
			}
			for q, ls := range p.live {
				if ls.initiated {
					want++
				}
				if p.client == nil || p.client.LookupUDPSession(q) != ls.s {
					t.Errorf("seed %d: %s's live record for %s is not its current session", seed, p.name, q)
				}
			}
		}
		if f.sessionsOpen != want {
			t.Errorf("seed %d: sessionsOpen=%d but recount says %d", seed, f.sessionsOpen, want)
		}
		f.finish()
		if f.rep.PeakSessions < want {
			t.Errorf("seed %d: peak %d below final live count %d", seed, f.rep.PeakSessions, want)
		}
	}
}
