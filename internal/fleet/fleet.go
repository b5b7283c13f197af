// Package fleet is the population-scale churn simulator: it spawns N
// sites whose topologies and NAT behaviors are drawn from seeded
// weighted mixes (defaulting to flat sites over the Table 1 vendor
// survey marginals), registers every peer with one rendezvous server,
// and drives a churn process — exponential arrivals and departures,
// random pairwise connection attempts, §3.6 keep-alive traffic, idle
// session death with on-demand re-punching, and §2.2 relay fallback
// for pairs that cannot punch.
//
// Sites come in three shapes (SiteShape): flat one-peer NATs
// (Figure 5), multi-peer sites sharing one NAT (Figure 4), and
// CGN sites nesting per-peer home NATs under an ISP-level NAT
// (Figure 6) — with or without hairpin support. Every attempt is a
// candidate negotiation (punch.Client.Connect), and outcomes
// are attributed both to the NAT-pair class and to the pair's
// topology class, by nominated candidate type.
//
// Everything runs on a single sim.Scheduler/sim.Network, so a run is
// bit-for-bit reproducible from its seed: the large-scale DCUtR-style
// measurement campaigns that followed the paper (see PAPERS.md) become
// deterministic regression workloads here. One Report aggregates
// fleet-level metrics: punch success by NAT-pair and topology class,
// time-to-establish quantiles, rendezvous/relay server load, and the
// concurrent-session high-water mark.
package fleet

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/ice"
	"natpunch/internal/inet"
	"natpunch/internal/nat"
	"natpunch/internal/punch"
	"natpunch/internal/rendezvous"
	"natpunch/internal/topo"
)

// Config shapes a fleet run. Zero values take defaults.
type Config struct {
	// Peers is the total population (sites built at setup; each joins
	// the overlay at its arrival time). Default 100.
	Peers int
	// Servers is the size of the federated rendezvous tier (default
	// 1). Servers are full-meshed at startup; every peer's home
	// server is chosen by stable rendezvous hashing of its name, and
	// the rest of the tier is its failover pool.
	Servers int
	// KillServerAt, when positive, closes server 0's sockets at that
	// simulated time — the mid-run failure the failover machinery
	// must absorb. Peers homed there re-home to the next server in
	// their preference order after their keep-alive grace.
	KillServerAt time.Duration
	// PublicFraction is the probability that a peer is un-NATed
	// (attached directly to the public core). Default 0.
	PublicFraction float64
	// Mix is the weighted NAT behavior mix for NATed peers. Default
	// Table1Mix().
	Mix []Weighted
	// Topology is the weighted site-shape mix. Default FlatOnly().
	Topology []SiteShape

	// Duration is the simulated run length. Default 10 minutes.
	Duration time.Duration
	// MeanArrival is the mean inter-arrival gap of the Poisson-style
	// arrival process. Default Duration/(4*Peers), so the population
	// ramps up over roughly the first quarter of the run.
	MeanArrival time.Duration
	// MeanLifetime is the mean online time before a peer departs.
	// Default Duration/2.
	MeanLifetime time.Duration
	// MeanRejoin is the mean offline time before a departed peer
	// re-registers. Zero means departures are permanent.
	MeanRejoin time.Duration
	// MeanConnectEvery is the mean gap between one peer's punch
	// attempts toward random online peers. Default 30 seconds.
	MeanConnectEvery time.Duration
	// AppDataEvery paces application ping/pong traffic on established
	// sessions (this is what keeps relay sessions alive and loads the
	// relay path of §2.2). Default 20 seconds.
	AppDataEvery time.Duration

	// MeanRebindEvery, when positive, power-cycles each site NAT on an
	// exponential clock with this mean: the device loses its whole
	// translation table at once (the consumer-NAT failure mode behind
	// §3.6's re-punch advice), so live direct sessions must fail back
	// to the relay and re-punch fresh mappings to survive.
	MeanRebindEvery time.Duration

	// Punch tunes the punching clients. RelayFallback is forced on
	// unless NoRelay is set; other zero fields take punch defaults
	// (10s punch timeout, 15s keep-alives, 60s idle death).
	// Punch.RelayFirst switches every dial to DCUtR-style relay-first
	// connect: sessions establish on the §2.2 relay within about one
	// rendezvous round-trip and migrate to a punched direct path in
	// the background; the report's Upgrades/Failbacks/UpgradeTimes
	// columns account the resulting live-path churn.
	// Punch.ICE ablates candidate types from every negotiation.
	Punch   punch.Config
	NoRelay bool
}

func (c Config) withDefaults() Config {
	if c.Peers == 0 {
		c.Peers = 100
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Minute
	}
	if c.MeanArrival == 0 {
		c.MeanArrival = c.Duration / time.Duration(4*c.Peers)
	}
	if c.MeanLifetime == 0 {
		c.MeanLifetime = c.Duration / 2
	}
	if c.MeanConnectEvery == 0 {
		c.MeanConnectEvery = 30 * time.Second
	}
	if c.AppDataEvery == 0 {
		c.AppDataEvery = 20 * time.Second
	}
	if c.Servers == 0 {
		c.Servers = 1
	}
	if c.Mix == nil {
		c.Mix = Table1Mix()
	}
	if c.Topology == nil {
		c.Topology = FlatOnly()
	}
	c.Punch.RelayFallback = !c.NoRelay
	return c
}

// serverPort is the rendezvous server's well-known port.
const serverPort inet.Port = 1234

// clientPort is every peer's local UDP port (distinct sites, so no
// conflicts; matching the paper's 4321 examples).
const clientPort inet.Port = 4321

// peer is one fleet member: its place in a site and its churn state.
type peer struct {
	f     *Fleet
	name  string
	class Class
	label string // behavior label for traces
	host  *host.Host

	// site groups peers that share topology (-1 for un-NATed public
	// peers, which are always "cross" to everyone); siteKind is the
	// site's shape.
	site     int
	siteKind SiteKind

	client     *punch.Client
	online     bool
	everJoined bool
	onlinePos  int // index into Fleet.online while online
	gen        int // bumped on every departure; stale timers check it

	// live holds the current session to each peer, both directions.
	live map[string]*liveSession
	// inflight maps target name -> stat keys for outstanding attempts.
	inflight map[string]attemptKeys
}

// liveSession is one peer's record of a live session: the session's
// callbacks and ping clock carry it, and act only while it is still
// the peer's current record for that remote peer.
type liveSession struct {
	s *punch.UDPSession
	// initiated marks sessions this peer dialed (the metrics side).
	initiated bool
	// born is when an initiated session was established, so a server
	// kill can be audited: direct sessions established before the
	// kill must survive it (they are peer-to-peer; only transient
	// sessions from the failover window may die).
	born time.Duration
	// upgraded marks an initiated session whose first relay->direct
	// migration has been timed, so UpgradeTimes holds one latency per
	// session even when rebind churn cycles it through failbacks.
	upgraded bool
}

// attemptKeys addresses the stat rows an in-flight attempt will land
// in, so abandonment can account against both.
type attemptKeys struct {
	pair string
	topo string
}

// Fleet owns one run. Construct with Run.
type Fleet struct {
	cfg  Config
	in   *topo.Internet
	srvs []*rendezvous.Server
	eps  []inet.Endpoint
	rng  *rand.Rand

	peers  []*peer
	byName map[string]*peer
	online []*peer

	pairs        map[string]*PairStat
	topos        map[string]*TopoStat
	rep          Report
	sessionsOpen int
	// nats collects every leaf site NAT for MeanRebindEvery churn.
	nats []*nat.NAT
}

// Run executes one fleet simulation and returns its aggregate report.
// The same (seed, cfg) always produces an identical Report.
func Run(seed int64, cfg Config) Report {
	f := build(seed, cfg)
	f.in.Net.Sched.RunUntil(f.cfg.Duration)
	f.finish()
	return f.rep
}

// build constructs the topology (core, the federated rendezvous
// tier, every site) and schedules the arrival process.
func build(seed int64, cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	in := topo.NewInternet(seed)
	core := in.CoreRealm()
	f := &Fleet{
		cfg:    cfg,
		in:     in,
		rng:    in.Net.Sched.Rand(),
		byName: make(map[string]*peer),
		pairs:  make(map[string]*PairStat),
		topos:  make(map[string]*TopoStat),
	}
	f.rep.Seed = seed
	// The rendezvous tier: cfg.Servers hosts at consecutive public
	// addresses, federated as a full mesh before any peer arrives.
	for i := 0; i < cfg.Servers; i++ {
		s := core.AddHost(fmt.Sprintf("S%d", i),
			inet.AddrFrom4(18, 181, 0, byte(31+i)).String(), host.BSDStyle)
		srv, err := rendezvous.NewOver(s.Transport(), serverPort, 0)
		if err != nil {
			panic(err)
		}
		f.srvs = append(f.srvs, srv)
		f.eps = append(f.eps, srv.Endpoint())
	}
	for i, srv := range f.srvs {
		for j, ep := range f.eps {
			if i != j {
				srv.Join(ep)
			}
		}
	}
	if cfg.KillServerAt > 0 {
		in.Net.Sched.At(cfg.KillServerAt, func() {
			f.srvs[0].Close()
			f.rep.ServerKilledAt = cfg.KillServerAt
		})
	}

	mixTotal := 0
	for _, w := range cfg.Mix {
		mixTotal += w.Weight
	}
	topoTotal := 0
	for _, sh := range cfg.Topology {
		topoTotal += sh.Weight
	}

	// Site-based construction: public peers take one slot each; NATed
	// peers are grouped by drawn site shapes until the population is
	// filled. Public addresses come from one allocator shared by
	// public hosts and site NATs.
	base := inet.AddrFrom4(20, 0, 0, 0)
	nextPub := 0
	pubAddr := func() inet.Addr { nextPub++; return base + inet.Addr(nextPub) }
	newPeer := func() *peer {
		p := &peer{
			f:        f,
			name:     fmt.Sprintf("p%d", len(f.peers)),
			site:     -1,
			live:     make(map[string]*liveSession),
			inflight: make(map[string]attemptKeys),
		}
		f.peers = append(f.peers, p)
		f.byName[p.name] = p
		return p
	}
	site := 0
	for len(f.peers) < cfg.Peers {
		if f.rng.Float64() < cfg.PublicFraction {
			p := newPeer()
			p.class = ClassPublic
			p.label = "public"
			p.host = core.AddHost(p.name, pubAddr().String(), host.BSDStyle)
			continue
		}
		shape := drawShape(f.rng, cfg.Topology, topoTotal)
		k := shape.hosts()
		if rem := cfg.Peers - len(f.peers); k > rem {
			k = rem
		}
		switch shape.Kind {
		case SiteCGN:
			// Figure 6: one ISP NAT over k home NATs, one peer each.
			// The ISP realm must not overlap the home subnets, or the
			// home NATs would route hairpin traffic as local.
			cgnName := fmt.Sprintf("cgn%d", site)
			isp := core.AddSite(cgnName, shape.CGN, pubAddr().String(), "172.16.0.0/24")
			for j := 0; j < k; j++ {
				p := newPeer()
				b := drawMix(f.rng, cfg.Mix, mixTotal)
				p.class = Classify(b)
				p.label = b.Label
				p.site, p.siteKind = site, SiteCGN
				home := isp.AddSite(fmt.Sprintf("%s-nat%d", cgnName, j), b,
					inet.AddrFrom4(172, 16, 0, byte(j+1)).String(), "10.0.0.0/24")
				f.nats = append(f.nats, home.NAT)
				p.host = home.AddHost(p.name, "10.0.0.1", host.BSDStyle)
			}
		default:
			// Flat (k == 1) or shared (Figure 4): k peers on one
			// private segment behind one NAT. Hosts get distinct
			// private addresses, so private candidates distinguish
			// same-site peers.
			b := drawMix(f.rng, cfg.Mix, mixTotal)
			realm := core.AddSite(fmt.Sprintf("site%d", site), b, pubAddr().String(), "10.0.0.0/24")
			f.nats = append(f.nats, realm.NAT)
			for j := 0; j < k; j++ {
				p := newPeer()
				p.class = Classify(b)
				p.label = b.Label
				p.site, p.siteKind = site, shape.Kind
				p.host = realm.AddHost(p.name, inet.AddrFrom4(10, 0, 0, byte(j+1)).String(), host.BSDStyle)
			}
		}
		site++
	}

	// Poisson-style arrival schedule: exponential inter-arrival gaps.
	t := time.Duration(0)
	for _, p := range f.peers {
		t += f.expDur(cfg.MeanArrival)
		p := p
		f.in.Net.Sched.At(t, func() { f.arrive(p) })
	}

	// NAT rebind churn: each leaf site NAT power-cycles on its own
	// exponential clock, dropping every mapping at once.
	if cfg.MeanRebindEvery > 0 {
		for _, dev := range f.nats {
			dev := dev
			var cycle func()
			cycle = func() {
				dev.Rebind()
				f.rep.NATRebinds++
				f.in.Net.Sched.After(f.expDur(cfg.MeanRebindEvery), cycle)
			}
			f.in.Net.Sched.After(f.expDur(cfg.MeanRebindEvery), cycle)
		}
	}
	return f
}

// drawMix picks a behavior by cumulative weight.
func drawMix(rng *rand.Rand, mix []Weighted, total int) nat.Behavior {
	n := rng.Intn(total)
	for _, w := range mix {
		if n < w.Weight {
			return w.Behavior
		}
		n -= w.Weight
	}
	return mix[len(mix)-1].Behavior
}

// drawShape picks a site shape by cumulative weight.
func drawShape(rng *rand.Rand, shapes []SiteShape, total int) SiteShape {
	n := rng.Intn(total)
	for _, sh := range shapes {
		if n < sh.Weight {
			return sh
		}
		n -= sh.Weight
	}
	return shapes[len(shapes)-1]
}

// expDur draws an exponentially distributed duration with the given
// mean from the simulation's deterministic source.
func (f *Fleet) expDur(mean time.Duration) time.Duration {
	return time.Duration(f.rng.ExpFloat64() * float64(mean))
}

// --- lifecycle ---

// arrive brings a peer online: a fresh punching client registers with
// S; on success the peer starts its connect/departure clocks.
func (f *Fleet) arrive(p *peer) {
	if p.online || p.client != nil {
		return
	}
	if p.everJoined {
		f.rep.Rejoins++
	} else {
		f.rep.Arrivals++
		p.everJoined = true
	}
	order := rendezvous.Preference(p.name, f.eps)
	c := punch.NewClientOver(p.host.Transport(), p.name, order[0], f.cfg.Punch)
	if len(order) > 1 {
		c.SetServerPool(order)
	}
	p.client = c
	c.InboundUDP = punch.UDPCallbacks{
		Established: func(s *punch.UDPSession, _ ice.Candidate) { f.adopt(p, s, false) },
		Data:        func(s *punch.UDPSession, payload []byte) { f.appData(p, s, payload) },
	}
	if err := c.RegisterUDP(clientPort, func(err error) {
		if err != nil {
			f.closeClient(p)
			return
		}
		f.registered(p)
	}); err != nil {
		panic(err)
	}
}

// closeClient closes p's client and banks its re-homings in the report.
func (f *Fleet) closeClient(p *peer) {
	f.rep.Failovers += p.client.Failovers
	p.client.Close()
	p.client = nil
}

func (f *Fleet) registered(p *peer) {
	p.online = true
	p.onlinePos = len(f.online)
	f.online = append(f.online, p)
	if len(f.online) > f.rep.PeakOnline {
		f.rep.PeakOnline = len(f.online)
	}
	gen := p.gen
	f.in.Net.Sched.After(f.expDur(f.cfg.MeanLifetime), func() { f.depart(p, gen) })
	f.in.Net.Sched.After(f.expDur(f.cfg.MeanConnectEvery), func() { f.tick(p, gen) })
}

// depart takes a peer offline: its client (sessions, timers, socket)
// closes, in-flight attempts are abandoned, and — when the config
// allows — a rejoin is scheduled.
func (f *Fleet) depart(p *peer, gen int) {
	if !p.online || p.gen != gen {
		return
	}
	p.online = false
	p.gen++
	f.rep.Departures++

	// Swap-delete from the online list.
	last := len(f.online) - 1
	f.online[p.onlinePos] = f.online[last]
	f.online[p.onlinePos].onlinePos = p.onlinePos
	f.online = f.online[:last]

	// Abandoned attempts get no outcome callback once the client
	// closes; account for them now (pure commutative increments, so
	// map order does not matter).
	for _, keys := range p.inflight {
		for _, o := range f.rows(keys) {
			o.Abandoned++
		}
	}
	clear(p.inflight)
	for _, ls := range p.live {
		if ls.initiated {
			f.sessionsOpen--
		}
	}
	clear(p.live)
	f.closeClient(p)

	if f.cfg.MeanRejoin > 0 {
		f.in.Net.Sched.After(f.expDur(f.cfg.MeanRejoin), func() { f.arrive(p) })
	}
}

// tick is one beat of a peer's connect clock: pick a random online
// peer and punch toward it, then reschedule.
func (f *Fleet) tick(p *peer, gen int) {
	if !p.online || p.gen != gen {
		return
	}
	f.in.Net.Sched.After(f.expDur(f.cfg.MeanConnectEvery), func() { f.tick(p, gen) })
	if len(f.online) < 2 {
		return
	}
	q := f.online[f.rng.Intn(len(f.online))]
	if q == p || p.live[q.name] != nil {
		return
	}
	if _, busy := p.inflight[q.name]; busy {
		return
	}
	f.attempt(p, q)
}

// attempt starts one candidate negotiation from p toward q and wires
// the outcome into the pair-class and topology-class stats.
func (f *Fleet) attempt(p, q *peer) {
	keys := attemptKeys{pair: PairKey(p.class, q.class), topo: topoClass(p, q)}
	rows := f.rows(keys)
	for _, o := range rows {
		o.Attempts++
	}
	p.inflight[q.name] = keys
	start := f.in.Net.Sched.Now()
	p.client.Connect(q.name, punch.UDPCallbacks{
		Established: func(s *punch.UDPSession, chosen ice.Candidate) {
			delete(p.inflight, q.name)
			elapsed := f.in.Net.Sched.Now() - start
			for _, o := range rows {
				o.add(chosen.Kind, elapsed)
			}
			// ConnectTimes is kind-agnostic: under RelayFirst it
			// captures the headline relay-first latency (~one relay
			// round-trip), while Times keeps its direct-only meaning.
			f.rep.ConnectTimes = append(f.rep.ConnectTimes, elapsed)
			f.adopt(p, s, true)
		},
		Failed: func(string, error) {
			delete(p.inflight, q.name)
			for _, o := range rows {
				o.Failed++
			}
		},
		Data: func(s *punch.UDPSession, payload []byte) { f.appData(p, s, payload) },
	})
}

// rows returns the three outcome rows an attempt is counted in: its
// NAT-pair class, its topology class, and the fleet-wide total.
func (f *Fleet) rows(keys attemptKeys) [3]*Outcomes {
	return [3]*Outcomes{&f.pair(keys.pair).Outcomes, &f.topo(keys.topo).Outcomes, &f.rep.Outcomes}
}

// adopt registers a live session with its local peer: concurrency
// accounting, idle-death watching, and — for the initiating side —
// the application ping clock.
func (f *Fleet) adopt(p *peer, s *punch.UDPSession, initiated bool) {
	if prev := p.live[s.Peer]; prev != nil && prev.initiated {
		// A crossing punch replaced an existing initiated session; undo
		// its accounting so the replacement (whichever direction it
		// came from) starts from a clean slate.
		f.sessionsOpen--
	}
	ls := &liveSession{s: s, initiated: initiated}
	p.live[s.Peer] = ls
	if initiated {
		f.sessionsOpen++
		if f.sessionsOpen > f.rep.PeakSessions {
			f.rep.PeakSessions = f.sessionsOpen
		}
		ls.born = f.in.Net.Sched.Now()
		f.schedulePing(p, ls)
	}
	s.OnDead(func(*punch.UDPSession) { f.sessionDead(p, ls) })
	s.OnPathChange(func(_ *punch.UDPSession, old, new punch.Method) { f.pathMoved(p, ls, old, new) })
}

// pathMoved accounts live-path migrations (RelayFirst/PathUpgrade
// runs). Like attempt outcomes, migrations are counted on the
// initiating side only, so each logical session counts once.
func (f *Fleet) pathMoved(p *peer, ls *liveSession, old, new punch.Method) {
	if p.live[ls.s.Peer] != ls || !ls.initiated {
		return
	}
	if new == punch.MethodRelay {
		f.rep.Failbacks++
		return
	}
	if old != punch.MethodRelay {
		return // direct->direct hop; nothing to classify
	}
	f.rep.Upgrades++
	if !ls.upgraded {
		// First upgrade of this session: the per-pair Upgraded counter
		// tracks unique sessions (so EventualDirect stays <= Attempts
		// under failback/re-upgrade flapping), and the latency sample
		// is establish->first-direct only.
		ls.upgraded = true
		if q := f.byName[ls.s.Peer]; q != nil {
			f.pair(PairKey(p.class, q.class)).Upgraded++
		}
		f.rep.UpgradeTimes = append(f.rep.UpgradeTimes, f.in.Net.Sched.Now()-ls.born)
	}
}

// sessionDead handles §3.6 idle death: accounting, then an on-demand
// re-punch when both ends are still online.
func (f *Fleet) sessionDead(p *peer, ls *liveSession) {
	s := ls.s
	if p.live[s.Peer] != ls {
		return
	}
	delete(p.live, s.Peer)
	if !ls.initiated {
		return
	}
	f.sessionsOpen--
	f.rep.DeadSessions++
	if f.rep.ServerKilledAt > 0 && ls.born < f.rep.ServerKilledAt && s.Via != punch.MethodRelay {
		// A peer-to-peer session that predates the server kill died
		// after it: the kill broke something it must not touch.
		f.rep.PreKillDirectDeaths++
	}
	q := f.byName[s.Peer]
	if _, busy := p.inflight[s.Peer]; p.online && q != nil && q.online && !busy {
		f.rep.Repunches++
		f.attempt(p, q)
	}
}

// --- application traffic ---

// pingPayload/pongPayload are the session application traffic; pings
// elicit pongs, which keeps both directions (and both NAT timers,
// §3.6) refreshed — including relayed sessions, whose traffic loads S.
var (
	pingPayload = []byte("ping?")
	pongPayload = []byte("pong!")
)

// schedulePing runs the initiator's application clock for one
// session: a ping every AppDataEvery while the session stays current.
func (f *Fleet) schedulePing(p *peer, ls *liveSession) {
	f.in.Net.Sched.After(f.expDur(f.cfg.AppDataEvery), func() {
		if !p.online || p.live[ls.s.Peer] != ls {
			return
		}
		ls.s.Send(pingPayload)
		f.schedulePing(p, ls)
	})
}

// appData echoes pings so the responder side generates return traffic.
func (f *Fleet) appData(p *peer, s *punch.UDPSession, payload []byte) {
	if len(payload) > 0 && payload[len(payload)-1] == '?' {
		s.Send(pongPayload)
	}
}

// --- aggregation ---

func (f *Fleet) pair(key string) *PairStat {
	ps := f.pairs[key]
	if ps == nil {
		ps = &PairStat{Pair: key}
		f.pairs[key] = ps
	}
	return ps
}

func (f *Fleet) topo(key string) *TopoStat {
	ts := f.topos[key]
	if ts == nil {
		ts = &TopoStat{Topo: key}
		f.topos[key] = ts
	}
	return ts
}

func (f *Fleet) finish() {
	// Outstanding attempts at the horizon never resolved; clients
	// still open bank their re-homings.
	for _, p := range f.peers {
		if p.client != nil {
			f.rep.Failovers += p.client.Failovers
		}
		for _, keys := range p.inflight {
			for _, o := range f.rows(keys) {
				o.Abandoned++
			}
		}
	}
	// Collected in map order, sorted before they can reach the report
	// renderer.
	pairs := make([]PairStat, 0, len(f.pairs))
	for _, ps := range f.pairs {
		pairs = append(pairs, *ps)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Pair < pairs[j].Pair })
	f.rep.Pairs = pairs
	topos := make([]TopoStat, 0, len(f.topos))
	for _, ts := range f.topos {
		topos = append(topos, *ts)
	}
	sort.Slice(topos, func(i, j int) bool { return topos[i].Topo < topos[j].Topo })
	f.rep.Topos = topos
	// Per-server load: stats per instance plus how many peers the
	// stable hash homes there; Server stays the tier-wide aggregate.
	homed := make([]int, len(f.srvs))
	for _, p := range f.peers {
		owner := rendezvous.Owner(p.name, f.eps)
		for i, ep := range f.eps {
			if ep == owner {
				homed[i]++
				break
			}
		}
	}
	for i, srv := range f.srvs {
		st := srv.Stats()
		f.rep.PerServer = append(f.rep.PerServer, ServerLoad{
			Index: i, Endpoint: f.eps[i], Homed: homed[i], Stats: st,
		})
		f.rep.Server = f.rep.Server.Add(st)
	}
	f.rep.Fabric = f.in.Net.Stats()
	f.rep.VirtualTime = f.in.Net.Sched.Now()
	f.rep.Events = f.in.Net.Sched.Processed
	f.rep.finalize()
}
