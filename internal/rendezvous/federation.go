package rendezvous

import (
	"sort"

	"natpunch/internal/inet"
	"natpunch/internal/proto"
)

// Federation links multiple rendezvous servers into one logical S
// over the ordinary transport seam — no side channel, just three wire
// messages (proto.TypeFedHello/FedRecord/FedForward) on the same UDP
// socket clients use:
//
//   - every locally homed registration (and each §3.6 keep-alive
//     refresh) is replicated to all peers as a FedRecord, so every
//     server can resolve every name;
//   - any message bound for a remotely homed client is wrapped in a
//     FedForward to the client's home server, because a NATed client
//     is reachable only through the mapping it keeps open to its home
//     (§3.1) — introductions, candidate brokering, and §2.2 relaying
//     all route this way;
//   - TTLs run independently on each server, so a dead server's
//     clients age out of the survivors' registries and dials to them
//     fail fast until the clients re-home (client-side failover).
//
// Membership is operator-driven (Join / cmd/rendezvous -join), and
// the configured set is the whole of it: Fed* messages from any other
// source are dropped, so a link needs both sides to join each other.
// Whichever side joins second completes the exchange: its hello makes
// the first side sync its records back. Like client registration
// itself, federation carries no authentication beyond that set: the
// deployment's network perimeter is the trust boundary.

// Join configures peer as a federation peer and greets it: the hello
// asks the peer to sync its locally homed registrations to us, and we
// sync ours to it. The peer accepts both only once it has joined us.
func (s *Server) Join(peer inet.Endpoint) {
	if peer == s.Endpoint() || peer == s.udp.Local() {
		return
	}
	if !s.fedSet[peer] {
		s.fedSet[peer] = true
		s.fedPeers = append(s.fedPeers, peer)
	}
	s.sendUDP(peer, &proto.Message{Type: proto.TypeFedHello})
	s.syncTo(peer)
}

// Peers returns the configured federation peer set in join order, the
// order replication fans out in, so simulated runs stay deterministic.
func (s *Server) Peers() []inet.Endpoint {
	return append([]inet.Endpoint(nil), s.fedPeers...)
}

// handleFedHello answers a configured peer's hello with a sync of our
// locally homed records. It never hellos back, so hellos cannot
// ping-pong.
func (s *Server) handleFedHello(from inet.Endpoint) {
	if s.fedSet[from] {
		s.syncTo(from)
	}
}

// handleFedRecord stores one replicated registration, homed at the
// sending server. Last writer wins: a client that re-homes (failover)
// is re-replicated by its new home and the stale claim is replaced.
func (s *Server) handleFedRecord(from inet.Endpoint, m *proto.Message) {
	if !s.fedSet[from] {
		return
	}
	s.stats.FedRecords++
	s.reg.put(Record{
		Name:      m.From,
		Public:    m.Public,
		Private:   m.Private,
		Home:      from,
		ExpiresAt: s.expiry(),
	}, s.now())
}

// handleFedForward delivers the wrapped wire bytes to the locally
// homed target on behalf of a configured peer.
func (s *Server) handleFedForward(from inet.Endpoint, m *proto.Message) {
	if !s.fedSet[from] {
		return
	}
	s.stats.FedForwards++
	rec, ok := s.reg.get(m.Target, s.now())
	if !ok || !rec.Local() {
		s.stats.Errors++
		return
	}
	s.udp.SendTo(rec.Public, m.Data)
}

// fedForward wraps raw wire bytes for delivery to name via its home
// server. It reuses the scratch skeleton, so callers must be done
// with any message they built there (deliver encodes into fedScratch
// first for exactly this reason).
func (s *Server) fedForward(home inet.Endpoint, name string, wire []byte) {
	out := &s.scratchMsg
	*out = proto.Message{
		Type: proto.TypeFedForward, Target: name, Data: wire,
	}
	s.sendUDP(home, out)
}

// replicate pushes one locally homed record to every federation peer.
func (s *Server) replicate(rec Record) {
	if len(s.fedPeers) == 0 || !rec.Local() {
		return
	}
	m := &s.scratchMsg
	*m = proto.Message{
		Type: proto.TypeFedRecord, From: rec.Name,
		Public: rec.Public, Private: rec.Private,
	}
	for _, p := range s.fedPeers {
		s.sendUDP(p, m)
	}
}

// syncTo replays every locally homed registration to one peer, in
// name order so simulated runs stay bit-for-bit reproducible (map
// iteration order must never leak into the packet stream).
func (s *Server) syncTo(peer inet.Endpoint) {
	recs := make([]Record, 0, len(s.reg.recs))
	for _, rec := range s.reg.recs {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	now := s.now()
	for _, rec := range recs {
		if !rec.Local() || rec.Expired(now) {
			continue
		}
		s.sendUDP(peer, &proto.Message{
			Type: proto.TypeFedRecord, From: rec.Name,
			Public: rec.Public, Private: rec.Private,
		})
	}
}
