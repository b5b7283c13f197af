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
// Membership is operator-driven (Join / cmd/rendezvous -join); links
// are made bidirectional by the hello exchange. Like client
// registration itself, federation carries no authentication — the
// deployment's network perimeter is the trust boundary.

// Join links this server to a peer: the peer learns of us from the
// hello's source address, answers with its own hello, and both sides
// exchange a full sync of locally homed registrations.
func (s *Server) Join(peer inet.Endpoint) {
	if peer == s.Endpoint() || peer == s.udp.Local() {
		return
	}
	s.addFedPeer(peer)
	s.sendUDP(peer, &proto.Message{Type: proto.TypeFedHello})
	s.syncTo(peer)
}

// Peers returns the current federation peer set in join order.
func (s *Server) Peers() []inet.Endpoint {
	return append([]inet.Endpoint(nil), s.fedPeers...)
}

// addFedPeer records a peer, reporting whether it was new. Join order
// is preserved so replication fan-out is deterministic.
func (s *Server) addFedPeer(peer inet.Endpoint) bool {
	if s.fedSet[peer] {
		return false
	}
	s.fedSet[peer] = true
	s.fedPeers = append(s.fedPeers, peer)
	return true
}

// handleFedHello answers a peer's hello: record the link, hello back
// if the peer was unknown (exactly once, so hellos cannot ping-pong),
// and sync our locally homed records over.
func (s *Server) handleFedHello(from inet.Endpoint) {
	if s.addFedPeer(from) {
		s.sendUDP(from, &proto.Message{Type: proto.TypeFedHello})
	}
	s.syncTo(from)
}

// handleFedRecord stores one replicated registration, homed at the
// sending server. Last writer wins: a client that re-homes (failover)
// is re-replicated by its new home and the stale claim is replaced.
func (s *Server) handleFedRecord(from inet.Endpoint, m *proto.Message) {
	s.addFedPeer(from)
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
// homed target on behalf of a peer.
func (s *Server) handleFedForward(from inet.Endpoint, m *proto.Message) {
	s.addFedPeer(from)
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
