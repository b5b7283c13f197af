package rendezvous

import (
	"natpunch/internal/inet"
	"natpunch/internal/proto"
)

// The forwarder service: §3.2 step 2's connection-request forwarding
// (for the punch client's candidate negotiation too), §2.3 connection
// reversal, and §4.5 sequential-punch signalling. Connection requests
// and negotiations resolve their target through the registry (or
// the TCP client table) and deliver through the federation-aware
// deliver(), so the same code introduces peers homed on one server or
// on two. Reversal and sequential-punch signals arrive only on TCP
// registration connections and go out on the target's.

// forwardDetails implements §3.2 step 2: "S replies to A with a
// message containing B's public and private endpoints. At the same
// time, S uses its session with B to send B a connection request
// message containing A's public and private endpoints." from is the
// observed source of A's request — authoritative for A's public
// endpoint (§3.1) and always reachable, since the request itself just
// traversed A's NAT. A TypeNegotiate (UDP only) is brokered the same
// way and answered with TypeNegotiateDetails: the pair is all a
// negotiation's checks are built from.
func (s *Server) forwardDetails(from inet.Endpoint, m *proto.Message, viaTCP bool) {
	if viaTCP {
		a, aok := s.tcpc[m.From]
		b, bok := s.tcpc[m.Target]
		if !aok || !bok {
			s.fail(from, m, true)
			return
		}
		s.sendTCP(a, &proto.Message{
			Type: proto.TypeConnectDetails, From: m.Target, Target: m.From,
			Nonce: m.Nonce, Requester: true,
			Public: b.public, Private: b.private,
		})
		s.sendTCP(b, &proto.Message{
			Type: proto.TypeConnectDetails, From: m.From, Target: m.Target,
			Nonce: m.Nonce, Requester: false,
			Public: a.public, Private: a.private,
		})
		return
	}
	now := s.now()
	a, aok := s.reg.get(m.From, now)
	b, bok := s.reg.get(m.Target, now)
	if !aok || !bok {
		s.fail(from, m, false)
		return
	}
	typ := proto.TypeConnectDetails
	if m.Type == proto.TypeNegotiate {
		typ = proto.TypeNegotiateDetails
	}
	// Both introductions go through the scratch skeleton sequentially:
	// sendUDP/deliver fully encode before returning, so the second
	// fill cannot clobber the first in flight.
	out := &s.scratchMsg
	*out = proto.Message{
		Type: typ, From: m.Target, Target: m.From,
		Nonce: m.Nonce, Requester: true,
		Public: b.Public, Private: b.Private,
	}
	s.sendUDP(from, out)
	*out = proto.Message{
		Type: typ, From: m.From, Target: m.Target,
		Nonce: m.Nonce, Requester: false,
		Public: from, Private: a.Private,
	}
	s.deliver(b, out)
}

// reverse implements §2.3: B (who cannot be reached directly) relays
// a connection request through S asking the peer to attempt a
// "reverse" connection back to B. TCP-surface only: both ends must
// hold registration connections.
func (s *Server) reverse(m *proto.Message) {
	b, ok := s.tcpc[m.Target]
	a, aok := s.tcpc[m.From]
	if !ok || !aok {
		s.stats.Errors++
		return
	}
	s.stats.ReversalRequests++
	out := &s.scratchMsg
	*out = proto.Message{
		Type: proto.TypeReverseRequest, From: m.From, Target: m.Target,
		Nonce: m.Nonce, Public: a.public, Private: a.private,
	}
	s.sendTCP(b, out)
}

// seqSignal forwards sequential hole punching coordination (§4.5),
// attaching the sender's registered TCP endpoints. TCP-surface only.
func (s *Server) seqSignal(m *proto.Message) {
	b, ok := s.tcpc[m.Target]
	a, aok := s.tcpc[m.From]
	if !ok || !aok {
		s.stats.Errors++
		return
	}
	s.stats.SeqSignals++
	s.sendTCP(b, &proto.Message{
		Type: m.Type, From: m.From, Target: m.Target, Nonce: m.Nonce,
		Public: a.public, Private: a.private,
	})
}
