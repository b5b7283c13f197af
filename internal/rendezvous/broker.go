package rendezvous

import (
	"natpunch/internal/inet"
	"natpunch/internal/proto"
)

// The broker service: candidate negotiation for the punch client's
// Connect — the generalization of §3.2 step 2's endpoint exchange to
// full candidate lists.

// forwardCandidates brokers one candidate negotiation (UDP only):
// the requester's advertised candidates go to the target, and a
// candidate list synthesized from the target's registration comes
// back. S substitutes the endpoint it observes on the wire for any
// advertised public candidate, since the client's own idea of its
// public endpoint can be stale (§3.1 makes S authoritative for it).
// Cross-server negotiations route the target's copy through its home
// server; the observed-endpoint substitution still happens here,
// where the requester's datagram was actually seen.
func (s *Server) forwardCandidates(m *proto.Message, from inet.Endpoint) {
	now := s.now()
	a, aok := s.reg.get(m.From, now)
	b, bok := s.reg.get(m.Target, now)
	if !aok || !bok {
		s.fail(from, m, false)
		return
	}
	toA := &proto.Message{
		Type: proto.TypeNegotiateDetails, From: m.Target, Target: m.From,
		Nonce: m.Nonce, Requester: true,
		Public: b.Public, Private: b.Private,
		Candidates: registrationCandidates(b),
	}
	fromA := make([]proto.Candidate, 0, len(m.Candidates)+1)
	seenPublic := false
	for _, c := range m.Candidates {
		if c.Kind == proto.CandPublic {
			c.Endpoint = from // observed, authoritative (§3.1)
			seenPublic = true
		}
		fromA = append(fromA, c)
	}
	if !seenPublic {
		fromA = append(fromA, proto.Candidate{Kind: proto.CandPublic, Endpoint: from})
	}
	toB := &proto.Message{
		Type: proto.TypeNegotiateDetails, From: m.From, Target: m.Target,
		Nonce: m.Nonce, Requester: false,
		Public: from, Private: a.Private,
		Candidates: fromA,
	}
	s.sendUDP(from, toA)
	s.deliver(b, toB)
}

// registrationCandidates synthesizes a candidate list from what the
// registry learned at registration: the self-reported private
// endpoint and the observed public one.
func registrationCandidates(rec Record) []proto.Candidate {
	cands := []proto.Candidate{{Kind: proto.CandPublic, Endpoint: rec.Public}}
	if !rec.Private.IsZero() && rec.Private != rec.Public {
		cands = append(cands, proto.Candidate{Kind: proto.CandPrivate, Endpoint: rec.Private})
	}
	return cands
}
