package rendezvous

import "natpunch/internal/proto"

// The relay service: the §2.2 fallback that forwards application
// payloads between clients who could not punch. It is part of every
// full rendezvous server and is also the entire surface of a
// relay-only deployment (Config.RelayOnly, package natpunch/relayapi)
// — clients select dedicated relay hosts with WithRelayServers and
// keep the §2.2 load off the brokering tier.

// relay forwards the payload to the target over the target's
// registered session: directly for local clients, through the
// target's home server for federated ones, or down the TCP
// registration connection when that is the only surface the target
// has.
// relay runs on the server's packets-per-second ceiling, so it is
// written to allocate nothing and to copy the payload once: the
// outgoing message reuses the server's scratch skeleton (referencing
// the payload where the decoder left it, in the received datagram,
// which sendUDP/sendTCP fully consume before returning) and the stats
// check is inlined rather than closed over.
func (s *Server) relay(m *proto.Message) {
	// Empty Seq-0 relays are §3.6 keep-alives, not the relay load
	// §2.2 warns about; forward them but keep the stats honest.
	counted := m.Seq != 0 || len(m.Data) > 0
	if rec, ok := s.reg.Get(m.Target, s.now()); ok {
		if counted {
			s.stats.RelayedMessages++
			s.stats.RelayedBytes += uint64(len(m.Data))
		}
		out := &s.scratchMsg
		*out = proto.Message{
			Type: proto.TypeRelayed, From: m.From, Target: m.Target,
			Seq: m.Seq, Data: m.Data,
		}
		s.deliver(rec, out)
		return
	}
	if c, ok := s.tcpc[m.Target]; ok {
		if counted {
			s.stats.RelayedMessages++
			s.stats.RelayedBytes += uint64(len(m.Data))
		}
		out := &s.scratchMsg
		*out = proto.Message{
			Type: proto.TypeRelayed, From: m.From, Target: m.Target,
			Seq: m.Seq, Data: m.Data,
		}
		s.sendTCP(c, out)
		return
	}
	s.stats.Errors++
}
