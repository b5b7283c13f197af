package rendezvous

import (
	"encoding/binary"

	"natpunch/internal/proto"
)

// The relay service: the §2.2 fallback that forwards application
// payloads between clients who could not punch. It is part of every
// full rendezvous server and is also the entire surface of a
// relay-only deployment (Config.RelayOnly, rendezvousapi.WithRelayOnly)
// — clients select dedicated relay hosts with WithRelayServers and
// keep the §2.2 load off the brokering tier.

// relay forwards a RelayTo to its target over the target's registered
// session: directly for local clients, through the target's home
// server for federated ones, or down the TCP registration connection
// when that is the only surface the target has. wire is the RelayTo's
// own encoding, cut at the message's end; m is its decoding.
//
// The Relayed the target reads is the RelayTo's bytes with the type
// byte rewritten: the two share one layout, and every Relayed consumer
// reads only From, Seq and Data. So relay forwards the bytes received,
// type byte rewritten, one copy into the send queue, and never writes
// to wire itself, which is the transport's received datagram. The
// sender's nonce, endpoints, candidates and obfuscation mode travel
// along unread. relay runs on the server's packets-per-second ceiling,
// so it allocates nothing on the UDP paths.
func (s *Server) relay(m *proto.Message, wire []byte) {
	rec, ok := s.reg.get(m.Target, s.now())
	var c *tcpClient
	if !ok {
		if c = s.tcpc[m.Target]; c == nil {
			s.stats.Errors++
			return
		}
	}
	// Empty Seq-0 relays are §3.6 keep-alives, not the relay load
	// §2.2 warns about; forward them but keep the stats honest.
	if m.Seq != 0 || len(m.Data) > 0 {
		s.stats.RelayedMessages++
		s.stats.RelayedBytes += uint64(len(m.Data))
	}
	switch {
	case c != nil:
		// A stream frame is the 4-byte length prefix AppendFrame writes.
		frame := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(wire)), uint32(len(wire)))
		c.conn.Write(appendRelayed(frame, wire))
	case rec.Local():
		s.sender.Commit(rec.Public, appendRelayed(s.sender.Reserve(), wire))
	default:
		s.fedScratch = appendRelayed(s.fedScratch[:0], wire)
		s.fedForward(rec.Home, rec.Name, s.fedScratch)
	}
}

// appendRelayed appends wire, a RelayTo's encoding, to dst as the
// Relayed its target reads: the same bytes, type byte rewritten.
func appendRelayed(dst, wire []byte) []byte {
	at := len(dst)
	dst = append(dst, wire...)
	dst[at+1] = byte(proto.TypeRelayed)
	return dst
}
