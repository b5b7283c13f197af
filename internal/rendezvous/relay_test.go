package rendezvous

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/inet"
	"natpunch/internal/proto"
	"natpunch/internal/sim"
	"natpunch/internal/tcp"
)

// inPlaceConn is a stubConn that lends its send buffer the way realudp's
// conns do (transport.InPlaceSender), so the relay writes the forwarded
// bytes into it.
type inPlaceConn struct {
	stubConn
	arena []byte
}

func (c *inPlaceConn) Reserve() []byte { return c.arena[:0] }
func (c *inPlaceConn) Commit(to inet.Endpoint, p []byte) error {
	c.arena = p[:0]
	return c.SendTo(to, p)
}

// relayCase is one RelayTo as it arrives: wire, of which the message
// takes the first n bytes.
type relayCase struct {
	name string
	wire []byte
	n    int
}

// relayCases are the inputs the relay tests and the fuzz corpus start
// from: a canonical RelayTo, one with bytes past its end, and one that
// carries everything a RelayTo can (nonce, endpoints, requester flag,
// candidates, obfuscated endpoints).
func relayCases(target string) []relayCase {
	plain := proto.Encode(&proto.Message{
		Type: proto.TypeRelayTo, From: "alice", Target: target,
		Seq: 7, Data: []byte("relay payload of plausible size, 48 bytes or so"),
	}, proto.PlainEndpoints)
	rich := proto.Encode(&proto.Message{
		Type: proto.TypeRelayTo, From: "alice", Target: target,
		Public:  inet.MustParseEndpoint("155.99.25.11:62000"),
		Private: inet.MustParseEndpoint("10.0.0.1:4321"),
		Nonce:   0xDEADBEEFCAFE, Requester: true, Seq: 1 << 31, Data: []byte{0, 1, 2, 3},
		Candidates: []proto.Candidate{
			{Kind: proto.CandPrivate, Priority: 300, Endpoint: inet.MustParseEndpoint("10.0.0.1:4321")},
			{Kind: proto.CandPublic, Priority: 200, Endpoint: inet.MustParseEndpoint("155.99.25.11:62000")},
		},
	}, proto.ObfuscatedEndpoints)
	return []relayCase{
		{"canonical", plain, len(plain)},
		{"trailing bytes", append(append([]byte(nil), plain...), "not part of the message"...), len(plain)},
		{"nonce, candidates, obfuscated", rich, len(rich)},
	}
}

// relayedForm is what the target of a RelayTo arriving as c must read:
// the message's own bytes with the type byte rewritten.
func (c relayCase) relayedForm() []byte {
	out := append([]byte(nil), c.wire[:c.n]...)
	out[1] = byte(proto.TypeRelayed)
	return out
}

// TestRelayForwardsReceivedBytes: whether the target is homed here or
// at a federation peer, on a full or a relay-only server, sent through
// SendTo or through a lent send buffer, what leaves is the RelayTo's
// own bytes with only the type byte changed, cut at the message's end;
// the received datagram is not written to, and the stats count the
// message once.
func TestRelayForwardsReceivedBytes(t *testing.T) {
	home := inet.MustParseEndpoint("18.181.0.32:1234")
	for _, relayOnly := range []bool{false, true} {
		for _, lends := range []bool{false, true} {
			for _, target := range []string{"bob", "carol"} {
				s, conn := allocServer(t, Config{RelayOnly: relayOnly})
				if lends {
					c := &inPlaceConn{stubConn: *conn}
					s.udp, s.sender, conn = c, c, &c.stubConn
				}
				s.reg.put(Record{Name: "carol", Public: inet.MustParseEndpoint("204.16.1.9:7000"), Home: home}, s.now())
				for _, c := range relayCases(target) {
					label := fmt.Sprintf("%s to %s (relay-only %v, lent buffer %v)", c.name, target, relayOnly, lends)
					in := append([]byte(nil), c.wire...)
					before, sent := s.Stats(), conn.sent
					s.handleUDP(clientEP("alice"), c.wire)
					if !bytes.Equal(c.wire, in) {
						t.Fatalf("%s: the received datagram was written to", label)
					}
					if conn.sent != sent+1 {
						t.Fatalf("%s: %d datagrams sent, want 1", label, conn.sent-sent)
					}
					got, to := conn.last, conn.lastTo
					if target == "carol" {
						m, err := proto.Decode(got)
						if err != nil || m.Type != proto.TypeFedForward || m.Target != "carol" {
							t.Fatalf("%s: sent %+v (%v), want a FedForward to carol", label, m, err)
						}
						got = m.Data
					}
					if want := map[string]inet.Endpoint{"bob": clientEP("bob"), "carol": home}[target]; to != want {
						t.Fatalf("%s: sent to %v, want %v", label, to, want)
					}
					if want := c.relayedForm(); !bytes.Equal(got, want) {
						t.Fatalf("%s: forwarded\n%x\nwant the input's bytes with byte 1 rewritten\n%x", label, got, want)
					}
					m, _ := proto.Decode(c.wire)
					st := s.Stats()
					if st.RelayedMessages != before.RelayedMessages+1 || st.RelayedBytes != before.RelayedBytes+uint64(len(m.Data)) {
						t.Fatalf("%s: stats moved %d messages and %d bytes, want 1 and %d", label,
							st.RelayedMessages-before.RelayedMessages, st.RelayedBytes-before.RelayedBytes, len(m.Data))
					}
				}
			}
		}
	}
}

// TestRelayTCPSurface covers the two relays that involve the simulated
// TCP registration surface: a RelayTo arriving as a datagram for a
// TCP-registered target goes down its connection as a stream frame
// holding the datagram's bytes, type byte rewritten; a RelayTo arriving
// in a TCP frame has no datagram, so it is encoded once, in the
// server's obfuscation mode, and forwarded the same way.
func TestRelayTCPSurface(t *testing.T) {
	n := sim.NewNetwork(1)
	core := n.NewSegment("core", "0.0.0.0/0", 5*time.Millisecond)
	sh := host.New(n, "S", host.BSDStyle)
	sh.Attach(core, inet.MustParseAddr("18.181.0.31"))
	s, err := Serve(sh.Transport(), Config{Port: 1234, Obf: proto.ObfuscatedEndpoints})
	if err != nil {
		t.Fatal(err)
	}

	// alice registers over UDP, bob over TCP.
	join := func(name string) *host.Host {
		h := host.New(n, name, host.BSDStyle)
		h.Attach(core, clientEP(name).Addr)
		return h
	}
	alice, err := join("alice").UDPBind(clientEP("alice").Port)
	if err != nil {
		t.Fatal(err)
	}
	var aliceGot [][]byte
	alice.OnRecv(func(_ inet.Endpoint, p []byte) { aliceGot = append(aliceGot, append([]byte(nil), p...)) })
	alice.SendTo(s.Endpoint(), proto.Encode(&proto.Message{Type: proto.TypeRegister, From: "alice"}, 0))
	var bobGot []byte
	bob, err := join("bob").TCPDial(s.Endpoint(), host.DialOpts{LocalPort: clientEP("bob").Port}, tcp.Callbacks{
		Established: func(cn *tcp.Conn) {
			cn.Write(proto.AppendFrame(nil, &proto.Message{Type: proto.TypeRegister, From: "bob"}, 0))
		},
		Data: func(_ *tcp.Conn, p []byte) { bobGot = append(bobGot, p...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Sched.RunFor(time.Second)
	if !s.Registered("alice") || len(bobGot) < 4 {
		t.Fatal("alice or bob did not register")
	}

	bobGot = bobGot[4+binary.BigEndian.Uint32(bobGot):] // past the RegisterOK
	for _, c := range relayCases("bob") {
		alice.SendTo(s.Endpoint(), c.wire)
	}
	n.Sched.RunFor(time.Second)
	for _, c := range relayCases("bob") {
		want := append(binary.BigEndian.AppendUint32(nil, uint32(c.n)), c.relayedForm()...)
		if !bytes.HasPrefix(bobGot, want) {
			t.Fatalf("%s over TCP: bob read\n%x\nwant the frame\n%x", c.name, bobGot, want)
		}
		bobGot = bobGot[len(want):]
	}
	if len(bobGot) != 0 {
		t.Fatalf("bob read %d bytes past the relayed frames", len(bobGot))
	}

	fromBob := &proto.Message{
		Type: proto.TypeRelayTo, From: "bob", Target: "alice",
		Nonce: 99, Seq: 5, Data: []byte("over tcp"),
	}
	aliceGot = nil
	bob.Write(proto.AppendFrame(nil, fromBob, proto.PlainEndpoints))
	n.Sched.RunFor(time.Second)
	relayed := *fromBob
	relayed.Type = proto.TypeRelayed
	if want := proto.Encode(&relayed, proto.ObfuscatedEndpoints); len(aliceGot) != 1 || !bytes.Equal(aliceGot[0], want) {
		t.Fatalf("alice read %x, want the one Relayed encoding %x", aliceGot, want)
	}
	if st := s.Stats(); st.RelayedMessages != 4 || st.Errors != 0 {
		t.Fatalf("stats %+v, want 4 relayed messages and no errors", st)
	}
}

// FuzzRelayForward: for any datagram the server forwards as a relay,
// what leaves decodes as a Relayed carrying the input's From, Target,
// Seq and Data, is the input's own prefix with the type byte rewritten
// (so no longer than the input), and the input is untouched.
func FuzzRelayForward(f *testing.F) {
	for _, target := range []string{"bob", "carol"} {
		for _, c := range relayCases(target) {
			f.Add(c.wire)
		}
	}
	home := inet.MustParseEndpoint("18.181.0.32:1234")
	f.Fuzz(func(t *testing.T, wire []byte) {
		s, conn := allocServer(t, Config{})
		s.reg.put(Record{Name: "carol", Public: inet.MustParseEndpoint("204.16.1.9:7000"), Home: home}, s.now())
		in := append([]byte(nil), wire...)
		sent := conn.sent
		s.handleUDP(clientEP("alice"), wire)
		if !bytes.Equal(wire, in) {
			t.Fatal("the received datagram was written to")
		}
		m, err := proto.Decode(in)
		if err != nil || m.Type != proto.TypeRelayTo || conn.sent == sent {
			return
		}
		out := conn.last
		if conn.lastTo == home {
			fwd, err := proto.Decode(out)
			if err != nil || fwd.Type != proto.TypeFedForward {
				t.Fatalf("sent to carol's home: %+v (%v), want a FedForward", fwd, err)
			}
			out = fwd.Data
		}
		got, err := proto.Decode(out)
		if err != nil || got.Type != proto.TypeRelayed || got.From != m.From || got.Target != m.Target ||
			got.Seq != m.Seq || !bytes.Equal(got.Data, m.Data) {
			t.Fatalf("forwarded %+v (%v), want the Relayed form of %+v", got, err, m)
		}
		if len(out) > len(in) || out[1] != byte(proto.TypeRelayed) || out[0] != in[0] || !bytes.Equal(out[2:], in[2:len(out)]) {
			t.Fatalf("forwarded\n%x\nwhich is not a prefix of the input with the type byte rewritten\n%x", out, in)
		}
	})
}
