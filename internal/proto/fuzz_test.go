package proto_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/ice"
	"natpunch/internal/inet"
	"natpunch/internal/nat"
	"natpunch/internal/proto"
	"natpunch/internal/punch"
	"natpunch/internal/rendezvous"
	"natpunch/internal/sim"
	"natpunch/internal/topo"
)

// capturedCorpus runs a complete UDP hole punch on the simulator —
// registration, connect-request forwarding, crossing probes, ack,
// application data, keep-alives, plus a relay fallback — with a
// fabric hook recording every distinct UDP payload. The fuzz seeds
// are therefore real captured protocol messages, not hand-built
// approximations.
func capturedCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	seen := make(map[string]bool)
	var wires [][]byte
	capture := func(c *topo.Canonical, cfg punch.Config) {
		srv, err := rendezvous.NewOver(c.S.Transport(), 1234, 0)
		if err != nil {
			tb.Fatal(err)
		}
		c.Net.SetHook(func(kind sim.HookKind, _ *sim.Segment, _ *sim.Iface, pkt *inet.Packet) {
			if kind != sim.HookSend || pkt.Proto != inet.UDP || len(pkt.Payload) == 0 {
				return
			}
			if !seen[string(pkt.Payload)] {
				seen[string(pkt.Payload)] = true
				wires = append(wires, append([]byte(nil), pkt.Payload...))
			}
		})
		a := punch.NewClientOver(c.A.Transport(), "alice", srv.Endpoint(), cfg)
		b := punch.NewClientOver(c.B.Transport(), "bob", srv.Endpoint(), cfg)
		if err := a.RegisterUDP(4321, nil); err != nil {
			tb.Fatal(err)
		}
		if err := b.RegisterUDP(4321, nil); err != nil {
			tb.Fatal(err)
		}
		c.RunFor(2 * time.Second)
		b.InboundUDP = punch.UDPCallbacks{
			Data: func(s *punch.UDPSession, p []byte) { s.Send([]byte("pong")) },
		}
		a.ConnectUDP("bob", punch.UDPCallbacks{
			Established: func(s *punch.UDPSession, _ ice.Candidate) { s.Send([]byte("ping")) },
		})
		c.RunFor(30 * time.Second) // punch + data + a keep-alive round
	}
	// Cone pair: registration, details, probes, ack, data, keep-alive.
	capture(topo.NewCanonical(1, nat.Cone(), nat.Cone()), punch.Config{})
	// Obfuscated endpoints exercise the complemented-address wire form.
	capture(topo.NewCanonical(2, nat.Mangler(), nat.Cone()), punch.Config{Obfuscate: true})
	// Symmetric pair with relay fallback: error/relay message shapes.
	capture(topo.NewCanonical(3, nat.Symmetric(), nat.Symmetric()), punch.Config{RelayFallback: true})

	// Candidate-negotiation traffic (punch.Client.Connect): TypeNegotiate
	// offers and TypeNegotiateDetails with multi-entry candidate
	// lists, plus the check/ack flow, over the topologies that
	// exercise each candidate type.
	captureICE := func(in *topo.Internet, s, hostA, hostB *host.Host, cfg punch.Config) {
		srv, err := rendezvous.NewOver(s.Transport(), 1234, 0)
		if err != nil {
			tb.Fatal(err)
		}
		in.Net.SetHook(func(kind sim.HookKind, _ *sim.Segment, _ *sim.Iface, pkt *inet.Packet) {
			if kind != sim.HookSend || pkt.Proto != inet.UDP || len(pkt.Payload) == 0 {
				return
			}
			if !seen[string(pkt.Payload)] {
				seen[string(pkt.Payload)] = true
				wires = append(wires, append([]byte(nil), pkt.Payload...))
			}
		})
		a := punch.NewClientOver(hostA.Transport(), "alice", srv.Endpoint(), cfg)
		b := punch.NewClientOver(hostB.Transport(), "bob", srv.Endpoint(), cfg)
		if err := a.RegisterUDP(4321, nil); err != nil {
			tb.Fatal(err)
		}
		if err := b.RegisterUDP(4321, nil); err != nil {
			tb.Fatal(err)
		}
		in.RunFor(2 * time.Second)
		b.InboundUDP = punch.UDPCallbacks{
			Data: func(s *punch.UDPSession, p []byte) { s.Send([]byte("pong")) },
		}
		a.Connect("bob", punch.UDPCallbacks{
			Established: func(s *punch.UDPSession, _ ice.Candidate) { s.Send([]byte("ping")) },
		})
		in.RunFor(30 * time.Second)
	}
	// Figure 4 (private candidate wins) and Figure 6 with hairpin
	// (hairpin candidate wins; obfuscated candidate endpoints).
	c4 := topo.NewCommonNAT(4, nat.Cone())
	captureICE(c4.Internet, c4.S, c4.A, c4.B, punch.Config{})
	c6 := topo.NewMultiLevel(5, nat.WellBehaved(), nat.Cone(), nat.Cone())
	captureICE(c6.Internet, c6.S, c6.A, c6.B, punch.Config{Obfuscate: true})

	// Server-to-server federation traffic: two federated servers
	// introduce a cross-homed symmetric pair, so the capture includes
	// FedHello, FedRecord replication (join sync + keep-alive
	// refreshes), and FedForward-wrapped deliveries — including the
	// federated §2.2 relay path.
	captureFed := func(seed int64) {
		in := topo.NewInternet(seed)
		core := in.CoreRealm()
		h1 := core.AddHost("S1", "18.181.0.31", host.BSDStyle)
		h2 := core.AddHost("S2", "18.181.0.32", host.BSDStyle)
		s1, err := rendezvous.NewOver(h1.Transport(), 1234, 0)
		if err != nil {
			tb.Fatal(err)
		}
		s2, err := rendezvous.NewOver(h2.Transport(), 1234, 0)
		if err != nil {
			tb.Fatal(err)
		}
		in.Net.SetHook(func(kind sim.HookKind, _ *sim.Segment, _ *sim.Iface, pkt *inet.Packet) {
			if kind != sim.HookSend || pkt.Proto != inet.UDP || len(pkt.Payload) == 0 {
				return
			}
			if !seen[string(pkt.Payload)] {
				seen[string(pkt.Payload)] = true
				wires = append(wires, append([]byte(nil), pkt.Payload...))
			}
		})
		s1.Join(s2.Endpoint())
		s2.Join(s1.Endpoint())
		realmA := core.AddSite("NAT-A", nat.Symmetric(), "155.99.25.11", "10.0.0.0/24")
		realmB := core.AddSite("NAT-B", nat.Symmetric(), "138.76.29.7", "10.1.1.0/24")
		cfg := punch.Config{RelayFallback: true, PunchTimeout: 2 * time.Second}
		a := punch.NewClientOver(realmA.AddHost("A", "10.0.0.1", host.BSDStyle).Transport(), "alice", s1.Endpoint(), cfg)
		b := punch.NewClientOver(realmB.AddHost("B", "10.1.1.3", host.BSDStyle).Transport(), "bob", s2.Endpoint(), cfg)
		if err := a.RegisterUDP(4321, nil); err != nil {
			tb.Fatal(err)
		}
		if err := b.RegisterUDP(4321, nil); err != nil {
			tb.Fatal(err)
		}
		in.RunFor(2 * time.Second)
		b.InboundUDP = punch.UDPCallbacks{
			Data: func(s *punch.UDPSession, p []byte) { s.Send([]byte("pong")) },
		}
		a.ConnectUDP("bob", punch.UDPCallbacks{
			Established: func(s *punch.UDPSession, _ ice.Candidate) { s.Send([]byte("ping")) },
		})
		in.RunFor(30 * time.Second)
	}
	captureFed(6)

	if len(wires) < 12 {
		tb.Fatalf("capture produced only %d distinct messages", len(wires))
	}
	hasCandidates := false
	fedTypes := map[proto.Type]bool{}
	for _, w := range wires {
		if m, err := proto.Decode(w); err == nil {
			if len(m.Candidates) > 0 {
				hasCandidates = true
			}
			switch m.Type {
			case proto.TypeFedHello, proto.TypeFedRecord, proto.TypeFedForward:
				fedTypes[m.Type] = true
			}
		}
	}
	if !hasCandidates {
		tb.Fatal("capture produced no candidate-bearing messages")
	}
	if len(fedTypes) != 3 {
		tb.Fatalf("federation capture incomplete: got %v, want hello+record+forward", fedTypes)
	}
	return wires
}

// FuzzMessageParse asserts Decode is total (never panics, never
// reads out of bounds) and canonical: any accepted input re-encodes
// to a wire form that decodes to the identical message, and that
// canonical form is a fixed point of encode∘decode. The two ways of
// encoding and the two ways of decoding agree on every accepted input:
// a message without candidates built by BeginData, its payload and
// EndData, under either obfuscation mode and behind whatever the buffer
// already held, is byte for byte AppendMessage's, and the reusing
// Decoder, which leaves Data where it lies in the input, reads what the
// copying Decode reads.
func FuzzMessageParse(f *testing.F) {
	for _, wire := range capturedCorpus(f) {
		f.Add(wire)
	}
	// Adversarial shapes: empty, bad magic, truncated header, huge
	// declared lengths.
	f.Add([]byte{})
	f.Add([]byte{0xF0})
	f.Add([]byte{0x00, 0x01, 0x00})
	f.Add([]byte{0xF0, 0x05, 0x01, 0xFF, 0xFF})
	// Stream-layer shapes (natpunch/stream rides the same envelope):
	// Nonce carries the stream ID, Seq the offset/ack/limit/token,
	// Requester the FIN bit.
	for _, m := range []proto.Message{
		{Type: proto.TypeStream, Nonce: 2, Seq: 4096, Requester: true, Data: []byte("payload")},
		{Type: proto.TypeStreamAck, Nonce: 2, Seq: 4103, Requester: true},
		{Type: proto.TypeStreamWindow, Nonce: 0, Seq: 1 << 20},
		{Type: proto.TypeStreamReset, Nonce: 3},
		{Type: proto.TypeStreamPing, Nonce: 0, Seq: 0xDEAD, Requester: true},
	} {
		f.Add(proto.Encode(&m, proto.PlainEndpoints))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := proto.Decode(data)
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		canonical := proto.Encode(m, proto.PlainEndpoints)
		m2, err := proto.Decode(canonical)
		if err != nil {
			t.Fatalf("re-encoding a decoded message failed to decode: %v\nmsg: %+v", err, m)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("encode/decode round trip drifted:\n in: %+v\nout: %+v", m, m2)
		}
		if again := proto.Encode(m2, proto.PlainEndpoints); !bytes.Equal(canonical, again) {
			t.Fatalf("canonical form is not a fixed point:\n first: %x\nsecond: %x", canonical, again)
		}
		var dec proto.Decoder
		if md, err := dec.Decode(data); err != nil || !reflect.DeepEqual(normalized(md), normalized(m)) {
			t.Fatalf("Decoder and Decode disagree (%v):\n Decoder: %+v\n  Decode: %+v", err, md, m)
		}
		if len(m.Candidates) > 0 {
			return
		}
		for _, obf := range []proto.Obfuscator{proto.PlainEndpoints, proto.ObfuscatedEndpoints} {
			prefix := []byte("already queued")
			buf := proto.BeginData(prefix, m, obf)
			halves := proto.EndData(append(buf, m.Data...), len(buf))
			if whole := proto.AppendMessage(prefix, m, obf); !bytes.Equal(halves, whole) {
				t.Fatalf("BeginData+payload+EndData differs from AppendMessage (obf %d):\nhalves: %x\n whole: %x", obf, halves, whole)
			}
		}
	})
}

// normalized is m with empty slices for nil ones: a reused Decoder
// keeps the storage of the message before, a fresh Decode has none.
func normalized(m *proto.Message) proto.Message {
	n := *m
	n.Data = append([]byte{}, m.Data...)
	n.Candidates = append([]proto.Candidate{}, m.Candidates...)
	return n
}

// FuzzStreamDecoder asserts the TCP stream framing layer never
// panics and is chunking-invariant: feeding a byte stream all at once
// and one byte at a time must yield the same messages up to the first
// error, and an error must poison both the same way.
func FuzzStreamDecoder(f *testing.F) {
	var framed []byte
	for _, wire := range capturedCorpus(f) {
		framed = binaryAppendFrame(framed, wire)
	}
	f.Add(framed)
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0xF0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	// recvmmsg-batch shapes: a read-loop delivering kernel batches
	// feeds the stream decoder runs of whole frames at once, and the
	// batch boundary can land mid-frame. Seed a 16-frame relay burst
	// (one recvmmsg's worth of back-to-back RelayTo traffic), the same
	// burst cut mid-frame, and a burst with a poisoned tail frame.
	var burst []byte
	for i := 0; i < 16; i++ {
		burst = proto.AppendFrame(burst, &proto.Message{
			Type: proto.TypeRelayTo, From: "alice", Target: "bob",
			Seq: uint32(i + 1), Data: []byte("batched payload"),
		}, proto.PlainEndpoints)
	}
	f.Add(append([]byte(nil), burst...))
	f.Add(append([]byte(nil), burst[:len(burst)-7]...))
	f.Add(append(append([]byte(nil), burst...), 0x00, 0x00, 0x00, 0x03, 0xF0, 0x63, 0x00))
	f.Fuzz(func(t *testing.T, data []byte) {
		var whole proto.StreamDecoder
		batch, batchErr := whole.Feed(data)

		var drip proto.StreamDecoder
		var dripped []*proto.Message
		var dripErr error
		for _, b := range data {
			ms, err := drip.Feed([]byte{b})
			dripped = append(dripped, ms...)
			if err != nil {
				dripErr = err
				break
			}
		}

		if (batchErr == nil) != (dripErr == nil) {
			t.Fatalf("error disagreement: batch=%v drip=%v", batchErr, dripErr)
		}
		if batchErr != nil {
			// Both failed; the drip feed may have yielded a prefix of
			// the batch messages before hitting the poison frame.
			if len(dripped) > len(batch) {
				t.Fatalf("drip decoded %d messages past batch's %d before erroring", len(dripped), len(batch))
			}
			return
		}
		if len(batch) != len(dripped) {
			t.Fatalf("chunking changed message count: batch=%d drip=%d", len(batch), len(dripped))
		}
		for i := range batch {
			if !reflect.DeepEqual(batch[i], dripped[i]) {
				t.Fatalf("message %d differs between feeds:\nbatch: %+v\n drip: %+v", i, batch[i], dripped[i])
			}
		}
	})
}

// binaryAppendFrame length-prefixes raw bytes the way AppendFrame
// does for encoded messages.
func binaryAppendFrame(dst, body []byte) []byte {
	n := uint32(len(body))
	dst = append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	return append(dst, body...)
}
