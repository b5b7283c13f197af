package rendezvous

import (
	"bytes"
	"net"
	"testing"
	"time"

	"natpunch/internal/proto"
	"natpunch/realudp"
)

// TestRealSocketRelayZeroAlloc is the relay hop on real sockets: a
// RelayTo carrying a full stream datagram goes in through realudp's
// batched read loop, is decoded where the kernel put it, re-encoded
// once — into the buffer the socket sends from — and comes out as the
// Relayed the target reads, byte for byte, with nothing allocated per
// forwarded datagram anywhere in the process.
func TestRealSocketRelayZeroAlloc(t *testing.T) {
	tr, err := realudp.New("127.0.0.1:0")
	if err != nil {
		t.Skipf("UDP loopback unavailable: %v", err)
	}
	defer tr.Close()
	var s *Server
	tr.Invoke(func() { s, err = Serve(tr, Config{RelayOnly: true}) })
	if err != nil {
		t.Skipf("UDP loopback unavailable: %v", err)
	}
	if s.inPlace == nil {
		t.Fatal("a realudp socket does not lend its send buffer: the path under test is off")
	}
	server := realudp.ToUDPAddr(s.Endpoint())

	buf := make([]byte, 2048)
	client := func(name string) *net.UDPConn {
		c, err := net.DialUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}, server)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		local, _ := realudp.ToEndpoint(c.LocalAddr().(*net.UDPAddr))
		c.Write(proto.Encode(&proto.Message{Type: proto.TypeRegister, From: name, Private: local}, 0))
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := c.Read(buf)
		if err != nil {
			t.Skipf("UDP loopback does not deliver datagrams: %v", err)
		}
		if m, err := proto.Decode(buf[:n]); err != nil || m.Type != proto.TypeRegisterOK || m.Public != local {
			t.Fatalf("%s registered as %+v (%v), want its own endpoint back", name, m, err)
		}
		return c
	}
	alice, bob := client("alice"), client("bob")

	data := make([]byte, 1152)
	for i := range data {
		data[i] = byte(i*13 + i>>8)
	}
	in := proto.Encode(&proto.Message{Type: proto.TypeRelayTo, From: "alice", Target: "bob", Seq: 7, Data: data}, 0)
	want := proto.Encode(&proto.Message{Type: proto.TypeRelayed, From: "alice", Target: "bob", Seq: 7, Data: data}, 0)
	forwarded := 0
	hop := func() {
		if _, err := alice.Write(in); err != nil {
			t.Fatal(err)
		}
		n, err := bob.Read(buf)
		if err != nil || !bytes.Equal(buf[:n], want) {
			t.Fatalf("forwarded datagram %d: %d bytes (%v), want the %d of the Relayed form", forwarded, n, err, len(want))
		}
		forwarded++
	}
	bob.SetReadDeadline(time.Now().Add(30 * time.Second))
	for i := 0; i < 8; i++ {
		hop() // the socket's arena and the intern table grow here
	}
	if allocs := testing.AllocsPerRun(500, hop); allocs != 0 {
		t.Errorf("a forwarded datagram allocates %v/op in steady state, want 0", allocs)
	}
	var relayed uint64
	tr.Invoke(func() { relayed = s.Stats().RelayedMessages })
	if relayed != uint64(forwarded) {
		t.Errorf("server counted %d relayed messages, %d were read", relayed, forwarded)
	}
}
