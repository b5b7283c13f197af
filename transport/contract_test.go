package transport_test

import (
	"net"
	"testing"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/inet"
	"natpunch/internal/sim"
	"natpunch/realudp"
	"natpunch/transport"
)

const (
	original    = "the bytes as they were sent"
	overwritten = "something else entirely, sorry"
)

// sendThenOverwrite sends original from a buffer through conn and
// overwrites the buffer as soon as SendTo returns, which the UDPConn
// contract allows.
func sendThenOverwrite(conn transport.UDPConn, to transport.Endpoint) error {
	buf := []byte(original)
	err := conn.SendTo(to, buf)
	copy(buf, overwritten)
	return err
}

// TestSendToReleasesPayload holds every transport to the UDPConn
// contract: a payload is the caller's again once SendTo returns, so
// overwriting it then leaves the datagram on the wire as it was sent.
func TestSendToReleasesPayload(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		n := sim.NewNetwork(1)
		core := n.NewSegment("core", "0.0.0.0/0", 5*time.Millisecond)
		a, b := host.New(n, "A", host.BSDStyle), host.New(n, "B", host.BSDStyle)
		a.Attach(core, inet.MustParseAddr("1.0.0.1"))
		b.Attach(core, inet.MustParseAddr("1.0.0.2"))
		sender, err := a.Transport().BindUDP(4321)
		if err != nil {
			t.Fatal(err)
		}
		receiver, err := b.Transport().BindUDP(1234)
		if err != nil {
			t.Fatal(err)
		}
		var got string
		receiver.OnRecv(func(_ transport.Endpoint, p []byte) { got = string(p) })
		if err := sendThenOverwrite(sender, receiver.Local()); err != nil {
			t.Fatal(err)
		}
		n.Sched.Run()
		if got != original {
			t.Fatalf("receiver got %q, want %q", got, original)
		}
	})
	t.Run("realudp", func(t *testing.T) {
		sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Skipf("loopback UDP unavailable: %v", err)
		}
		defer sink.Close()
		to, err := realudp.ToEndpoint(sink.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := realudp.New("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		// Inside Invoke the socket queues the datagram until the entry
		// ends, after the overwrite.
		tr.Invoke(func() {
			var conn transport.UDPConn
			if conn, err = tr.BindUDP(0); err == nil {
				err = sendThenOverwrite(conn, to)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		sink.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 256)
		nb, _, err := sink.ReadFromUDP(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(buf[:nb]); got != original {
			t.Fatalf("receiver got %q, want %q", got, original)
		}
	})
}
