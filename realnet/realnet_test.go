package realnet_test

import (
	"net"
	"testing"
	"time"

	"natpunch/realnet"
)

// requireLoopbackTCP skips when loopback listeners cannot accept
// connections in this environment (restricted CI containers and
// sandboxes sometimes permit binding but drop loopback traffic).
func requireLoopbackTCP(t *testing.T) {
	t.Helper()
	l, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Skipf("TCP loopback unavailable: %v", err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			c.Close()
		}
		done <- err
	}()
	c, err := net.DialTimeout("tcp4", l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Skipf("TCP loopback dial failed: %v", err)
	}
	c.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Skipf("TCP loopback accept failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Skip("TCP loopback accept timed out")
	}
}

// TestTCPPortReuse exercises the §4.1 socket arrangement on real
// sockets: a listener and an outgoing connection sharing one local
// port.
func TestTCPPortReuse(t *testing.T) {
	requireLoopbackTCP(t)
	// A peer to dial: plain listener.
	peer, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	go func() {
		for {
			c, err := peer.Accept()
			if err != nil {
				return
			}
			c.Write([]byte("hi"))
			c.Close()
		}
	}()

	l, err := realnet.ListenTCPReuse("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	local := l.Addr().String()

	// Outgoing connection from the listener's own port.
	conn, err := realnet.DialTCPFromPort(local, peer.Addr().String())
	if err != nil {
		t.Fatalf("dial from listening port: %v", err)
	}
	defer conn.Close()
	buf := make([]byte, 2)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(buf) != "hi" {
		t.Errorf("got %q", buf)
	}
	// A second outgoing connection from the same port to a different
	// destination also binds.
	peer2, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer2.Close()
	conn2, err := realnet.DialTCPFromPort(local, peer2.Addr().String())
	if err != nil {
		t.Fatalf("second dial from listening port: %v", err)
	}
	conn2.Close()
}
