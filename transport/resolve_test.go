package transport_test

import (
	"strings"
	"testing"

	"natpunch/transport"
)

// sinkConn records what it is sent and lends nothing.
type sinkConn struct {
	last []byte
	to   transport.Endpoint
}

func (c *sinkConn) Local() transport.Endpoint                            { return transport.Endpoint{} }
func (c *sinkConn) OnRecv(func(from transport.Endpoint, payload []byte)) {}
func (c *sinkConn) Close()                                               {}
func (c *sinkConn) SendTo(to transport.Endpoint, p []byte) error {
	c.last, c.to = append(c.last[:0], p...), to
	return nil
}

// lendingConn lends its send buffer.
type lendingConn struct{ sinkConn }

func (c *lendingConn) Reserve() []byte                              { return nil }
func (c *lendingConn) Commit(to transport.Endpoint, p []byte) error { return c.SendTo(to, p) }

// TestSendBufferReturnsLendingConn: a conn that lends its send buffer
// is its own sender.
func TestSendBufferReturnsLendingConn(t *testing.T) {
	c := &lendingConn{}
	if s := transport.SendBuffer(c); s != c {
		t.Fatalf("SendBuffer(lending conn) = %T %p, want the conn %p", s, s, c)
	}
}

// TestScratchSenderZeroAlloc: on a conn that does not lend its send
// buffer, SendBuffer's sender sends exactly the bytes committed, keeps
// the capacity the appends grew its scratch to, and allocates nothing
// once it has.
func TestScratchSenderZeroAlloc(t *testing.T) {
	c := &sinkConn{last: make([]byte, 0, 4096)}
	s := transport.SendBuffer(c)
	to := transport.MustParseEndpoint("155.99.25.11:62000")
	big := make([]byte, 1500)
	for i := range big {
		big[i] = byte(i)
	}
	if err := s.Commit(to, append(s.Reserve(), big...)); err != nil {
		t.Fatal(err)
	}
	if string(c.last) != string(big) || c.to != to {
		t.Fatalf("sent %d bytes to %v, want the %d committed to %v", len(c.last), c.to, len(big), to)
	}
	grown := cap(s.Reserve())
	if grown < len(big) {
		t.Fatalf("scratch capacity %d after a %d-byte datagram, want it kept", grown, len(big))
	}
	small := []byte("a short one")
	step := func() {
		if err := s.Commit(to, append(s.Reserve(), small...)); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("Reserve+Commit allocate %v/op in steady state, want 0", allocs)
	}
	if string(c.last) != string(small) || cap(s.Reserve()) != grown {
		t.Fatalf("sent %q with scratch capacity %d, want %q and %d", c.last, cap(s.Reserve()), small, grown)
	}
}

// deferringTransport has an end of entry.
type deferringTransport struct {
	transport.Transport
	hooks []func()
}

func (t *deferringTransport) Defer(fn func()) { t.hooks = append(t.hooks, fn) }

// TestEntryEnd: a transport with an end of entry is its own Deferrer;
// on one without, Defer runs fn at once, and so a Defer nested in fn.
func TestEntryEnd(t *testing.T) {
	tr := &deferringTransport{}
	if d := transport.EntryEnd(tr); d != tr {
		t.Fatalf("EntryEnd(Deferrer) = %T, want the transport", d)
	}
	d := transport.EntryEnd(struct{ transport.Transport }{})
	var ran []string
	d.Defer(func() {
		ran = append(ran, "outer")
		d.Defer(func() { ran = append(ran, "nested") })
		ran = append(ran, "outer done")
	})
	if got := strings.Join(ran, ", "); got != "outer, nested, outer done" {
		t.Fatalf("ran %s, want outer, nested, outer done: each at once", got)
	}
}
