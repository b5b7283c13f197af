package natpunch

import (
	"errors"

	"natpunch/transport"
)

// Carry hands the Conn's datagram flow to a stream session: inbound
// datagrams are delivered to onDatagram instead of the Read queue
// (any datagrams already queued are drained through it first, in
// order), and onDead fires exactly once when the session terminates —
// with ErrSessionDead on §3.6 idle death, ErrSuperseded when a fresh
// dial to the same peer replaces the session, or ErrClosed when the
// Conn is closed locally.
//
// Both callbacks run in the transport's engine context (the same
// serialized context as Transport().Invoke) and must not block; the
// payload passed to onDatagram is valid only for the duration of the
// call. After Carry, Read and Write on the Conn return ErrCarried,
// while Peer, Path, RemoteAddr, OnPathChange delivery, and Close keep
// working — the stream session rides every relay↔direct migration
// the session makes.
//
// Carry is the seam the natpunch/stream package builds on; most
// applications use stream.NewSession instead of calling it directly.
func (c *Conn) Carry(onDatagram func(p []byte), onDead func(err error)) (*Carrier, error) {
	if onDatagram == nil {
		return nil, errors.New("natpunch: Carry: nil onDatagram callback")
	}
	var (
		cr  *Carrier
		err error
	)
	c.d.tr.Invoke(func() {
		c.mu.Lock()
		switch {
		case c.closed:
			err = ErrClosed
		case c.dead:
			err = c.deadError()
		case c.tap != nil:
			err = errors.New("natpunch: Carry: conn already carried")
		}
		if err != nil {
			c.mu.Unlock()
			return
		}
		c.tap = onDatagram
		c.onDead = onDead
		queued := c.inbox
		c.inbox = nil
		c.mu.Unlock()
		for i, p := range queued {
			queued[i] = nil
			onDatagram(p)
		}
		cr = &Carrier{c: c}
	})
	if err != nil {
		return nil, err
	}
	return cr, nil
}

// Carrier is the sending half of a carried Conn: the handle a stream
// session uses to transmit datagrams and reach the session's
// transport seam.
type Carrier struct {
	c *Conn
}

// Send transmits one datagram on the session's live path (direct or
// relayed — migrations are transparent). Engine context only: call it
// from inside Transport().Invoke or from an engine callback. The
// payload may be reused once Send returns. Send errors mean the
// datagram was not sent — reliability is the caller's concern, and
// terminal session failure arrives via the Carry onDead callback.
func (cr *Carrier) Send(p []byte) error { return cr.c.sess.Send(p) }

// BeginSend and EndSend are Send in two halves, for a sender that
// builds its datagram where it will be sent from instead of handing
// over a finished one to be copied: BeginSend returns a buffer, the
// caller appends the datagram to it — behind whatever the buffer
// already holds, which is the session's envelope — and EndSend
// transmits the result like Send. Over a transport whose sockets lend
// their send buffer (transport.InPlaceSender; realudp) the appended
// bytes are not copied again before the kernel takes them; over any
// other the buffer is a scratch or a fresh array and nothing else
// differs. Engine context only, every BeginSend followed by its EndSend
// before anything else is sent; the buffer belongs to the session and
// must not be kept, or touched, after EndSend.
func (cr *Carrier) BeginSend() []byte { return cr.c.sess.BeginSend() }

// EndSend transmits the datagram appended to BeginSend's buffer; see
// BeginSend. Errors are Send's.
func (cr *Carrier) EndSend(p []byte) error { return cr.c.sess.EndSend(p) }

// Transport returns the session's transport seam; its Invoke is the
// door into engine context, and its After/Now drive protocol timers
// deterministically under simulation.
func (cr *Carrier) Transport() transport.Transport { return cr.c.d.tr }

// Conn returns the carried Conn.
func (cr *Carrier) Conn() *Conn { return cr.c }

// LocalName returns this endpoint's rendezvous name, the peer of
// Conn.Peer — the pair lets symmetric protocols break ties (the
// stream layer derives stream-ID parity from it).
func (cr *Carrier) LocalName() string { return cr.c.d.name }
