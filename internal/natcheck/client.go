package natcheck

import (
	"natpunch/internal/host"
	"natpunch/internal/inet"
	"natpunch/internal/tcp"
)

// Client runs the NAT Check procedure from behind the NAT under test.
type Client struct {
	h    *host.Host
	sv   *Servers
	port inet.Port // primary local port (UDP and TCP)
	done func(Report)

	r Report

	// UDP state.
	udp1, udp2 *host.UDPSocket
	gotUDP1    bool
	gotUDP2    bool
	gotUnsol   bool
	gotHairpin bool

	// TCP state.
	listener    *host.TCPListener
	conn1       *tcp.Conn
	conn2       *tcp.Conn
	gotTCP1     bool
	gotTCP2     bool
	incomingTCP bool // listener accepted before server 2's reply
	probeEP     inet.Endpoint
	hairpinTCP  bool
}

// Run starts a complete NAT Check (UDP then TCP then hairpin tests)
// against the servers. The report arrives via done after roughly
// CheckDuration of virtual time.
func Run(h *host.Host, sv *Servers, localPort inet.Port, done func(Report)) error {
	c := &Client{h: h, sv: sv, port: localPort, done: done}
	if err := c.startUDP(); err != nil {
		return err
	}
	if err := c.startTCP(); err != nil {
		return err
	}
	// Evaluate UDP consistency and kick off the hairpin probes once
	// the direct answers should have arrived.
	h.Sched().After(replyWait, c.udpPhase2)
	// Close the book after the TCP dance has had time to finish.
	h.Sched().After(CheckDuration, c.finish)
	return nil
}

// RunUDP runs the check's opening UDP phase alone (§6.1.1): one
// socket on localPort asks servers 1 and 2 for its public endpoint.
// No TCP or hairpin probe follows and no filtering verdict is taken,
// so the NAT opens only the mappings the report shows. The report,
// with only UDPResponded, UDPPublic1, UDPPublic2 and UDPConsistent
// set, arrives via done after replyWait of virtual time.
func RunUDP(h *host.Host, sv *Servers, localPort inet.Port, done func(Report)) error {
	c := &Client{h: h, sv: sv, port: localPort}
	if err := c.startUDP(); err != nil {
		return err
	}
	h.Sched().After(replyWait, func() {
		c.udpVerdict()
		c.udp1.Close()
		done(c.r)
	})
	return nil
}

// --- UDP test (§6.1.1, Figure 8) ---

func (c *Client) startUDP() error {
	s, err := c.h.UDPBind(c.port)
	if err != nil {
		return err
	}
	c.udp1 = s
	s.OnRecv(c.handleUDP)
	token := []byte{0, 0, 0, 1}
	s.SendTo(c.sv.Server1(), append([]byte{tagQuery}, token...))
	s.SendTo(c.sv.Server2(), append([]byte{tagQueryFwd}, token...))
	return nil
}

func (c *Client) handleUDP(from inet.Endpoint, p []byte) {
	if len(p) < 5 {
		return
	}
	switch p[0] {
	case tagAnswer:
		ep, _ := readEP(p[5:])
		switch from {
		case c.sv.Server1():
			c.r.UDPPublic1, c.gotUDP1 = ep, true
		case c.sv.Server2():
			c.r.UDPPublic2, c.gotUDP2 = ep, true
		}
	case tagUnsol:
		// Server 3's reply arrived: the NAT does not filter
		// unsolicited inbound traffic.
		c.gotUnsol = true
	case tagHairpin:
		// Our second socket's probe looped back (§6.1.1's hairpin
		// check).
		c.gotHairpin = true
	}
}

// udpVerdict records whether both servers answered and whether they
// saw the same public endpoint (§5.1's consistent translation).
func (c *Client) udpVerdict() {
	c.r.UDPResponded = c.gotUDP1 && c.gotUDP2
	c.r.UDPConsistent = c.r.UDPResponded && c.r.UDPPublic1 == c.r.UDPPublic2
}

// udpPhase2 evaluates consistency and launches the hairpin probe at
// the public endpoint reported by server 2.
func (c *Client) udpPhase2() {
	c.udpVerdict()
	if !c.r.UDPResponded {
		return
	}
	s2, err := c.h.UDPBind(c.port + 1)
	if err != nil {
		return
	}
	c.udp2 = s2
	s2.SendTo(c.r.UDPPublic2, []byte{tagHairpin, 0, 0, 0, 2})
}

// --- TCP test (§6.1.2) ---

func (c *Client) startTCP() error {
	l, err := c.h.TCPListen(c.port, true, func(conn *tcp.Conn) {
		// An inbound connection on the primary port. Before server 2's
		// delayed reply this can only be server 3's probe: the NAT let
		// the unsolicited SYN through. Afterwards, a connection from
		// the probe endpoint is the simultaneous open landing on the
		// listen socket (the Linux-flavored §4.3 outcome).
		if !c.gotTCP2 {
			c.incomingTCP = true
			c.r.TCPConnS3OK = true
		} else if conn.Remote() == c.probeEP {
			c.r.TCPConnS3OK = true
		}
	})
	if err != nil {
		return err
	}
	c.listener = l

	c.conn1, err = c.h.TCPDial(c.sv.Server1(), host.DialOpts{LocalPort: c.port, ReuseAddr: true}, tcp.Callbacks{
		Established: func(cn *tcp.Conn) {
			cn.Write([]byte{tagTCPQuery, 0, 0, 0, 3})
		},
		Data: func(cn *tcp.Conn, p []byte) {
			if len(p) >= 11 && p[0] == tagTCPAnswer {
				c.r.TCPPublic1, _ = readEP(p[5:])
				c.gotTCP1 = true
			}
		},
	})
	if err != nil {
		return err
	}

	c.conn2, err = c.h.TCPDial(c.sv.Server2(), host.DialOpts{LocalPort: c.port, ReuseAddr: true}, tcp.Callbacks{
		Established: func(cn *tcp.Conn) {
			cn.Write([]byte{tagTCPQuery2, 0, 0, 0, 4})
		},
		Data: func(cn *tcp.Conn, p []byte) {
			if len(p) >= 17 && p[0] == tagTCPAnswer {
				c.r.TCPPublic2, p = readEPAt(p, 5)
				c.probeEP, _ = readEPAt(p, 0)
				c.gotTCP2 = true
				c.tcpPhase2()
			}
		},
	})
	return err
}

func readEPAt(p []byte, off int) (inet.Endpoint, []byte) {
	return readEP(p[off:])
}

// tcpPhase2 runs once server 2's delayed reply arrives: attempt the
// outbound connection to server 3, "effectively causing a
// simultaneous TCP open with server 3" (§6.1.2), then the hairpin
// probe.
func (c *Client) tcpPhase2() {
	c.r.TCPResponded = c.gotTCP1 && c.gotTCP2
	c.r.TCPConsistent = c.r.TCPResponded && c.r.TCPPublic1 == c.r.TCPPublic2

	if !c.incomingTCP && !c.probeEP.IsZero() {
		_, err := c.h.TCPDial(c.probeEP, host.DialOpts{LocalPort: c.port, ReuseAddr: true}, tcp.Callbacks{
			Established: func(cn *tcp.Conn) { c.r.TCPConnS3OK = true },
		})
		if err != nil {
			// 4-tuple already owned by an accepted probe connection.
			c.r.TCPConnS3OK = true
		}
	}

	// Hairpin: from a secondary local port, connect to the primary
	// port's public endpoint; success means the NAT looped the SYN
	// back to our own listener (§6.1.2).
	if c.r.TCPResponded {
		c.h.TCPDial(c.r.TCPPublic2, host.DialOpts{LocalPort: c.port + 1, ReuseAddr: true}, tcp.Callbacks{
			Established: func(cn *tcp.Conn) { c.hairpinTCP = true },
		})
	}
}

// finish classifies and delivers the report.
func (c *Client) finish() {
	c.r.UDPFilters = !c.gotUnsol
	c.r.UDPHairpin = c.gotHairpin
	c.r.TCPHairpin = c.hairpinTCP

	switch {
	case !c.r.TCPResponded:
		c.r.SYNBehavior = SYNUnknown
	case c.incomingTCP:
		c.r.SYNBehavior = SYNAllowedThrough
	case c.r.TCPConnS3OK:
		c.r.SYNBehavior = SYNDropped
	default:
		c.r.SYNBehavior = SYNRejected
	}

	if c.udp1 != nil {
		c.udp1.Close()
	}
	if c.udp2 != nil {
		c.udp2.Close()
	}
	if c.done != nil {
		c.done(c.r)
	}
}
