// Package tcp implements a TCP connection state machine for the
// simulated network substrate, faithful to RFC 793 in the aspects
// that matter for TCP hole punching (§4 of the paper):
//
//   - the full connection state diagram, including simultaneous open
//     (SYN-SENT receiving a bare SYN moves to SYN-RCVD and replays the
//     original SYN as part of a SYN-ACK, §4.4);
//   - SYN retransmission with exponential backoff, so a first SYN
//     dropped by the remote NAT is recovered by either a retransmit or
//     the peer's crossing SYN;
//   - RST and ICMP error propagation, so "connection reset" and "host
//     unreachable" surface to the application, which the hole punching
//     procedure treats as transient and retries (§4.2 step 4, §5.2);
//   - a reliable byte stream (cumulative ACK, go-back-N
//     retransmission) sufficient for the data-transfer experiments.
//
// Flow control and congestion control are deliberately simplified
// (fixed large window): the paper's results do not depend on them.
// Sequence arithmetic lives in the shared internal/stream package,
// which grew out of this file's seq helpers.
package tcp

import (
	"errors"
	"fmt"
	"time"

	"natpunch/internal/inet"
	"natpunch/internal/sim"
	"natpunch/internal/stream"
)

// State is a TCP connection state per RFC 793.
type State uint8

// TCP connection states.
const (
	Closed State = iota
	SynSent
	SynRcvd
	Established
	FinWait1
	FinWait2
	Closing
	CloseWait
	LastAck
	TimeWait
)

var stateNames = [...]string{
	"CLOSED", "SYN-SENT", "SYN-RCVD", "ESTABLISHED", "FIN-WAIT-1",
	"FIN-WAIT-2", "CLOSING", "CLOSE-WAIT", "LAST-ACK", "TIME-WAIT",
}

// String returns the RFC 793 state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Errors surfaced to the application. The hole punching procedure
// distinguishes transient network errors (reset, unreachable), which
// it retries (§4.2 step 4), from local API errors (address in use,
// §4.3 second behavior), which it ignores once a working stream
// exists.
var (
	ErrReset       = errors.New("tcp: connection reset")
	ErrUnreachable = errors.New("tcp: host unreachable")
	ErrTimeout     = errors.New("tcp: connection timed out")
	ErrClosed      = errors.New("tcp: connection closed")
	ErrAddrInUse   = errors.New("tcp: address already in use")
)

// Segmentation and timers. synRTO is the paper's suggested one-second
// delay before a failed connection attempt is retried (§4.2 step 4);
// it doubles per retry.
const (
	mss    = 1400                   // maximum payload bytes per segment
	rto    = 200 * time.Millisecond // fixed data retransmission timeout
	synRTO = time.Second
	msl    = 500 * time.Millisecond // maximum segment lifetime; TIME-WAIT lasts 2*msl
)

// Config tunes a connection's open attempt.
type Config struct {
	// SYNRetries is how many times a SYN is retransmitted before the
	// open attempt fails with ErrTimeout (default 5).
	SYNRetries int
}

// Env supplies a connection's environment: time, timers, segment
// output, and removal from the owner's demux table. Keeping this a
// plain struct of functions decouples the state machine from the host
// stack so it can be unit-tested against a scripted wire.
type Env struct {
	Now    func() time.Duration
	After  func(time.Duration, func()) *sim.Timer
	Send   func(*inet.Packet)
	Remove func(*Conn)
}

// Callbacks are the application-visible events of a connection. Any
// field may be nil.
type Callbacks struct {
	// Established fires when the three-way handshake (or simultaneous
	// open) completes.
	Established func(*Conn)
	// Data fires for each in-order payload chunk.
	Data func(*Conn, []byte)
	// RemoteClosed fires when the peer's FIN is received.
	RemoteClosed func(*Conn)
	// Closed fires when the connection reaches CLOSED (after
	// TIME-WAIT, abort, or final ACK).
	Closed func(*Conn)
	// Error fires when the connection fails: ErrReset, ErrTimeout,
	// ErrUnreachable, ErrAddrInUse.
	Error func(*Conn, error)
}

// segment is an entry in the retransmission queue.
type segment struct {
	seq     uint32
	payload []byte
	fin     bool
}

// Conn is one TCP connection endpoint.
type Conn struct {
	env Env
	cfg Config
	cb  Callbacks

	local, remote inet.Endpoint
	state         State

	// Accepted records whether the connection was created by a
	// listener (passive open). §4.3: applications must not care
	// whether the working peer-to-peer socket came from connect() or
	// accept(); experiments nevertheless report which one happened.
	Accepted bool

	iss    uint32 // initial send sequence
	irs    uint32 // initial receive sequence
	sndUna uint32 // oldest unacknowledged
	sndNxt uint32 // next sequence to send
	rcvNxt uint32 // next sequence expected

	rtxq       []segment // unacknowledged segments
	pending    []byte    // data accepted from the app but not yet segmentized
	finQueued  bool      // app called Close; FIN not yet sent
	finSent    bool
	finSeq     uint32 // sequence number of our FIN
	rcvdFin    bool
	synRetries int

	rtxTimer  *sim.Timer
	waitTimer *sim.Timer

	err  error
	done bool // terminal callbacks delivered
}

// NewConn builds a connection bound to the given session endpoints.
// iss is the initial send sequence number (the host stack supplies a
// deterministic pseudo-random value).
func NewConn(env Env, cfg Config, local, remote inet.Endpoint, iss uint32, cb Callbacks) *Conn {
	if cfg.SYNRetries == 0 {
		cfg.SYNRetries = 5
	}
	return &Conn{env: env, cfg: cfg, cb: cb, local: local, remote: remote, iss: iss,
		sndUna: iss, sndNxt: iss}
}

// SetCallbacks replaces all of the connection's callbacks. Hosts use
// it when handing accepted connections to the application.
func (c *Conn) SetCallbacks(cb Callbacks) { c.cb = cb }

// OnData sets the in-order payload callback.
func (c *Conn) OnData(fn func(*Conn, []byte)) { c.cb.Data = fn }

// OnClosed sets the terminal-close callback.
func (c *Conn) OnClosed(fn func(*Conn)) { c.cb.Closed = fn }

// OnError sets the failure callback.
func (c *Conn) OnError(fn func(*Conn, error)) { c.cb.Error = fn }

// Local returns the connection's local endpoint.
func (c *Conn) Local() inet.Endpoint { return c.local }

// Remote returns the connection's remote endpoint.
func (c *Conn) Remote() inet.Endpoint { return c.remote }

// State returns the current RFC 793 state.
func (c *Conn) State() State { return c.state }

// ISS returns the initial send sequence number. A Linux-style stack's
// listener child inherits the ISS of the connect socket it displaces,
// so that its SYN-ACK replays the original outbound SYN (§4.3).
func (c *Conn) ISS() uint32 { return c.iss }

// Err returns the terminal error, if the connection failed.
func (c *Conn) Err() error { return c.err }

// Session returns the connection's 4-tuple.
func (c *Conn) Session() inet.Session {
	return inet.Session{Local: c.local, Remote: c.remote}
}

// Open performs an active open: transmit the initial SYN and enter
// SYN-SENT.
func (c *Conn) Open() {
	if c.state != Closed {
		return
	}
	c.state = SynSent
	c.sendSYN(false)
	c.armSYNTimer()
}

// OpenPassive performs a passive open from a received SYN: record the
// peer's ISN, send SYN-ACK, and enter SYN-RCVD.
func (c *Conn) OpenPassive(syn *inet.Packet) {
	if c.state != Closed {
		return
	}
	c.Accepted = true
	c.irs = syn.Seq
	c.rcvNxt = syn.Seq + 1
	c.state = SynRcvd
	c.sendSYN(true)
	c.armSYNTimer()
}

func (c *Conn) sendSYN(withAck bool) {
	pkt := &inet.Packet{
		Proto: inet.TCP, Src: c.local, Dst: c.remote, TTL: inet.DefaultTTL,
		Flags: inet.FlagSYN, Seq: c.iss,
	}
	if withAck {
		pkt.Flags |= inet.FlagACK
		pkt.Ack = c.rcvNxt
	}
	c.sndNxt = c.iss + 1
	c.env.Send(pkt)
}

func (c *Conn) armSYNTimer() {
	c.stopRtx()
	c.rtxTimer = c.env.After(synRTO<<uint(c.synRetries), c.synTimeout)
}

func (c *Conn) synTimeout() {
	if c.state != SynSent && c.state != SynRcvd {
		return
	}
	c.synRetries++
	if c.synRetries > c.cfg.SYNRetries {
		c.fail(ErrTimeout)
		return
	}
	// Retransmit the SYN (SYN-ACK in SYN-RCVD), exactly replaying the
	// original sequence number — the "replay" the paper describes in
	// the SYN-ACK of a simultaneous open (§4.4).
	c.sendSYN(c.state == SynRcvd)
	c.armSYNTimer()
}

// Write queues application data for transmission. Data written before
// the handshake completes is buffered and flushed on establishment.
func (c *Conn) Write(data []byte) error {
	switch c.state {
	case Closed:
		if c.err != nil {
			return c.err
		}
		return ErrClosed
	case FinWait1, FinWait2, Closing, LastAck, TimeWait:
		return ErrClosed
	}
	if c.finQueued {
		return ErrClosed
	}
	c.pending = append(c.pending, data...)
	c.pump()
	return nil
}

// Close initiates a graceful close: any queued data is sent, followed
// by a FIN.
func (c *Conn) Close() {
	switch c.state {
	case Closed, FinWait1, FinWait2, Closing, LastAck, TimeWait:
		return
	case SynSent:
		// Nothing established yet; just tear down.
		c.teardown(nil)
		return
	}
	if c.finQueued {
		return
	}
	c.finQueued = true
	c.pump()
}

// Abort sends an RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.state == Closed {
		return
	}
	c.env.Send(&inet.Packet{
		Proto: inet.TCP, Src: c.local, Dst: c.remote, TTL: inet.DefaultTTL,
		Flags: inet.FlagRST | inet.FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt,
	})
	c.teardown(nil)
}

// pump moves pending data (and a queued FIN) onto the wire when the
// state allows sending.
func (c *Conn) pump() {
	if c.state != Established && c.state != CloseWait {
		return
	}
	for len(c.pending) > 0 {
		n := min(len(c.pending), mss)
		chunk := c.pending[:n:n]
		c.pending = c.pending[n:]
		seg := segment{seq: c.sndNxt, payload: chunk}
		c.rtxq = append(c.rtxq, seg)
		c.transmit(seg)
		c.sndNxt += uint32(n)
	}
	if c.finQueued && !c.finSent {
		c.finSent = true
		c.finSeq = c.sndNxt
		seg := segment{seq: c.sndNxt, fin: true}
		c.rtxq = append(c.rtxq, seg)
		c.transmit(seg)
		c.sndNxt++
		if c.state == Established {
			c.setState(FinWait1)
		} else { // CloseWait
			c.setState(LastAck)
		}
	}
	c.armRtx()
}

func (c *Conn) transmit(seg segment) {
	pkt := &inet.Packet{
		Proto: inet.TCP, Src: c.local, Dst: c.remote, TTL: inet.DefaultTTL,
		Flags: inet.FlagACK, Seq: seg.seq, Ack: c.rcvNxt, Payload: seg.payload,
	}
	if seg.fin {
		pkt.Flags |= inet.FlagFIN
	}
	c.env.Send(pkt)
}

func (c *Conn) armRtx() {
	if len(c.rtxq) == 0 {
		c.stopRtx()
		return
	}
	if c.rtxTimer.Active() {
		return
	}
	c.rtxTimer = c.env.After(rto, c.rtxTimeout)
}

func (c *Conn) rtxTimeout() {
	if len(c.rtxq) == 0 {
		return
	}
	// Go-back-N: retransmit everything outstanding.
	for _, seg := range c.rtxq {
		c.transmit(seg)
	}
	c.rtxTimer = c.env.After(rto, c.rtxTimeout)
}

func (c *Conn) stopRtx() {
	if c.rtxTimer != nil {
		c.rtxTimer.Stop()
	}
}

func (c *Conn) sendACK() {
	c.env.Send(&inet.Packet{
		Proto: inet.TCP, Src: c.local, Dst: c.remote, TTL: inet.DefaultTTL,
		Flags: inet.FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt,
	})
}

func (c *Conn) setState(s State) { c.state = s }

// fail terminates the connection with an error.
func (c *Conn) fail(err error) {
	c.err = err
	c.teardown(err)
}

// teardown releases timers, removes the conn from its owner, and
// delivers terminal callbacks exactly once.
func (c *Conn) teardown(err error) {
	if c.done {
		return
	}
	c.done = true
	c.setState(Closed)
	c.stopRtx()
	if c.waitTimer != nil {
		c.waitTimer.Stop()
	}
	if c.env.Remove != nil {
		c.env.Remove(c)
	}
	if err != nil && c.cb.Error != nil {
		c.cb.Error(c, err)
	}
	if c.cb.Closed != nil {
		c.cb.Closed(c)
	}
}

// DeliverICMP routes an ICMP error to the connection. Unreachable
// errors are hard failures during connection establishment (the
// "host unreachable" of §4.2 step 4) and ignored once established,
// mirroring common stack behavior.
func (c *Conn) DeliverICMP(pkt *inet.Packet) {
	switch c.state {
	case SynSent, SynRcvd:
		c.fail(ErrUnreachable)
	}
}

// FailAddrInUse aborts the connection with ErrAddrInUse. The host
// stack invokes it on a connecting socket whose 4-tuple has been
// taken over by a listener-spawned socket — the second §4.3 behavior,
// observed on Linux and Windows.
func (c *Conn) FailAddrInUse() { c.fail(ErrAddrInUse) }

// Deliver processes an incoming segment for this connection.
func (c *Conn) Deliver(pkt *inet.Packet) {
	if pkt.Flags.Has(inet.FlagRST) {
		c.handleRST(pkt)
		return
	}
	switch c.state {
	case SynSent:
		c.deliverSynSent(pkt)
	case SynRcvd:
		c.deliverSynRcvd(pkt)
	case Established, FinWait1, FinWait2, Closing, CloseWait, LastAck:
		c.deliverData(pkt)
	case TimeWait:
		// Retransmitted FIN: re-ACK.
		if pkt.Flags.Has(inet.FlagFIN) {
			c.sendACK()
		}
	case Closed:
		// Stray segment; owner should have removed us.
	}
}

func (c *Conn) handleRST(pkt *inet.Packet) {
	switch c.state {
	case Closed:
		return
	case SynSent:
		// RFC 793: acceptable only if it ACKs our SYN; we accept any
		// RST carrying a plausible ack to keep NAT-injected resets
		// (§5.2) effective.
		if !pkt.Flags.Has(inet.FlagACK) || pkt.Ack == c.sndNxt {
			c.fail(ErrReset)
		}
	default:
		c.fail(ErrReset)
	}
}

func (c *Conn) deliverSynSent(pkt *inet.Packet) {
	switch {
	case pkt.Flags.Has(inet.FlagSYN | inet.FlagACK):
		if pkt.Ack != c.sndNxt {
			// Half-open remnant; reset per RFC 793.
			c.env.Send(&inet.Packet{
				Proto: inet.TCP, Src: c.local, Dst: c.remote, TTL: inet.DefaultTTL,
				Flags: inet.FlagRST, Seq: pkt.Ack,
			})
			return
		}
		c.irs = pkt.Seq
		c.rcvNxt = pkt.Seq + 1
		c.sndUna = pkt.Ack
		c.stopRtx()
		c.setState(Established)
		c.sendACK()
		c.established()

	case pkt.Flags.Has(inet.FlagSYN):
		// Simultaneous open (§4.4): both SYNs crossed on the wire.
		// Move to SYN-RCVD and answer with a SYN-ACK whose SYN part
		// replays our original SYN (same sequence number).
		c.irs = pkt.Seq
		c.rcvNxt = pkt.Seq + 1
		c.setState(SynRcvd)
		c.sendSYN(true)
		c.armSYNTimer()
	}
}

func (c *Conn) deliverSynRcvd(pkt *inet.Packet) {
	if pkt.Flags.Has(inet.FlagSYN) && !pkt.Flags.Has(inet.FlagACK) {
		// Duplicate SYN (peer retransmitting); re-send SYN-ACK.
		c.sendSYN(true)
		return
	}
	if pkt.Flags.Has(inet.FlagACK) && pkt.Ack == c.sndNxt {
		c.sndUna = pkt.Ack
		c.stopRtx()
		c.synRetries = 0
		c.setState(Established)
		c.established()
		// A SYN-ACK from a peer that is also in SYN-RCVD (both sides
		// of a simultaneous open sent SYN-ACKs), or a piggybacked
		// data/FIN segment: fall through to normal processing.
		if len(pkt.Payload) > 0 || pkt.Flags.Has(inet.FlagFIN) {
			c.deliverData(pkt)
		} else if pkt.Flags.Has(inet.FlagSYN) {
			c.sendACK()
		}
	}
}

func (c *Conn) established() {
	if c.cb.Established != nil {
		c.cb.Established(c)
	}
	c.pump()
}

// deliverData handles segments in the synchronized states.
func (c *Conn) deliverData(pkt *inet.Packet) {
	// Duplicate SYN-ACK from handshake: re-ACK and ignore.
	if pkt.Flags.Has(inet.FlagSYN) {
		if pkt.Seq == c.irs {
			c.sendACK()
		}
		return
	}

	if pkt.Flags.Has(inet.FlagACK) {
		c.processAck(pkt.Ack)
		if c.state == Closed {
			return // processAck may complete LAST-ACK teardown
		}
	}

	advanced := false
	if len(pkt.Payload) > 0 {
		switch {
		case pkt.Seq == c.rcvNxt:
			c.rcvNxt += uint32(len(pkt.Payload))
			advanced = true
			if c.cb.Data != nil {
				c.cb.Data(c, pkt.Payload)
			}
			if c.state == Closed {
				return // app aborted from callback
			}
		case stream.SeqLT(pkt.Seq, c.rcvNxt):
			// Duplicate; re-ACK below.
			advanced = true
		default:
			// Out of order: go-back-N discards; duplicate-ACK prompts
			// the sender's retransmit.
			c.sendACK()
			return
		}
	}

	if pkt.Flags.Has(inet.FlagFIN) {
		finSeq := pkt.Seq + uint32(len(pkt.Payload))
		if finSeq == c.rcvNxt && !c.rcvdFin {
			c.rcvdFin = true
			c.rcvNxt++
			advanced = true
			c.handleFIN()
			if c.state == Closed {
				return
			}
		} else if stream.SeqLT(finSeq, c.rcvNxt) {
			advanced = true // duplicate FIN; re-ACK
		}
	}

	if advanced {
		c.sendACK()
	}
}

func (c *Conn) processAck(ack uint32) {
	if !stream.SeqGT(ack, c.sndUna) || stream.SeqGT(ack, c.sndNxt) {
		return
	}
	c.sndUna = ack
	// Drop fully acknowledged segments.
	i := 0
	for ; i < len(c.rtxq); i++ {
		seg := c.rtxq[i]
		end := seg.seq + uint32(len(seg.payload))
		if seg.fin {
			end++
		}
		if stream.SeqGT(end, ack) {
			break
		}
	}
	c.rtxq = c.rtxq[i:]
	c.stopRtx()
	c.armRtx()

	if c.finSent && stream.SeqGEQ(ack, c.finSeq+1) {
		switch c.state {
		case FinWait1:
			c.setState(FinWait2)
		case Closing:
			c.enterTimeWait()
		case LastAck:
			c.teardown(nil)
		}
	}
}

func (c *Conn) handleFIN() {
	if c.cb.RemoteClosed != nil {
		c.cb.RemoteClosed(c)
	}
	if c.state == Closed {
		return // app reacted by aborting
	}
	switch c.state {
	case Established:
		c.setState(CloseWait)
	case FinWait1:
		// Our FIN not yet acked: simultaneous close.
		c.setState(Closing)
	case FinWait2:
		c.enterTimeWait()
	}
}

func (c *Conn) enterTimeWait() {
	c.setState(TimeWait)
	c.stopRtx()
	c.waitTimer = c.env.After(2*msl, func() { c.teardown(nil) })
}

// String renders a one-line connection summary for traces.
func (c *Conn) String() string {
	return fmt.Sprintf("tcp %s->%s %s", c.local, c.remote, c.state)
}
