// Package proto defines the wire protocol spoken between punching
// clients, the rendezvous server S, and relays: registration with
// private-endpoint reporting (§3.1), connection-request forwarding
// with public+private endpoint exchange (§3.2 steps 1-2), punch
// probes carrying authentication nonces (§3.4 requires applications
// to authenticate to filter stray traffic), keep-alives (§3.6),
// relaying (§2.2), and connection reversal (§2.3).
//
// Messages use a fixed binary encoding (type byte, then fixed fields,
// then length-prefixed strings). Endpoints can optionally be
// obfuscated by one's-complementing the address (§3.1/§5.3), which
// defeats NATs that blindly rewrite payload bytes resembling private
// IP addresses.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"natpunch/internal/inet"
)

// Type identifies a protocol message.
type Type uint8

// Message types.
const (
	// TypeRegister: client -> S. Carries the client's ID and its
	// private endpoint as the client itself observes it (§3.1).
	TypeRegister Type = iota + 1
	// TypeRegisterOK: S -> client. Echoes the client's public endpoint
	// as observed by S (the translated endpoint), so the client learns
	// its own public endpoint.
	TypeRegisterOK
	// TypeConnectRequest: client -> S. "A asks S for help establishing
	// a session with B" (§3.2 step 1). Carries the target's ID and the
	// session nonce A chose.
	TypeConnectRequest
	// TypeConnectDetails: S -> both clients (§3.2 step 2). Carries the
	// peer's ID, public and private endpoints, the session nonce, and
	// whether the receiver is the original requester.
	TypeConnectDetails
	// TypePunch: client -> peer candidate endpoint. The hole-punching
	// probe, authenticated by the session nonce (§3.4).
	TypePunch
	// TypePunchAck: reply to a punch probe; locking in the responding
	// endpoint (§3.2 step 3).
	TypePunchAck
	// TypeKeepAlive: client -> peer on an established session (§3.6).
	TypeKeepAlive
	// TypeRelayTo: client -> S, asking S to forward Data to Target
	// (§2.2 relaying fallback).
	TypeRelayTo
	// TypeRelayed: S -> client, forwarded relay payload.
	TypeRelayed
	// TypeReverseRequest: client -> S -> peer. Asks an un-NATed (or
	// already-reachable) peer to connect back (§2.3).
	TypeReverseRequest
	// TypeError: S -> client, request failed (unknown peer, ...).
	TypeError
	// TypeSeqRequest: sequential hole punching step 1 (§4.5, NatTrav):
	// A informs B via S of its desire to communicate without
	// simultaneously listening. Forwarded by S with A's endpoints.
	TypeSeqRequest
	// TypeSeqGo: sequential hole punching step 3->4: B has made its
	// doomed connect() (opening the hole in its NAT) and is now
	// listening; S signals A to connect. (NatTrav signals this by
	// closing TCP connections to S; an explicit message is
	// semantically equivalent and keeps the S connections reusable,
	// which §4.5 notes the parallel procedure enjoys.)
	TypeSeqGo
	// TypeData: application payload on an established punched session.
	TypeData
	// TypeNegotiate: client -> S. Like TypeConnectRequest, but opens a
	// candidate negotiation (punch.Client.Connect). S brokers it as it
	// does a connection request (§3.2 step 2): each side gets the
	// other's registered private endpoint and the public one S
	// observed (§3.1 makes S authoritative for it).
	TypeNegotiate
	// TypeNegotiateDetails: S -> both clients. The negotiation
	// counterpart of TypeConnectDetails, with the same fields: the
	// peer's public and private endpoints, the session nonce, and the
	// requester flag. The receiver builds its checks from that pair.
	TypeNegotiateDetails
	// TypeFedHello: server -> server. Opens (or refreshes) a
	// federation link between two rendezvous servers: the receiver
	// records the sender — the datagram source — as a federation peer
	// and answers with its own hello if the sender was previously
	// unknown, then replays its locally homed registrations as
	// TypeFedRecord messages so the link starts synchronized.
	TypeFedHello
	// TypeFedRecord: server -> server. Replicates one locally homed
	// client registration (or its §3.6 keep-alive refresh) to a
	// federation peer: From is the client name, Public/Private are the
	// endpoint pair the home server recorded (§3.1), and the datagram
	// source identifies the home server. The receiver stores the
	// record as remote and restarts its TTL.
	TypeFedRecord
	// TypeFedForward: server -> server. Carries, in Data, the exact
	// wire bytes the receiving server must deliver to its locally
	// homed client Target. Federation needs this because a NATed
	// client is reachable only through the mapping it keeps open to
	// its *home* server — no other server's datagrams can traverse
	// that filter state (§3.1).
	TypeFedForward
	// TypeMigrate: client -> peer, sent on the *new* path during a
	// mid-session path migration (relay->direct upgrade or
	// direct->relay failback). From and Nonce authenticate it like any
	// session traffic (§3.4); Seq carries the last sequence number the
	// sender transmitted on the old path, so the receiver can drain
	// in-flight old-path datagrams (delivering everything with
	// seq <= Seq) before switching — the drain-then-switch cutover
	// that keeps migration loss- and reorder-free.
	TypeMigrate
	// TypeStream: one reliable-stream data frame (internal/stream),
	// carried inside a session datagram (TypeData/TypeRelayTo payload)
	// in the stream layer's own 16-byte frame header, not in a Message:
	// these five constants number its frame types. The frame carries
	// the stream ID, the byte offset of its data within the stream, and
	// FIN: the data's last byte is the final byte of the stream.
	// Offsets live in the 32-bit circular space of RFC 793 §3.3,
	// compared with the stream engine's Seq* helpers.
	TypeStream
	// TypeStreamAck: cumulative acknowledgment for one stream: the
	// next byte offset the receiver expects (everything below it
	// arrived in order). Acks drive the sender's RTT estimate and
	// release its retransmission buffer.
	TypeStreamAck
	// TypeStreamWindow: flow-control credit for a stream — or, on
	// stream ID zero, the session — as the absolute limit offset
	// (stream) or cumulative byte budget (session) the sender may
	// reach. A receiver re-advertises as the application consumes.
	TypeStreamWindow
	// TypeStreamReset: abrupt bidirectional stream termination; both
	// directions stop, buffered data is dropped.
	TypeStreamReset
	// TypeStreamPing: session liveness/RTT probe. The offset field is
	// an echo token; FIN clear asks, set answers with the same token.
	// The round-trip seeds the retransmission timer on idle sessions.
	TypeStreamPing
)

// String names the message type.
func (t Type) String() string {
	names := map[Type]string{
		TypeRegister: "register", TypeRegisterOK: "register-ok",
		TypeConnectRequest: "connect-request", TypeConnectDetails: "connect-details",
		TypePunch: "punch", TypePunchAck: "punch-ack", TypeKeepAlive: "keep-alive",
		TypeRelayTo: "relay-to", TypeRelayed: "relayed",
		TypeReverseRequest: "reverse-request", TypeError: "error",
		TypeSeqRequest: "seq-request", TypeSeqGo: "seq-go", TypeData: "data",
		TypeNegotiate: "negotiate", TypeNegotiateDetails: "negotiate-details",
		TypeFedHello: "fed-hello", TypeFedRecord: "fed-record",
		TypeFedForward: "fed-forward", TypeMigrate: "migrate",
		TypeStream: "stream", TypeStreamAck: "stream-ack",
		TypeStreamWindow: "stream-window", TypeStreamReset: "stream-reset",
		TypeStreamPing: "stream-ping",
	}
	if s, ok := names[t]; ok {
		return s
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Message is the decoded form of every protocol message; unused
// fields are zero. One concrete struct keeps encode/decode total and
// easily property-testable.
type Message struct {
	Type Type
	// From and Target are client identities (names registered with S).
	From, Target string
	// Public and Private are the endpoint pair exchanged through S
	// (§3.2). In TypeRegister, Private is the sender's own view;
	// in TypeRegisterOK, Public is S's view of the sender.
	Public, Private inet.Endpoint
	// Nonce authenticates punch traffic for one session (§3.4).
	Nonce uint64
	// Requester marks the ConnectDetails copy sent to the original
	// requester (it dials; the other side also dials — both punch).
	Requester bool
	// Seq sequences keep-alives and data for loss accounting.
	Seq uint32
	// Data is relay or application payload.
	Data []byte
	// Candidates is a transport-address list. No message the clients or
	// S send carries one: a negotiation's candidates are the
	// Public/Private pair. The section is trailing and optional on the
	// wire, so encodings without it decode (as an empty list), and a
	// list that arrives is decoded and ignored.
	Candidates []Candidate
}

// Candidate kind wire values. The wire layer only round-trips them;
// the engine's candidate kinds (internal/ice) come from the
// Public/Private pair, not from these.
const (
	// CandPrivate is a host (private-realm) transport address, the
	// client's own view of its endpoint (§3.1).
	CandPrivate uint8 = 1
	// CandPublic is the server-reflexive address: the client's public
	// endpoint as observed by S (§3.1).
	CandPublic uint8 = 2
	// CandRelay is the §2.2 relay path through S, the guaranteed floor.
	CandRelay uint8 = 5
)

// Candidate is one transport address advertised for negotiation.
type Candidate struct {
	// Kind is one of the Cand* wire values.
	Kind uint8
	// Priority is advisory, higher first; the wire layer only
	// round-trips it.
	Priority uint32
	// Endpoint is the transport address to check.
	Endpoint inet.Endpoint
}

// Errors returned by Decode.
var (
	ErrShort   = errors.New("proto: message truncated")
	ErrBadType = errors.New("proto: unknown message type")
)

const magic = 0xF0 // version/magic nibble guarding against stray traffic

// Obfuscator transforms endpoints on the wire. The paper suggests
// one's-complementing addresses so NATs cannot recognize them (§3.1).
type Obfuscator uint8

// Obfuscation modes.
const (
	// PlainEndpoints transmits addresses verbatim (vulnerable to
	// mangler NATs, §5.3).
	PlainEndpoints Obfuscator = iota
	// ObfuscatedEndpoints transmits the one's complement of each
	// address.
	ObfuscatedEndpoints
)

func (o Obfuscator) addr(a inet.Addr) inet.Addr {
	if o == ObfuscatedEndpoints {
		return a.Complement()
	}
	return a
}

// Encode serializes m. Obfuscation applies to both endpoint fields
// (it is its own inverse, so Decode uses the same Obfuscator).
func Encode(m *Message, obf Obfuscator) []byte {
	return AppendMessage(make([]byte, 0, 64+len(m.Data)), m, obf)
}

// AppendMessage appends the wire encoding of m to dst and returns the
// extended slice. This is the allocation-free form of Encode: hot
// paths (the rendezvous forwarder and §2.2 relay) encode into the
// buffer the socket sends from, or into a reusable scratch, which
// amortizes to zero allocations per datagram.
func AppendMessage(dst []byte, m *Message, obf Obfuscator) []byte {
	buf := appendHeader(dst, m, obf, len(m.Data))
	buf = append(buf, m.Data...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Candidates)))
	for _, c := range m.Candidates {
		buf = append(buf, c.Kind)
		buf = binary.BigEndian.AppendUint32(buf, c.Priority)
		buf = appendEndpoint(buf, c.Endpoint, obf)
	}
	return buf
}

// appendHeader appends everything that precedes a message's payload on
// the wire, the payload's length included.
func appendHeader(dst []byte, m *Message, obf Obfuscator, dataLen int) []byte {
	buf := append(dst, magic, byte(m.Type), byte(obf))
	buf = appendString(buf, m.From)
	buf = appendString(buf, m.Target)
	buf = appendEndpoint(buf, m.Public, obf)
	buf = appendEndpoint(buf, m.Private, obf)
	buf = binary.BigEndian.AppendUint64(buf, m.Nonce)
	if m.Requester {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint32(buf, m.Seq)
	return binary.BigEndian.AppendUint32(buf, uint32(dataLen))
}

// BeginData and EndData are AppendMessage in two halves, for a caller
// that writes the payload itself where it will be sent from instead of
// building it elsewhere for AppendMessage to copy: BeginData appends
// m's encoding up to where its Data begins (m.Data and m.Candidates are
// not looked at), the caller appends the payload, and EndData, given
// the length BeginData's result had, fills in the payload's length and
// closes the message with an empty candidate list. The result is byte
// for byte what AppendMessage makes of the same message carrying that
// payload.
func BeginData(dst []byte, m *Message, obf Obfuscator) []byte {
	return appendHeader(dst, m, obf, 0)
}

// EndData completes the message BeginData began in buf; see there.
func EndData(buf []byte, dataAt int) []byte {
	binary.BigEndian.PutUint32(buf[dataAt-4:], uint32(len(buf)-dataAt))
	return binary.BigEndian.AppendUint16(buf, 0)
}

// Decode parses a message. The obfuscation mode is carried in the
// header, so peers interoperate regardless of their local setting.
func Decode(b []byte) (*Message, error) {
	m := &Message{}
	if _, err := decodeInto(m, b, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// Decoder decodes messages into a reused Message, interning the
// From/Target name strings, so steady-state decoding on a hot path
// allocates nothing and copies nothing: the returned Message's Data is
// not a copy but the payload's bytes inside b itself, cut to their
// length (appending to it reallocates). The *Message and its Candidates
// are valid until the next Decode call, its Data only as long as b is —
// for a datagram, until the delivery callback returns — so whatever
// outlives that copies it; the name strings are interned and safe to
// retain.
type Decoder struct {
	m Message
	n int // Len
	// last holds the two names most recently resolved through names,
	// which answer most lookups without hashing: a client mostly decodes
	// one peer's name, a relay alternates sender and target. next is the
	// slot the next such name replaces.
	last  [2]string
	next  int
	names map[string]string
}

// maxInternedNames bounds the intern table; a server bombarded with
// unique names resets the table rather than growing without bound.
const maxInternedNames = 1 << 14

// Decode parses one message into the Decoder's reused Message.
func (d *Decoder) Decode(b []byte) (*Message, error) {
	n, err := decodeInto(&d.m, b, d)
	if err != nil {
		return nil, err
	}
	d.n = n
	return &d.m, nil
}

// Len returns how many bytes of b the last successful Decode read: the
// message's own encoding, without whatever followed it in b.
func (d *Decoder) Len() int { return d.n }

// internString returns a stable string for the byte slice, allocating
// only the first time a given name is seen. Neither the comparisons
// with the last two names nor the map index expression
// `d.names[string(b)]` allocates (the compiler elides the conversion
// for both).
func (d *Decoder) internString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if string(b) == d.last[0] {
		return d.last[0]
	}
	if string(b) == d.last[1] {
		return d.last[1]
	}
	s, ok := d.names[string(b)]
	if !ok {
		if d.names == nil || len(d.names) >= maxInternedNames {
			d.names = make(map[string]string)
		}
		s = string(b)
		d.names[s] = s
	}
	d.last[d.next] = s
	d.next ^= 1
	return s
}

// decodeInto parses b into m, reusing m's Candidates storage when
// capacity allows, and returns how many bytes of b the message takes.
// A nil Decoder copies name strings and payload fresh (Decode); a
// non-nil one interns the names and points Data at the payload where
// it lies in b. On error m is left partially filled and must be
// discarded.
func decodeInto(m *Message, b []byte, in *Decoder) (int, error) {
	size := len(b)
	if len(b) < 3 || b[0] != magic {
		return 0, ErrShort
	}
	m.Type = Type(b[1])
	if m.Type == 0 || m.Type > TypeStreamPing {
		return 0, ErrBadType
	}
	obf := Obfuscator(b[2])
	b = b[3:]
	var err error
	if m.From, b, err = readStringIn(b, in); err != nil {
		return 0, err
	}
	if m.Target, b, err = readStringIn(b, in); err != nil {
		return 0, err
	}
	if m.Public, b, err = readEndpoint(b, obf); err != nil {
		return 0, err
	}
	if m.Private, b, err = readEndpoint(b, obf); err != nil {
		return 0, err
	}
	if len(b) < 8+1+4+4 {
		return 0, ErrShort
	}
	m.Nonce = binary.BigEndian.Uint64(b)
	m.Requester = b[8] == 1
	m.Seq = binary.BigEndian.Uint32(b[9:])
	n := binary.BigEndian.Uint32(b[13:])
	b = b[17:]
	if uint32(len(b)) < n {
		return 0, ErrShort
	}
	switch {
	case n == 0:
		// nil stays nil (fresh Message), anything else empties — and
		// loses its capacity, which may be an earlier datagram's.
		m.Data = m.Data[:0:0]
	case in != nil:
		m.Data = b[:n:n]
	default:
		m.Data = append(m.Data[:0], b[:n]...)
	}
	b = b[n:]
	m.Candidates = m.Candidates[:0]
	// Trailing candidate section: absent in pre-negotiation encodings,
	// which decode as "no candidates".
	if len(b) == 0 {
		return size, nil
	}
	if len(b) < 2 {
		return 0, ErrShort
	}
	cn := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if cn > 0 {
		if len(b) < cn*11 {
			return 0, ErrShort
		}
		if cap(m.Candidates) < cn {
			m.Candidates = make([]Candidate, cn)
		} else {
			m.Candidates = m.Candidates[:cn]
		}
		for i := range m.Candidates {
			c := &m.Candidates[i]
			c.Kind = b[0]
			c.Priority = binary.BigEndian.Uint32(b[1:])
			if c.Endpoint, _, err = readEndpoint(b[5:11], obf); err != nil {
				return 0, err
			}
			b = b[11:]
		}
	}
	return size - len(b), nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func readStringIn(b []byte, in *Decoder) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, ErrShort
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, ErrShort
	}
	if in != nil {
		return in.internString(b[:n]), b[n:], nil
	}
	return string(b[:n]), b[n:], nil
}

func appendEndpoint(buf []byte, ep inet.Endpoint, obf Obfuscator) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(obf.addr(ep.Addr)))
	return binary.BigEndian.AppendUint16(buf, uint16(ep.Port))
}

func readEndpoint(b []byte, obf Obfuscator) (inet.Endpoint, []byte, error) {
	if len(b) < 6 {
		return inet.Endpoint{}, nil, ErrShort
	}
	ep := inet.Endpoint{
		Addr: obf.addr(inet.Addr(binary.BigEndian.Uint32(b))),
		Port: inet.Port(binary.BigEndian.Uint16(b[4:])),
	}
	return ep, b[6:], nil
}

// --- stream framing for TCP transports ---

// AppendFrame appends a length-prefixed encoding of m to dst,
// suitable for a TCP byte stream. The body is encoded in place after
// a 4-byte length placeholder that is back-filled, so framing adds no
// allocation beyond what dst's growth requires.
func AppendFrame(dst []byte, m *Message, obf Obfuscator) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = AppendMessage(dst, m, obf)
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// StreamDecoder incrementally decodes length-prefixed messages from a
// TCP byte stream.
type StreamDecoder struct {
	buf []byte
}

// Feed appends stream bytes and returns all complete messages.
// Malformed frames return an error and poison the decoder.
func (d *StreamDecoder) Feed(p []byte) ([]*Message, error) {
	d.buf = append(d.buf, p...)
	var out []*Message
	for {
		if len(d.buf) < 4 {
			return out, nil
		}
		n := binary.BigEndian.Uint32(d.buf)
		if n > 1<<20 {
			return out, fmt.Errorf("proto: oversized frame (%d bytes)", n)
		}
		if uint32(len(d.buf)-4) < n {
			return out, nil
		}
		m, err := Decode(d.buf[4 : 4+n])
		if err != nil {
			return out, err
		}
		d.buf = d.buf[4+n:]
		out = append(out, m)
	}
}
