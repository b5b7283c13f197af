package stream

import (
	"encoding/binary"
	"errors"
	"fmt"

	"natpunch/internal/proto"
)

// Frame is one stream-layer unit, the decoded form of the
// TypeStream* wire messages. Several frames pack into one session
// datagram, each as a length-prefixed proto encoding, so control
// (acks, windows) piggybacks with data in a single send.
//
// Field mapping onto proto.Message: Nonce carries the stream ID, Seq
// the offset/ack/limit/token, Requester the FIN bit, Data the
// payload or ack ranges. Stream ID 0 is reserved for session-scoped frames (the
// session flow-control window, pings).
type Frame struct {
	// Type is one of proto.TypeStream, TypeStreamAck,
	// TypeStreamWindow, TypeStreamReset, TypeStreamPing.
	Type proto.Type
	// Stream identifies the stream (0 = session scope).
	Stream uint64
	// Off is the data offset (TypeStream), cumulative ack
	// (TypeStreamAck), flow-control limit (TypeStreamWindow), or echo
	// token (TypeStreamPing).
	Off uint32
	// FIN marks the final data frame (TypeStream), acknowledges a
	// received FIN (TypeStreamAck), or marks a ping reply
	// (TypeStreamPing).
	FIN bool
	// Data is the stream payload (TypeStream), or the out-of-order
	// ranges the receiver holds beyond the cumulative ack
	// (TypeStreamAck): up to eight big-endian (start, end) uint32
	// pairs, lowest first, empty when nothing is out of order.
	Data []byte
}

// ErrBadFrame reports a malformed frame datagram.
var ErrBadFrame = errors.New("stream: malformed frame datagram")

// frameOverhead is the wire cost of one empty packed frame: the
// 4-byte length prefix plus the proto envelope with empty strings,
// zero endpoints, and no candidates. Every frame's encoding is exactly
// this much longer than its Data, which is what lets transmit decide
// where a frame goes before encoding it.
const frameOverhead = 4 + 3 + 2 + 2 + 6 + 6 + 8 + 1 + 4 + 4 + 2

// AppendFrame appends f's length-prefixed wire encoding to dst.
func AppendFrame(dst []byte, f *Frame) []byte {
	m := proto.Message{
		Type: f.Type, Nonce: f.Stream, Seq: f.Off,
		Requester: f.FIN, Data: f.Data,
	}
	return proto.AppendFrame(dst, &m, 0)
}

// Parser unpacks frame datagrams, reusing one proto decoder so
// steady-state parsing allocates nothing and copies nothing. The Frame
// passed to the callback is not the callback's to keep: its Data is the
// frame's bytes where they lie in the datagram being parsed, so the
// callback must copy what it keeps.
type Parser struct {
	dec proto.Decoder
}

// Parse walks the packed frames in p, invoking fn for each. It stops
// at the first malformed frame or callback error.
func (pr *Parser) Parse(p []byte, fn func(Frame) error) error {
	for len(p) > 0 {
		if len(p) < 4 {
			return ErrBadFrame
		}
		n := binary.BigEndian.Uint32(p)
		p = p[4:]
		if uint64(len(p)) < uint64(n) {
			return ErrBadFrame
		}
		m, err := pr.dec.Decode(p[:n])
		if err != nil {
			return err
		}
		p = p[n:]
		f, err := frameOf(m)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// frameOf maps a decoded wire message onto its stream-layer frame.
// The switch is the stream layer's wire dispatch: every TypeStream*
// constant must be handled here (natlint wiredispatch).
func frameOf(m *proto.Message) (Frame, error) {
	switch m.Type {
	case proto.TypeStream, proto.TypeStreamAck, proto.TypeStreamWindow,
		proto.TypeStreamReset, proto.TypeStreamPing:
		return Frame{
			Type: m.Type, Stream: m.Nonce, Off: m.Seq,
			FIN: m.Requester, Data: m.Data,
		}, nil
	default:
		return Frame{}, fmt.Errorf("stream: frame type %v: %w", m.Type, ErrBadFrame)
	}
}
