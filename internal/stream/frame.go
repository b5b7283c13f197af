package stream

import (
	"encoding/binary"
	"errors"

	"natpunch/internal/proto"
)

// Frame is one stream-layer unit, the decoded form of the
// TypeStream* frame types. Several frames pack back to back into one
// session datagram, so control (acks, windows) piggybacks with data in
// a single send. Each frame is a 16-byte big-endian header, then Data:
//
//	type (1) | flags (1, bit 0 = FIN) | stream ID (8) | Off (4) | len(Data) (2)
//
// Stream ID 0 is reserved for session-scoped frames (the session
// flow-control window, pings).
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

// frameOverhead is the wire cost of one frame beyond its Data: the
// header. transmit decides where a frame goes from it before encoding.
const frameOverhead = 1 + 1 + 8 + 4 + 2

// flagFIN is the one defined bit of a frame's flags byte.
const flagFIN = 1

// AppendFrame appends f's wire encoding to dst. f.Data must fit the
// 16-bit length; the engine never builds a frame past maxDatagram.
func AppendFrame(dst []byte, f *Frame) []byte {
	var flags byte
	if f.FIN {
		flags = flagFIN
	}
	dst = append(dst, byte(f.Type), flags)
	dst = binary.BigEndian.AppendUint64(dst, f.Stream)
	dst = binary.BigEndian.AppendUint32(dst, f.Off)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Data)))
	return append(dst, f.Data...)
}

// Parser unpacks frame datagrams; it holds no state, so parsing
// allocates nothing and copies nothing. The Frame passed to the
// callback is not the callback's to keep: its Data is the frame's bytes
// where they lie in the datagram being parsed, capacity-capped so an
// append cannot reach the next frame, and the callback must copy what
// it keeps.
type Parser struct{}

// Parse walks the packed frames in p, invoking fn for each. It stops
// at the first malformed frame or callback error. The switch is the
// stream layer's wire dispatch: every TypeStream* constant must be
// accepted here (natlint wiredispatch).
func (Parser) Parse(p []byte, fn func(Frame) error) error {
	for len(p) > 0 {
		if len(p) < frameOverhead || p[1]&^flagFIN != 0 {
			return ErrBadFrame
		}
		switch proto.Type(p[0]) {
		case proto.TypeStream, proto.TypeStreamAck, proto.TypeStreamWindow,
			proto.TypeStreamReset, proto.TypeStreamPing:
		default:
			return ErrBadFrame
		}
		end := frameOverhead + int(binary.BigEndian.Uint16(p[14:]))
		if len(p) < end {
			return ErrBadFrame
		}
		f := Frame{
			Type:   proto.Type(p[0]),
			Stream: binary.BigEndian.Uint64(p[2:]),
			Off:    binary.BigEndian.Uint32(p[10:]),
			FIN:    p[1] == flagFIN,
			Data:   p[frameOverhead:end:end],
		}
		p = p[end:]
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
