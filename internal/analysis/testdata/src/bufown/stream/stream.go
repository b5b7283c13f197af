// Package stream mirrors the stream layer's frame: the parser hands
// each Frame to its callback by value, with Data pointing into the
// received datagram, so the slice is callback-scoped like a Message's.
package stream

// Frame is the fixture's stream frame.
type Frame struct {
	Stream uint64
	Off    uint32
	Data   []byte
}
