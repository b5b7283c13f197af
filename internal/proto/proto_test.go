package proto

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"natpunch/internal/inet"
)

func sampleMessage() *Message {
	return &Message{
		Type:      TypeConnectDetails,
		From:      "server",
		Target:    "client-b",
		Public:    inet.EP("155.99.25.11", 62000),
		Private:   inet.EP("10.0.0.1", 4321),
		Nonce:     0xDEADBEEFCAFE,
		Requester: true,
		Seq:       42,
		Data:      []byte("payload"),
		Candidates: []Candidate{
			{Kind: CandPrivate, Priority: 0x7F000001, Endpoint: inet.EP("10.0.0.1", 4321)},
			{Kind: CandPublic, Priority: 0x64000000, Endpoint: inet.EP("155.99.25.11", 62000)},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, obf := range []Obfuscator{PlainEndpoints, ObfuscatedEndpoints} {
		m := sampleMessage()
		got, err := Decode(Encode(m, obf))
		if err != nil {
			t.Fatalf("obf=%d: %v", obf, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("obf=%d: round trip mismatch:\n in: %+v\nout: %+v", obf, m, got)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(typ uint8, from, target string, pubA, privA uint32, pubP, privP uint16,
		nonce uint64, req bool, seq uint32, data []byte, obf bool,
		candKind uint8, candPrio uint32, candA uint32, candP uint16, nCands uint8) bool {
		m := &Message{
			Type: Type(typ%uint8(TypeNegotiateDetails)) + 1,
			From: from, Target: target,
			Public:  inet.Endpoint{Addr: inet.Addr(pubA), Port: inet.Port(pubP)},
			Private: inet.Endpoint{Addr: inet.Addr(privA), Port: inet.Port(privP)},
			Nonce:   nonce, Requester: req, Seq: seq,
		}
		if len(data) > 0 {
			m.Data = data
		}
		for i := uint8(0); i < nCands%5; i++ {
			m.Candidates = append(m.Candidates, Candidate{
				Kind:     candKind + i,
				Priority: candPrio - uint32(i),
				Endpoint: inet.Endpoint{Addr: inet.Addr(candA + uint32(i)), Port: inet.Port(candP)},
			})
		}
		mode := PlainEndpoints
		if obf {
			mode = ObfuscatedEndpoints
		}
		got, err := Decode(Encode(m, mode))
		return err == nil && reflect.DeepEqual(m, got)
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestObfuscationHidesAddressBytes(t *testing.T) {
	// The raw private address bytes must not appear in the obfuscated
	// wire form — that is the whole point (§3.1: defeat NATs scanning
	// for address-like byte sequences).
	m := &Message{Type: TypeRegister, From: "a", Private: inet.EP("10.0.0.1", 4321)}
	raw := inet.MustParseAddr("10.0.0.1").Octets()
	plain := Encode(m, PlainEndpoints)
	if !bytes.Contains(plain, raw[:]) {
		t.Fatal("plain encoding should contain the address bytes")
	}
	obf := Encode(m, ObfuscatedEndpoints)
	if bytes.Contains(obf, raw[:]) {
		t.Error("obfuscated encoding leaks raw address bytes")
	}
}

func TestCrossModeInterop(t *testing.T) {
	// The header carries the mode, so a plain-mode receiver decodes an
	// obfuscated message correctly.
	m := sampleMessage()
	got, err := Decode(Encode(m, ObfuscatedEndpoints))
	if err != nil || got.Private != m.Private {
		t.Fatalf("cross-mode decode: %+v, %v", got, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("nil input should fail")
	}
	if _, err := Decode([]byte{0x00, 1, 0}); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := Decode([]byte{magic, 99, 0, 0, 0, 0, 0}); err != ErrBadType {
		t.Error("unknown type should fail")
	}
	// Truncations at every length must error, never panic — except at
	// the candidate-section boundary: the section is trailing and
	// optional, so cutting exactly there yields a valid legacy
	// (candidate-less) encoding.
	full := Encode(sampleMessage(), PlainEndpoints)
	legacyLen := len(full) - 2 - 11*len(sampleMessage().Candidates)
	for i := 0; i < len(full)-1; i++ {
		m, err := Decode(full[:i])
		if i == legacyLen {
			if err != nil || len(m.Candidates) != 0 {
				t.Fatalf("legacy boundary at %d should decode candidate-less: %+v, %v", i, m, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("truncation at %d decoded successfully", i)
		}
	}
}

func TestStreamDecoder(t *testing.T) {
	m1 := sampleMessage()
	m2 := &Message{Type: TypeKeepAlive, From: "b", Seq: 7}
	var wire []byte
	wire = AppendFrame(wire, m1, PlainEndpoints)
	wire = AppendFrame(wire, m2, ObfuscatedEndpoints)

	// Feed in pathological 1-byte chunks.
	var d StreamDecoder
	var got []*Message
	for _, b := range wire {
		ms, err := d.Feed([]byte{b})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ms...)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d messages, want 2", len(got))
	}
	if !reflect.DeepEqual(got[0], m1) || got[1].Type != TypeKeepAlive || got[1].Seq != 7 {
		t.Errorf("stream decode mismatch: %+v %+v", got[0], got[1])
	}
}

func TestStreamDecoderOversizedFrame(t *testing.T) {
	var d StreamDecoder
	if _, err := d.Feed([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestStreamDecoderBatch(t *testing.T) {
	var wire []byte
	const n = 50
	for i := 0; i < n; i++ {
		wire = AppendFrame(wire, &Message{Type: TypeData, Seq: uint32(i)}, PlainEndpoints)
	}
	var d StreamDecoder
	got, err := d.Feed(wire)
	if err != nil || len(got) != n {
		t.Fatalf("batch decode: %d msgs, err=%v", len(got), err)
	}
	for i, m := range got {
		if m.Seq != uint32(i) {
			t.Fatalf("order broken at %d: %d", i, m.Seq)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	for typ := TypeRegister; typ <= TypeData; typ++ {
		if typ.String() == "" {
			t.Errorf("type %d has no name", typ)
		}
	}
}

func TestAppendMessageMatchesEncode(t *testing.T) {
	// AppendMessage into a prefixed buffer must produce exactly the
	// Encode bytes after the prefix — the hot paths depend on it.
	for _, obf := range []Obfuscator{PlainEndpoints, ObfuscatedEndpoints} {
		m := sampleMessage()
		want := Encode(m, obf)
		scratch := append(make([]byte, 0, 256), "prefix"...)
		got := AppendMessage(scratch, m, obf)
		if !bytes.Equal(got[:6], []byte("prefix")) || !bytes.Equal(got[6:], want) {
			t.Fatalf("obf=%d: AppendMessage diverges from Encode", obf)
		}
	}
}

func TestDecoderMatchesDecode(t *testing.T) {
	// A reused Decoder must agree with Decode on every message in a
	// mixed stream, including Data/Candidates shrinking between calls.
	msgs := []*Message{
		sampleMessage(),
		{Type: TypeKeepAlive, From: "b", Seq: 7},
		{Type: TypeRelayTo, From: "a", Target: "b", Seq: 9, Data: bytes.Repeat([]byte("x"), 900)},
		{Type: TypeRelayTo, From: "a", Target: "b", Seq: 10, Data: []byte("s")},
		{Type: TypeRegister, From: "a", Private: inet.EP("10.0.0.1", 4321)},
		sampleMessage(),
	}
	var d Decoder
	for i, m := range msgs {
		wire := Encode(m, ObfuscatedEndpoints)
		want, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Decode(wire)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		// The Decoder reuses storage, so compare field-by-field with
		// value semantics rather than slice identity.
		if got.Type != want.Type || got.From != want.From || got.Target != want.Target ||
			got.Public != want.Public || got.Private != want.Private ||
			got.Nonce != want.Nonce || got.Requester != want.Requester || got.Seq != want.Seq ||
			!bytes.Equal(got.Data, want.Data) || len(got.Candidates) != len(want.Candidates) {
			t.Fatalf("msg %d: Decoder diverges from Decode:\nwant %+v\n got %+v", i, want, got)
		}
		for j := range want.Candidates {
			if got.Candidates[j] != want.Candidates[j] {
				t.Fatalf("msg %d cand %d mismatch", i, j)
			}
		}
	}
}

func TestDecoderInternsNames(t *testing.T) {
	var d Decoder
	wire := Encode(&Message{Type: TypeKeepAlive, From: "alice", Target: "bob"}, PlainEndpoints)
	m1, err := d.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	first, firstTarget := m1.From, m1.Target
	m2, err := d.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	// Interned strings are stable across calls (same backing storage),
	// so retaining them — registry records do — is safe and alloc-free.
	if m2.From != first || m2.Target != firstTarget {
		t.Fatal("interned names changed between decodes")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.Decode(wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decoder.Decode allocates %v/op, want 0", allocs)
	}
}

func TestDecoderInternTableBounded(t *testing.T) {
	var d Decoder
	m := &Message{Type: TypeKeepAlive}
	name := make([]byte, 8)
	for i := 0; i < maxInternedNames+100; i++ {
		binary.BigEndian.PutUint64(name, uint64(i))
		m.From = string(name)
		if _, err := d.Decode(Encode(m, PlainEndpoints)); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.names) > maxInternedNames {
		t.Fatalf("intern table grew to %d entries, bound is %d", len(d.names), maxInternedNames)
	}
}

// within reports whether p's bytes lie inside b's.
func within(p, b []byte) bool {
	for i := range b {
		if &b[i] == &p[0] {
			return len(p) <= len(b)-i
		}
	}
	return false
}

// TestDecoderLeavesDataInPlace pins who copies a payload: the reusing
// Decoder does not — Data is the payload's bytes in the input, cut to
// their length so that an append cannot reach what follows them — and
// the allocating Decode and the stream decoder built on it do, because
// their callers keep what they get. An empty payload never points
// anywhere: nil on a fresh Decoder, empty and without capacity after a
// payload that had some.
func TestDecoderLeavesDataInPlace(t *testing.T) {
	m := sampleMessage()
	wire := Encode(m, PlainEndpoints)
	var d Decoder
	got, err := d.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, m.Data) || !within(got.Data, wire) || cap(got.Data) != len(got.Data) {
		t.Fatalf("Decoder: Data %q (len %d, cap %d), inside the input: %v; want the input's own bytes, cut to length",
			got.Data, len(got.Data), cap(got.Data), within(got.Data, wire))
	}
	if grown := append(got.Data, '!'); within(grown, wire) {
		t.Fatal("appending to Data wrote into the datagram")
	}

	empty := Encode(&Message{Type: TypeKeepAlive, From: "b"}, PlainEndpoints)
	if got, err = d.Decode(empty); err != nil || got.Data == nil || len(got.Data) != 0 || cap(got.Data) != 0 {
		t.Fatalf("Decoder, empty payload after a full one: Data %v (cap %d), %v; want empty, not nil, no capacity", got.Data, cap(got.Data), err)
	}
	var fresh Decoder
	if got, err = fresh.Decode(empty); err != nil || got.Data != nil {
		t.Fatalf("fresh Decoder, empty payload: Data %v, %v; want nil", got.Data, err)
	}

	if got, err = Decode(wire); err != nil || !bytes.Equal(got.Data, m.Data) || within(got.Data, wire) {
		t.Fatalf("Decode: Data %q inside the input: %v (%v); want a copy", got.Data, within(got.Data, wire), err)
	}
	if got, err = Decode(empty); err != nil || got.Data != nil {
		t.Fatalf("Decode, empty payload: Data %v, %v; want nil", got.Data, err)
	}
	framed := AppendFrame(nil, m, PlainEndpoints)
	var sd StreamDecoder
	ms, err := sd.Feed(framed)
	if err != nil || len(ms) != 1 || !bytes.Equal(ms[0].Data, m.Data) || within(ms[0].Data, framed) {
		t.Fatalf("StreamDecoder.Feed: %d messages (%v), Data inside the input: %v; want one, a copy", len(ms), err, len(ms) == 1 && within(ms[0].Data, framed))
	}
	// Nor inside the decoder's own reassembly buffer, which the next
	// Feed overwrites.
	sd.Feed(AppendFrame(nil, &Message{Type: TypeRelayTo, Data: bytes.Repeat([]byte("x"), 64)}, PlainEndpoints))
	if !bytes.Equal(ms[0].Data, m.Data) {
		t.Fatalf("a later Feed rewrote an earlier message's Data: %q", ms[0].Data)
	}
}

// TestBeginEndDataMatchesAppendMessage: the two halves produce
// AppendMessage's bytes for a message with a payload, with an empty
// one, and with names of any length, behind a prefix the buffer held.
func TestBeginEndDataMatchesAppendMessage(t *testing.T) {
	for _, obf := range []Obfuscator{PlainEndpoints, ObfuscatedEndpoints} {
		for _, data := range [][]byte{nil, []byte("p"), bytes.Repeat([]byte("frame"), 230)} {
			m := sampleMessage()
			m.Candidates = nil
			m.Data = data
			want := AppendMessage([]byte("prefix"), m, obf)
			m.Data = []byte("not looked at")
			buf := BeginData([]byte("prefix"), m, obf)
			got := EndData(append(buf, data...), len(buf))
			if !bytes.Equal(got, want) {
				t.Fatalf("obf=%d, %d payload bytes: BeginData+EndData diverges from AppendMessage:\n got %x\nwant %x", obf, len(data), got, want)
			}
		}
	}
}
