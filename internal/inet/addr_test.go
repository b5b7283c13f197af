package inet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"155.99.25.11", AddrFrom4(155, 99, 25, 11), true},
		{"10.0.0.1", AddrFrom4(10, 0, 0, 1), true},
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xFFFFFFFF, true},
		{"18.181.0.31", AddrFrom4(18, 181, 0, 31), true},
		{"256.0.0.1", 0, false},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"01.2.3.4", 0, false}, // leading zero rejected
		{"a.b.c.d", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseAddr(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", c.in)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		addr := Addr(a)
		back, err := ParseAddr(addr.String())
		return err == nil && back == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrComplementInvolution(t *testing.T) {
	f := func(a uint32) bool {
		addr := Addr(a)
		return addr.Complement().Complement() == addr && (a == ^uint32(0)-a || addr.Complement() != addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseEndpoint(t *testing.T) {
	ep, err := ParseEndpoint("155.99.25.11:62000")
	if err != nil {
		t.Fatal(err)
	}
	if ep.Addr != MustParseAddr("155.99.25.11") || ep.Port != 62000 {
		t.Errorf("got %v", ep)
	}
	if ep.String() != "155.99.25.11:62000" {
		t.Errorf("String() = %q", ep.String())
	}
	for _, bad := range []string{"1.2.3.4", "1.2.3.4:", "1.2.3.4:99999", "1.2.3.4:-1", ":80"} {
		if _, err := ParseEndpoint(bad); err == nil {
			t.Errorf("ParseEndpoint(%q) succeeded, want error", bad)
		}
	}
}

func TestEndpointZero(t *testing.T) {
	var e Endpoint
	if !e.IsZero() {
		t.Error("zero endpoint should report IsZero")
	}
	if EP("1.2.3.4", 0).IsZero() || (Endpoint{0, 5}).IsZero() {
		t.Error("non-zero endpoints must not report IsZero")
	}
}

func TestPrefix(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	if !p.Contains(MustParseAddr("10.1.2.3")) {
		t.Error("10/8 should contain 10.1.2.3")
	}
	if p.Contains(MustParseAddr("11.0.0.0")) {
		t.Error("10/8 should not contain 11.0.0.0")
	}
	if got := p.Nth(1); got != MustParseAddr("10.0.0.1") {
		t.Errorf("Nth(1) = %s", got)
	}
	// Address bits beyond the prefix length are masked away.
	p2 := MustParsePrefix("10.1.2.3/16")
	if p2.Addr != MustParseAddr("10.1.0.0") {
		t.Errorf("prefix addr not masked: %s", p2.Addr)
	}
	if p2.String() != "10.1.0.0/16" {
		t.Errorf("String() = %q", p2.String())
	}
	// /32 contains exactly itself.
	p3 := MustParsePrefix("5.6.7.8/32")
	if !p3.Contains(MustParseAddr("5.6.7.8")) || p3.Contains(MustParseAddr("5.6.7.9")) {
		t.Error("/32 containment wrong")
	}
	// /0 contains everything.
	p0 := MustParsePrefix("0.0.0.0/0")
	if !p0.Contains(MustParseAddr("255.255.255.255")) {
		t.Error("/0 should contain everything")
	}
}

func TestPrefixContainsProperty(t *testing.T) {
	// Any address masked into a prefix is contained by that prefix.
	f := func(a uint32, bits uint8) bool {
		b := int(bits % 33)
		p := Prefix{Addr(a).mask(b), b}
		return p.Contains(Addr(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPrefixNthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Nth out of range should panic")
		}
	}()
	MustParsePrefix("10.0.0.0/30").Nth(4)
}

func TestParsePrefixErrors(t *testing.T) {
	for _, bad := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "x/8"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", bad)
		}
	}
}

func TestOctets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		o := [4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		a := AddrFrom4(o[0], o[1], o[2], o[3])
		if a.Octets() != o {
			t.Fatalf("octets mismatch: %v vs %v", a.Octets(), o)
		}
	}
}
